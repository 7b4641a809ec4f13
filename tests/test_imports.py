import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHECK = textwrap.dedent("""
    import sys
    import tvglearn

    # scipy.optimize, scipy.sparse and scipy.stats add import time and
    # memory to every fit; code that needs them imports them lazily.  So
    # does the command line front end, which only the entry point loads.
    heavy = ("scipy.optimize", "scipy.sparse", "scipy.stats")
    assert sorted(m for m in sys.modules if m.startswith(heavy)) == []
    assert "scipy.linalg" in sys.modules  # the guard sees the package's real imports
    assert "tvglearn.cli" not in sys.modules

    # the public names are the library modules' __all__ lists, each name
    # declared by one module and exported as that module's object
    from tvglearn import analysis, errors, graphs, projection, proximal, solver, synthetic
    modules = (analysis, errors, graphs, projection, proximal, solver, synthetic)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "the modules' __all__ lists overlap"
    assert sorted(tvglearn.__all__) == sorted(names + ["__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(tvglearn, name) is getattr(module, name), name
    star = {}
    exec("from tvglearn import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(tvglearn.__all__)
""")


def test_import_loads_no_heavy_scipy_subpackage():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHECK],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
