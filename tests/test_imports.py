import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHECK = textwrap.dedent("""
    import os
    import sys
    import tvglearn

    # scipy.linalg, scipy.optimize, scipy.sparse and scipy.stats add import
    # time and memory to every fit; code that needs them imports them
    # lazily.  So does the command line front end, which only the entry
    # point loads.
    heavy = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.stats")
    assert sorted(m for m in sys.modules if m.startswith(heavy)) == []
    assert "tvglearn.cli" not in sys.modules
    # the guard sees the package's real imports: scipy is loaded, and the
    # solver's LAPACK is the extension in its linalg directory
    assert "scipy" in sys.modules
    scipy_linalg = os.path.join(sys.modules["scipy"].__path__[0], "linalg")
    assert os.path.dirname(tvglearn.solver.lapack.__file__) == scipy_linalg

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


# tvglearn loads scipy's LAPACK extension a second time, under its own name;
# the two module objects must compute the same bits, before and after
# scipy.linalg is imported beside it
COEXIST = textwrap.dedent("""
    import sys
    import numpy as np
    import tvglearn as tg

    def fit():
        spec = tg.ScenarioSpec(n_nodes=6, k_true=5, n_segments=2,
                               windows_per_segment=2, window_len=30, seed=3)
        cfg = tg.SolverConfig(k_budget=5.0, window_len=30, gamma=0.1, max_iter=50)
        w, x, _ = tg.fit_dynamic(tg.generate(spec).signals, cfg)
        return w.tobytes(), x.tobytes()

    before = fit()
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg

    ours, theirs = tg.solver.lapack, scipy.linalg.lapack
    assert ours is not theirs and ours.dpotrf is not theirs.dpotrf
    rng = np.random.default_rng(0)
    b = rng.normal(size=(7, 7))
    spd = b @ b.T + 7.0 * np.eye(7)
    results = []
    for lapack in (ours, theirs):
        factor, info = lapack.dpotrf(spd, lower=1)
        inverse, info_inv = lapack.dtrtri(factor, lower=1)
        results.append((factor.tobytes(), info, inverse.tobytes(), info_inv))
    assert results[0] == results[1]
    assert results[0][1] == results[0][3] == 0
    assert fit() == before
""")


def _run_python(code):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_import_loads_no_heavy_scipy_subpackage():
    _run_python(CHECK)


def test_lapack_gives_the_bits_of_scipy_linalg_and_lives_beside_it():
    _run_python(COEXIST)
