import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.optimize, scipy.sparse and scipy.stats add import time and
    # memory to every fit; code that needs them imports them lazily.  So
    # does the command line front end, which only the entry point loads.
    code = (
        "import sys, tvglearn\n"
        "heavy = ('scipy.optimize', 'scipy.sparse', 'scipy.stats')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
        "print('scipy.linalg' in sys.modules)\n"
        "print('tvglearn.cli' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    loaded, linalg, cli = done.stdout.splitlines()
    assert loaded == "[]"
    assert linalg == "True"  # the guard sees the package's real imports
    assert cli == "False"
