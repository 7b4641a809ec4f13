import os
import pathlib
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def pytest_configure(config):
    # Hypothesis caches the constants it mines from the source under
    # .hypothesis/ whatever the database setting; keep that out of the tree.
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        home = tempfile.mkdtemp(prefix="hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home
