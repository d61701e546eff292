"""The package never imports numpy: not on import, not in a CLI search, not in a climb.
Nor does importing the CLI pull in `dataclasses`, `inspect` or `hashlib`
(with OpenSSL's `_hashlib`), which cost a short-lived process more than the
package itself, or build an argument parser that no command has asked for.

Each check runs in a fresh interpreter, because this test process may have
imported these modules already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, sys
import ramsey333, ramsey333.cli
print("numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert ramsey333.cli.main(["search", "--n", "8", "--k", "3", "--seed", "1",
                               "--restarts", "2", "--json"]) == 0
print("numpy" in sys.modules)
ramsey333.minimize(ramsey333.SearchParams(n=17, k=3, seed=0, restarts=1))
print("numpy" in sys.modules)
"""

# Compared before and after the import: some interpreters preload inspect from site.
# Each ArgumentParser built during the import is counted too: main builds the one it uses.
IMPORT_CHILD = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **kw: built.append(init(self, *a, **kw))
before = set(sys.modules)
import ramsey333.cli
print(sorted({"dataclasses", "inspect", "hashlib", "_hashlib"} & (set(sys.modules) - before)))
print(len(built))
"""


def _run_child(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numpy_is_never_imported():
    assert _run_child(CHILD).split() == ["False", "False", "False"]


def test_cli_import_skips_dataclasses_and_inspect():
    assert _run_child(IMPORT_CHILD).split("\n") == ["[]", "0", ""]
