"""The package never imports numpy: not on import, not in a CLI search, not in a climb.

Each check runs in a fresh interpreter, because this test process may have
imported numpy already.
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


def test_numpy_is_never_imported():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]
