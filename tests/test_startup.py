"""Start-up cost: numpy is imported only when a search climbs.

Each check runs in a fresh interpreter, because this test process has
usually imported numpy already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, sys
import ramsey333, ramsey333.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert ramsey333.cli.main(["construct", "--method", "gf16"]) == 0
    assert ramsey333.cli.main(["exhaustive", "--n", "4", "--k", "2"]) == 0
print("numpy" in sys.modules)
ramsey333.minimize(ramsey333.SearchParams(n=5, k=2, seed=0, restarts=1))
print("numpy" in sys.modules)
"""


def test_numpy_is_imported_only_by_a_climb():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
