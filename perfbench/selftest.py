"""Self-test of the benchmark at its smallest sizes.

    python3 perfbench/selftest.py

1. Every workload in BENCHMARK.json runs with `--small`, untraced and
   traced.  The last line must be the result object, every metric that
   BENCHMARK.json names must be there under exactly that name and unit, and
   no operation may fail.
2. The checker fires: with one known fact made deliberately wrong (the
   exhaustive minimum of K_6 in two colors set to 3 instead of 2), a run of
   exact-pipeline must report failed operations and `correct: false`.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits nonzero and prints no result.

Exits 0 when all three hold.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in expected})}")
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"] or not isinstance(entry["value"], (int, float)):
            problems.append(f"{label}: {m['name']} is {entry}, unit should be {m['unit']}")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def every_workload_runs() -> list[str]:
    problems = []
    for wl in SPEC["workloads"]:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{wl['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", wl["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            problems += check_metrics(result_of(proc.stdout), expected, label)
            print(f"ok   {label}")
    return problems


def checker_fires() -> list[str]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    import workloads

    saved = dict(workloads.EXHAUSTIVE_MINIMA)
    workloads.EXHAUSTIVE_MINIMA[(6, 2)] = 3
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = run.main(["--workload", "exact-pipeline", "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--small"])
    finally:
        workloads.EXHAUSTIVE_MINIMA.clear()
        workloads.EXHAUSTIVE_MINIMA.update(saved)
    result = result_of(out.getvalue())
    if code != 0 or result["failed"] == 0 or result["correct"]:
        return [f"wrong expected minimum went unnoticed: exit {code}, {result}"]
    print(f"ok   wrong expected value caught: failed_ratio "
          f"{result['failed'] / result['attempted']:.3f} > 0")
    return []


def bare_directory_fails() -> list[str]:
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=work) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"benchmark without the package exited {proc.returncode}: {proc.stdout[-300:]}"]
    print(f"ok   without the package: exit {proc.returncode}, no result")
    return []


def main() -> int:
    problems = every_workload_runs() + checker_fires() + bare_directory_fails()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
