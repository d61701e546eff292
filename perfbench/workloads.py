"""The four benchmark workloads, their inputs, warm-up calls and output checks.

Every workload is a closed loop with one client: the run repeats the
workload's *round* (its fixed work, generated from the workload seed) and
each operation of a round starts when the previous one has returned.  Every
operation is checked, against the `census` oracle or against a known fact;
an operation whose check fails or that raises is counted as failed, never
dropped or retried.

Why these four (each later optimisation has a workload that exercises it
and one that bypasses it):

- search-panel: the paper's headline claim (acceptance criterion 6) and most
  of the tier-1 time.  At n <= 17 a climb step is dominated by the fixed cost
  of each numpy call, so batching restarts shows here.  templates, synthesis
  and cli do nothing here.
- search-wide: the same climber at n=40, where the adj @ adj refresh
  dominates a step, so incremental updates show here and a design that helps
  one search shape but hurts the other shows as a regression.
- exact-pipeline: pure-Python exact work (cylinder template solve, twin
  assemblies, exhaustive minima, fast-path/oracle cross-check) with no numpy
  climb, so templates, synthesis and coloring do the work.
- cli-pipe: the README pipelines as serial child processes.  Interpreter
  start, package import, serialization and figures show here and nowhere
  else; the one `search` call still needs numpy.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

from ramsey333 import cli
from ramsey333.coloring import COLORS, Color, EdgeColoring, bit_rows, census, delete_vertex, fast_mono_counts
from ramsey333.constructions import construct_gf16, cylinder_template
from ramsey333.figures import export_figure
from ramsey333.search import SearchParams, exhaustive_min, minimize, random_coloring
from ramsey333.serialization import parse_document, serialize
from ramsey333.synthesis import assemble, complete_edge, extension_of_vertex, find_extensions, twin_k17
from ramsey333.templates import ColoringTemplate, solve_template, template_violations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

# Known facts the checks compare against.
RECORDS = {16: 0, 17: 5}  # lowest monochromatic count known at n (search never goes below)
EXHAUSTIVE_MINIMA = {(5, 2): 0, (6, 2): 2, (6, 3): 0, (7, 2): 4}
CYLINDER_COUPLINGS = 50
CHILD_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Round:
    """Checked operations of one round: counts, failures, output digest."""

    def __init__(self, tracer, op_ids):
        self.tr = tracer
        self._op_ids = op_ids
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.cli_ms: list[float] = []
        self._digest = hashlib.sha256()

    def op(self, kind, fn, *args) -> None:
        """Run one operation; fn returns None if its checks pass, else the problem."""
        self.attempted += 1
        self.tr.op = next(self._op_ids)
        try:
            with self.tr.span("bench." + kind):
                problem = fn(*args)
        except Exception as exc:  # a raising operation is a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.problems.append(f"{kind}: {problem}")

    def call(self, name, fn, *args, detail=None, **kwargs):
        return self.tr.call(name, fn, *args, detail=detail, **kwargs)

    def record(self, *parts) -> None:
        """Add deterministic outputs to the round digest."""
        for p in parts:
            self._digest.update(p if isinstance(p, bytes) else repr(p).encode())
            self._digest.update(b"\x00")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _check_search(r: Round, p: SearchParams) -> str | None:
    res = r.call("search.minimize", minimize, p, detail=p.n)
    cen = r.call("coloring.census", census, res.best, detail=p.n)
    r.record(p, res.trace, res.best.colors)
    r.counts.update(calls=1, restarts=p.restarts, best_sum=res.best_count,
                    scans=res.evaluations // (comb(p.n, 2) * (p.k - 1)))
    record = RECORDS.get(p.n)
    if record is not None:
        r.counts.update(record_restarts=p.restarts, hits=res.trace.count(record))
    if cen.total_mono != res.best_count:
        return f"census says {cen.total_mono}, best_count says {res.best_count}"
    if len(res.trace) != p.restarts or min(res.trace) != res.best_count:
        return f"trace {res.trace} disagrees with best_count {res.best_count}"
    if record is not None and res.best_count < record:
        return f"best {res.best_count} at n={p.n} is below the known record {record}"
    return None


class SearchPanel:
    """A slice of the criterion-6 panel: one n=16 seed and two n=17 seeds."""

    name = "search-panel"

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        n16_seed = rng.randrange(10)
        n17_seeds = rng.sample(range(100), 2)
        r16, r17 = (4, 2) if small else (200, 40)
        self.params = [SearchParams(n=16, k=3, seed=n16_seed, restarts=r16,
                                    steps_per_restart=20_000, sideways_limit=200)]
        self.params += [SearchParams(n=17, k=3, seed=s, restarts=r17,
                                     steps_per_restart=20_000, sideways_limit=400)
                        for s in n17_seeds]

    def warm(self) -> None:
        minimize(SearchParams(n=17, k=3, seed=0, restarts=1, steps_per_restart=20))
        census(random_coloring(17, 3, 0))

    def run_round(self, r: Round) -> None:
        for p in self.params:
            r.op("minimize", _check_search, r, p)

    def close(self) -> None:
        pass


class SearchWide(SearchPanel):
    """The same climber at n=40 with the n=17 step and sideways settings."""

    name = "search-wide"

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        calls, restarts = (1, 1) if small else (2, 8)
        self.params = [SearchParams(n=40, k=3, seed=rng.getrandbits(32), restarts=restarts,
                                    steps_per_restart=20_000, sideways_limit=400)
                       for _ in range(calls)]


class ExactPipeline:
    """Cylinder solve, twin assemblies, exhaustive minima, fast-path cross-check."""

    name = "exact-pipeline"
    XCHECK_SIZES = (17, 32, 48, 64)

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        per_size = 1 if small else 32
        self.enumerate = 2 if small else 4
        self.vertices = (rng.randrange(16),) if small else tuple(range(16))
        self.xcheck = [random_coloring(n, rng.choice((2, 3)), rng.getrandbits(64))
                       for _ in range(per_size) for n in self.XCHECK_SIZES]

    def warm(self) -> None:
        g = construct_gf16()
        census(g)
        solve_template(ColoringTemplate.from_coloring(g))
        complete_edge(assemble(delete_vertex(g, 0), extension_of_vertex(g, 0),
                               extension_of_vertex(g, 0)), Color.BLUE)
        exhaustive_min(4, 2)
        fast_mono_counts(self.xcheck[0])

    def run_round(self, r: Round) -> None:
        st: dict = {}
        r.op("cylinder_template", self._template, r, st)
        r.op("solve_first", self._solve, r, st, 1)
        r.op("solve_enumerate", self._solve, r, st, self.enumerate)
        r.op("gf16", self._gf16, r, st)
        for base in ("gf16", "cylinder"):
            for v in self.vertices:
                r.op("twin_assemble", self._assemble, r, st, base, v)
                for x in COLORS:
                    r.op("twin_complete", self._complete, r, st, base, v, x)
        for v in self.vertices:
            for x in COLORS:
                r.op("twin_k17", self._twin_k17, r, st, v, x)
        for (n, k), minimum in EXHAUSTIVE_MINIMA.items():
            r.op("exhaustive", self._exhaustive, r, n, k, minimum)
        for c in self.xcheck:
            r.op("crosscheck", self._crosscheck, r, c)

    @staticmethod
    def _template(r, st):
        t = st["template"] = r.call("constructions.cylinder_template", cylinder_template)
        if t.n != 16 or len(t.couplings) != CYLINDER_COUPLINGS:
            return f"template has n={t.n} and {len(t.couplings)} couplings"
        return None

    @staticmethod
    def _solve(r, st, limit):
        t = st["template"]
        sols = r.call("templates.solve_template", solve_template, t, limit=limit, detail=limit)
        r.counts["solutions"] += len(sols)
        r.record(*(s.colors for s in sols))
        if len(sols) != limit or len(set(sols)) != limit:
            return f"{len(sols)} solutions ({len(set(sols))} distinct), expected {limit}"
        first = st.setdefault("cylinder", sols[0])
        if sols[0] != first:
            return "first solution differs between calls"
        for s in sols:
            mono = r.call("coloring.census", census, s, detail=16).mono
            if mono != (0, 0, 0):
                return f"solution has mono {mono}"
            broken = r.call("templates.template_violations", template_violations, t, s)
            if broken:
                return f"solution violates the template: {broken[0]}"
        return None

    @staticmethod
    def _gf16(r, st):
        g = st["gf16"] = r.call("constructions.construct_gf16", construct_gf16)
        r.record(g.colors)
        mono = r.call("coloring.census", census, g, detail=16).mono
        return None if mono == (0, 0, 0) else f"GF(16) coloring has mono {mono}"

    @staticmethod
    def _assemble(r, st, base, v):
        c = st[base]
        ext = r.call("synthesis.extension_of_vertex", extension_of_vertex, c, v)
        k15 = r.call("coloring.delete_vertex", delete_vertex, c, v)
        found = r.call("synthesis.find_extensions", find_extensions, k15)
        st[base, v] = r.call("synthesis.assemble", assemble, k15, ext, ext)
        if ext not in found:
            return f"vertex {v}'s own spokes are not among the {len(found)} extensions"
        return None

    @staticmethod
    def _complete(r, st, base, v, x):
        rep = r.call("synthesis.complete_edge", complete_edge, st[base, v], x)
        c = st[base, v, x] = rep.coloring
        r.record(c.colors)
        cen = r.call("coloring.census", census, c, detail=17)
        expected = tuple(5 if y == x else 0 for y in COLORS)
        if cen.mono != expected or rep.census.mono != expected:
            return f"mono {cen.mono} (reported {rep.census.mono}), expected {expected}"
        if rep.triangles_through_new_edge != 5:
            return f"{rep.triangles_through_new_edge} triangles through the closed edge"
        if any(not {15, 16} <= {t.i, t.j, t.k} for t in cen.mono_list):
            return "a monochromatic triangle avoids the closed edge {15, 16}"
        return None

    @staticmethod
    def _twin_k17(r, st, v, x):
        rep = r.call("synthesis.twin_k17", twin_k17, x, deleted_vertex=v)
        if rep.coloring != st["gf16", v, x]:
            return "twin_k17 differs from the step-by-step GF(16) assembly"
        return None

    @staticmethod
    def _exhaustive(r, n, k, minimum):
        got, witness = r.call("search.exhaustive_min", exhaustive_min, n, k, detail=(n, k))
        r.record(n, k, got, witness.colors)
        if got != minimum:
            return f"minimum for (n={n}, k={k}) is {got}, expected {minimum}"
        total = r.call("coloring.census", census, witness, detail=n).total_mono
        return None if total == got else f"witness has {total} triangles, minimum says {got}"

    @staticmethod
    def _crosscheck(r, c):
        bit_rows.cache_clear()  # time fast_mono_counts with its bit rows built
        fast = r.call("coloring.fast_mono_counts", fast_mono_counts, c, detail=c.n)
        mono = r.call("coloring.census", census, c, detail=c.n).mono
        r.counts["triples"] += comb(c.n, 3)
        return None if fast == mono else f"fast path {fast} != census {mono} at n={c.n}"

    def close(self) -> None:
        pass


def _run_in_process(argv, stdin_text):
    """cli.main(argv) with stdin, stdout and stderr redirected; (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class CliPipe:
    """The README pipelines as serial `python -m ramsey333.cli` child processes."""

    name = "cli-pipe"
    FLOORS = ("pass", "import numpy", "import ramsey333.cli")  # python -c <floor>
    DOC_N = {"gf16": 16, "twin": 17, "k17": 17}

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        v = str(rng.randrange(16))
        self.color = rng.choice("BRY")
        restarts = "1" if small else "2"
        WORK_ROOT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="cli-pipe-", dir=WORK_ROOT)
        self.ext_path = str(Path(self._tmp.name) / "ext.txt")
        x = self.color
        # (output name, argv, output fed on stdin)
        self.steps = [
            ("gf16", ["construct", "--method", "gf16"], None),
            ("verify", ["verify", "--expect-mono", "0,0,0"], "gf16"),
            ("twin", ["twin-k17", "--color", x, "--deleted-vertex", v], None),
            ("twin_count", ["count", "--json"], "twin"),
            ("k15", ["delete-vertex", "--vertex", v], "gf16"),
            ("ext", ["extend"], "k15"),
            ("open", ["assemble", "--base", "-", "--ext-a", self.ext_path,
                      "--ext-b", self.ext_path], "k15"),
            ("k17", ["complete", "--color", x], "open"),
            ("k17_count", ["count"], "k17"),
            ("svg", ["export", "--format", "svg"], "k17"),
            ("exhaustive", ["exhaustive", "--n", "6", "--k", "2"], None),
            ("search", ["search", "--n", "17", "--k", "3", "--seed", str(rng.getrandbits(32)),
                        "--restarts", restarts, "--steps", "20000", "--sideways", "400",
                        "--json"], None),
        ]
        self.expected_mono = [5 if ch == x else 0 for ch in "BRY"]

    def warm(self) -> None:
        _run_in_process(["exhaustive", "--n", "3", "--k", "2"], None)
        g = construct_gf16()
        text = serialize(g, k=3)
        parse_document(text)
        export_figure(g, "svg")

    def _spawn(self, r, detail, argv, stdin_text=None):
        with r.tr.span("cli.spawn", detail):
            t0 = perf_counter()
            proc = subprocess.run(argv, input=stdin_text, capture_output=True, text=True,
                                  env=child_env(), cwd=self._tmp.name, timeout=CHILD_TIMEOUT_S)
            ms = (perf_counter() - t0) * 1e3
        return proc, ms

    def run_round(self, r: Round) -> None:
        out: dict[str, str] = {}
        for code in self.FLOORS:
            r.op("interpreter", self._floor, r, code)
        for name, argv, feed in self.steps:
            r.op("cli_process", self._step, r, out, name, argv, feed)
            r.op("cli_in_process", self._replay, r, out, name, argv, feed)
        for name in ("gf16", "twin", "k17"):
            r.op("round_trip", self._round_trip, r, out, name)
        r.op("figure", self._figure, r, out)

    def _floor(self, r, code):
        proc, ms = self._spawn(r, code, [sys.executable, "-c", code])
        return None if proc.returncode == 0 else f"`python -c {code!r}` exited {proc.returncode}"

    def _step(self, r, out, name, argv, feed):
        stdin_text = out[feed] if feed else None
        proc, ms = self._spawn(r, argv[0], [sys.executable, "-m", "ramsey333.cli", *argv],
                               stdin_text)
        r.cli_ms.append(ms)
        out[name] = proc.stdout
        r.record(name, proc.stdout)
        if proc.returncode != 0:
            return f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
        if name == "ext":
            Path(self.ext_path).write_text(proc.stdout)
        return self._check_output(r, out, name, proc.stdout)

    def _check_output(self, r, out, name, text):
        if name == "verify":
            return None if text.rstrip().endswith("-> OK") else f"verify printed {text!r}"
        if name == "twin_count":
            mono = json.loads(text)["mono"]
            return None if mono == self.expected_mono else f"mono {mono}, expected {self.expected_mono}"
        if name == "ext":
            lines = text.split()
            return None if len(lines) == 1 and len(lines[0]) == 15 else f"extend printed {text!r}"
        if name == "k17":
            same = parse_document(text).colors == parse_document(out["twin"]).colors
            return None if same else "completed assembly differs from twin-k17"
        if name == "k17_count":
            return None if "total=5" in text else f"count printed {text!r}"
        if name == "svg":
            lines = ET.fromstring(text).findall("{http://www.w3.org/2000/svg}line")
            return None if len(lines) == comb(17, 2) else f"SVG has {len(lines)} chords"
        if name == "exhaustive":
            return None if text.strip() == "minimum: 2" else f"exhaustive printed {text!r}"
        if name == "search":
            res = json.loads(text)
            best = EdgeColoring.from_string(17, res["colors"])
            total = r.call("coloring.census", census, best, detail=17).total_mono
            if total != res["best_count"] or res["best_count"] < RECORDS[17]:
                return f"best_count {res['best_count']}, census {total}"
            return None
        return None if text.startswith("coloring/1\n") else f"{name} printed {text[:40]!r}"

    def _replay(self, r, out, name, argv, feed):
        code, text = r.call("cli.main", _run_in_process, argv, out[feed] if feed else None,
                            detail=argv[0])
        if code != 0 or text != out[name]:
            return f"in-process {argv[0]} gave exit {code} and different output"
        return None

    def _round_trip(self, r, out, name):
        text = out[name]
        doc = r.call("serialization.parse_document", parse_document, text,
                     detail=self.DOC_N[name])
        again = r.call("serialization.serialize", serialize, doc.to_coloring(), k=doc.k,
                       meta=doc.meta, detail=doc.n)
        return None if again == text else f"{name} document does not round-trip"

    def _figure(self, r, out):
        c = parse_document(out["k17"]).to_coloring()
        svg = r.call("figures.export_figure", export_figure, c, "svg", detail="svg")
        marked = r.call("figures.export_figure", export_figure, c, "svg", highlight_mono=True,
                        detail="svg+highlight")
        if svg != out["svg"]:
            return "in-process SVG differs from the CLI's"
        thick = marked.count('stroke-width="4.5"')
        # five triangles {v, 15, 16} share the edge (15, 16): 11 distinct edges
        return None if thick == 11 else f"{thick} highlighted chords, expected 11"

    def close(self) -> None:
        self._tmp.cleanup()


WORKLOADS = {w.name: w for w in (SearchPanel, SearchWide, ExactPipeline, CliPipe)}
