"""Command-line interface: exit codes, piping, output formats."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from ramsey333 import (
    SearchParams,
    census,
    construct_gf16,
    delete_vertex,
    extension_of_vertex,
    parse_document,
    random_coloring,
    serialize,
)
from ramsey333.cli import build_parser, main

ALL_BLUE_K3 = "coloring/1\nn: 3\nk: 2\ncolors: BBB\n"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


def _gf16_k15_document():
    return serialize(delete_vertex(construct_gf16(), 0), k=3)


def _all_blue_k60(tmp_path):
    doc = tmp_path / "k60.txt"
    doc.write_text(f"coloring/1\nn: 60\nk: 3\ncolors: {'B' * comb(60, 2)}\n")
    return doc


def run(argv, stdin="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_verify_pipe(monkeypatch, capsys):
    code, doc, _ = run(["construct", "--method", "gf16"], capsys=capsys)
    assert code == 0
    code, out, _ = run(["verify", "--expect-mono", "0,0,0"], stdin=doc,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "OK" in out


def test_construct_cylinder(monkeypatch, capsys):
    code, doc, _ = run(["construct", "--method", "cylinder"], capsys=capsys)
    assert code == 0
    code, out, _ = run(["count", "--per-color"], stdin=doc,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.strip() == "(0,0,0)"


def test_construct_cylinder_matches_golden(capsys):
    # the document the console script must reproduce byte for byte
    code, doc, _ = run(["construct", "--method", "cylinder"], capsys=capsys)
    assert code == 0
    assert doc == (Path(__file__).parent / "golden" / "cylinder_k16.txt").read_text()


def test_verify_failure_exit_code(monkeypatch, capsys):
    code, out, _ = run(["verify", "--expect-mono", "0,0,0"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert "FAIL" in out


def test_twin_k17_count_pipe(monkeypatch, capsys):
    code, doc, _ = run(["twin-k17", "--color", "R"], capsys=capsys)
    assert code == 0
    code, out, _ = run(["count", "--per-color"], stdin=doc,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.strip() == "(0,5,0)"


def test_twin_k17_count_list_matches_golden(monkeypatch, capsys):
    # the listing the console script must reproduce byte for byte
    code, doc, _ = run(["twin-k17", "--color", "B"], capsys=capsys)
    assert code == 0
    code, out, _ = run(["count", "--list"], stdin=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "twin_k17_B_count.txt").read_text()


def test_count_list_and_json(monkeypatch, capsys):
    code, out, _ = run(["count", "--json", "--list"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mono"] == [1, 0, 0]
    assert payload["mono_triangles"] == [{"vertices": [0, 1, 2], "color": "B"}]


def test_count_human_output_and_list(monkeypatch, capsys):
    code, out, _ = run(["count"], stdin=ALL_BLUE_K3, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out == "n: 3\nmono: B=1 R=0 Y=0 total=1\nbichromatic: 0\nrainbow: 0\n"
    code, listed, _ = run(["count", "--list"], stdin=ALL_BLUE_K3,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert listed == out + "0 1 2 B\n"


def test_verify_json(monkeypatch, capsys):
    code, out, _ = run(["verify", "--json", "--expect-mono", "1,0,0"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"mono": [1, 0, 0], "expected": [1, 0, 0], "ok": True}
    code, out, _ = run(["verify", "--json"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"mono": [1, 0, 0], "expected": [0, 0, 0], "ok": False}


@pytest.mark.parametrize("triple, message", [
    ("1,2", "three comma-separated counts"),
    ("a,b,c", "counts must be integers"),
])
def test_bad_expect_mono_exit_code(monkeypatch, capsys, triple, message):
    code, out, err = run(["verify", "--expect-mono", triple], stdin=ALL_BLUE_K3,
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_extend_json(monkeypatch, capsys):
    code, out, _ = run(["extend", "--json"], stdin=_gf16_k15_document(),
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    spokes = extension_of_vertex(construct_gf16(), 0)
    assert payload == {"count": 1, "extensions": ["".join("BRY"[x] for x in spokes)]}


def test_malformed_document_exit_code(monkeypatch, capsys):
    code, _, err = run(["count"], stdin="coloring/1\nn: 3\nk: 3\ncolors: B\n",
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "error" in err


def test_budget_exit_code(tmp_path, monkeypatch, capsys):
    # (7, 2) and (6, 3) are the largest instances the budget admits;
    # 2^C(200,2) has over 4300 digits
    for n, k in (("8", "2"), ("7", "3"), ("9", "3"), ("200", "2"), ("135", "3")):
        code, _, err = run(["exhaustive", "--n", n, "--k", k], capsys=capsys)
        assert code == 3
        assert "exceed" in err
    # n = 256 is the largest climb the edge budget admits; refused before any draw
    code, out, err = run(["search", "--n", "257", "--k", "3", "--seed", "1"], capsys=capsys)
    assert code == 3
    assert out == ""
    assert "exceed" in err
    # 10^9 restarts, long or one step each, are over the work budget before any climb
    monkeypatch.setattr("ramsey333.search._climb", None)
    for extra in (["--n", "17"], ["--n", "2", "--steps", "1"]):
        code, out, err = run(["search", "--k", "3", "--seed", "1",
                              "--restarts", "1000000000", *extra], capsys=capsys)
        assert code == 3
        assert out == ""
        assert "exceed the budget of 2147483648" in err
    # n = 294 is the largest census the triple budget admits
    k295 = tmp_path / "k295.txt"
    k295.write_text("coloring/1\nn: 295\nk: 3\ncolors: " + "B" * (295 * 294 // 2) + "\n")
    for argv in (["count"], ["verify", "--expect-mono", "0,0,0"]):
        code, out, err = run(argv + [str(k295)], capsys=capsys)
        assert code == 3
        assert out == ""
        assert "C(n,3) triples exceed the budget of 4194304" in err
    # highlighting reads bit rows, not the census: every chord of K_295 is thick
    code, out, err = run(["export", str(k295), "--format", "svg", "--highlight-mono"],
                         capsys=capsys)
    assert code == 0, err
    assert out.count("<line ") == out.count('stroke-width="4.5"') == 43365


def test_exhaustive_json(capsys):
    code, out, _ = run(["exhaustive", "--n", "6", "--k", "2", "--json"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["minimum"] == 2


def test_exhaustive_human_output_and_out(tmp_path, capsys):
    code, out, _ = run(["exhaustive", "--n", "5", "--k", "2"], capsys=capsys)
    assert code == 0
    assert out == "minimum: 0\n"
    witness = tmp_path / "witness.txt"
    code, out, _ = run(["exhaustive", "--n", "5", "--k", "2", "--out", str(witness)],
                       capsys=capsys)
    assert code == 0
    assert out == "minimum: 0\n"
    assert parse_document(witness.read_text()).meta == {"method": "exhaustive", "k": "2"}
    code, out, _ = run(["verify", str(witness), "--expect-mono", "0,0,0"], capsys=capsys)
    assert code == 0
    assert "OK" in out


def test_extensions_of_the_exhaustive_witness_match_golden(tmp_path, capsys):
    # both spoke searches in one file: exhaustive_min's first witness for
    # (6, 3), then every extension of it in find_extensions' order
    witness = tmp_path / "h6.txt"
    assert main(["exhaustive", "--n", "6", "--k", "3", "--out", str(witness)]) == 0
    capsys.readouterr()
    code, out, _ = run(["extend", str(witness)], capsys=capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "exhaustive_6_3_extend.txt").read_text()


def test_extend_on_triangled_host_exit_code(monkeypatch, capsys):
    code, _, err = run(["extend"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert "monochromatic" in err


def test_full_assembly_pipeline(tmp_path, capsys):
    g16 = tmp_path / "g16.txt"
    k15 = tmp_path / "k15.txt"
    ext = tmp_path / "ext.txt"
    tmpl = tmp_path / "tmpl.txt"
    out17 = tmp_path / "k17.txt"

    assert main(["construct", "--method", "gf16", "--out", str(g16)]) == 0
    assert main(["delete-vertex", str(g16), "--vertex", "0", "--out", str(k15)]) == 0
    code = main(["extend", str(k15)])
    lines, _ = capsys.readouterr()
    assert code == 0
    ext.write_text(lines.splitlines()[0] + "\n")
    assert main(["assemble", "--base", str(k15), "--ext-a", str(ext),
                 "--ext-b", str(ext), "--out", str(tmpl)]) == 0
    assert "?" in tmpl.read_text()
    assert main(["complete", str(tmpl), "--color", "Y", "--out", str(out17)]) == 0
    code = main(["verify", str(out17), "--expect-mono", "0,0,5"])
    out, _ = capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("bad, message", [
    (None, "exactly one spoke string, got 2 lines"),
    ("X", "not a color character: 'X'"),  # one line, one character outside B/R/Y
    ("\u00c9", "not a color character: '\u00c9'"),
], ids=["two-lines", "X", "E-acute"])
def test_assemble_refuses_a_two_line_extension_file(tmp_path, capsys, bad, message):
    k15 = tmp_path / "k15.txt"
    ext = tmp_path / "ext.txt"
    k15.write_text(_gf16_k15_document())
    line = "".join("BRY"[x] for x in extension_of_vertex(construct_gf16(), 0))
    if bad is None:
        ext.write_text(line + "\n" + line + "\n")
    else:
        ext.write_text(line[:7] + bad + line[8:] + "\n")
    code, out, err = run(["assemble", "--base", str(k15), "--ext-a", str(ext),
                          "--ext-b", str(ext)], capsys=capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_complete_json(tmp_path, capsys):
    g16 = tmp_path / "g16.txt"
    k15 = tmp_path / "k15.txt"
    ext = tmp_path / "ext.txt"
    tmpl = tmp_path / "tmpl.txt"
    assert main(["construct", "--method", "gf16", "--out", str(g16)]) == 0
    assert main(["delete-vertex", str(g16), "--vertex", "0", "--out", str(k15)]) == 0
    main(["extend", str(k15)])  # the GF(16) K_15 has exactly one extension
    line, _ = capsys.readouterr()
    ext.write_text(line)
    main(["assemble", "--base", str(k15), "--ext-a", str(ext), "--ext-b", str(ext),
          "--out", str(tmpl)])
    capsys.readouterr()
    code = main(["complete", str(tmpl), "--color", "B", "--json"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["mono"] == [5, 0, 0]
    assert payload["triangles_through_new_edge"] == 5

    out17 = tmp_path / "k17.txt"
    code = main(["complete", str(tmpl), "--color", "B", "--json", "--out", str(out17)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == payload
    assert main(["verify", str(out17), "--expect-mono", "5,0,0"]) == 0
    capsys.readouterr()


def test_complete_rejects_full_coloring(monkeypatch, capsys):
    code, _, err = run(["complete", "--color", "B"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


def test_delete_vertex_out_of_range(monkeypatch, capsys):
    code, _, err = run(["delete-vertex", "--vertex", "9"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


def test_search_json(capsys):
    code, out, _ = run(["search", "--n", "6", "--k", "2", "--seed", "1",
                        "--restarts", "4", "--steps", "300", "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["best_count"] == 2
    assert len(payload["trace"]) == 4


def test_readme_search_matches_golden(capsys):
    # the README's n = 17 search, whole trajectory pinned by its JSON
    code, out, _ = run(["search", "--n", "17", "--k", "3", "--seed", "7", "--restarts", "40",
                        "--steps", "20000", "--sideways", "400", "--json"], capsys=capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "search_17_3_seed7.json").read_text()


def test_search_human_and_out(tmp_path, capsys):
    best = tmp_path / "best.txt"
    code = main(["search", "--n", "5", "--k", "2", "--seed", "2",
                 "--restarts", "3", "--steps", "200", "--out", str(best)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "best_count: 0" in out
    assert main(["verify", str(best), "--expect-mono", "0,0,0"]) == 0
    capsys.readouterr()
    meta = parse_document(best.read_text()).meta
    provenance = (meta["seed"], meta["restarts"], meta["steps"], meta["sideways"])
    assert provenance == ("2", "3", "200", "50")


def test_export_svg_pipe(monkeypatch, capsys):
    code, doc, _ = run(["twin-k17", "--color", "B"], capsys=capsys)
    code, svg, _ = run(["export", "--format", "svg", "--highlight-mono"], stdin=doc,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert svg.count("<line ") == 136
    assert svg.count('stroke-width="4.5"') == 11


def test_export_dot(monkeypatch, capsys):
    code, dot, _ = run(["export", "--format", "dot"], stdin=ALL_BLUE_K3,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert dot.count('color="blue"') == 3


def test_export_dot_refuses_highlighting(monkeypatch, capsys):
    code, out, err = run(["export", "--format", "dot", "--highlight-mono"], stdin=ALL_BLUE_K3,
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert "SVG-only" in err


# every subcommand, its required arguments, and every destination it fills
# with the value or default it parses to
PARSED = {
    "construct": (["--method", "gf16"], {"method": "gf16", "out": None}),
    "verify": ([], {"file": "-", "expect_mono": "0,0,0", "json": False}),
    "count": ([], {"file": "-", "per_color": False, "list": False, "json": False}),
    "delete-vertex": (["--vertex", "0"], {"file": "-", "vertex": 0, "out": None}),
    "extend": ([], {"file": "-", "json": False}),
    "assemble": (["--base", "b", "--ext-a", "a", "--ext-b", "e"],
                 {"base": "b", "ext_a": "a", "ext_b": "e", "out": None}),
    "complete": (["--color", "B"], {"file": "-", "color": "B", "out": None, "json": False}),
    "twin-k17": (["--color", "R"], {"color": "R", "deleted_vertex": 0, "out": None}),
    "search": (["--n", "5", "--k", "2", "--seed", "1"],
               {"n": 5, "k": 2, "seed": 1, "restarts": 20, "steps": 2000, "sideways": 50,
                "json": False, "out": None}),
    "exhaustive": (["--n", "5", "--k", "2"], {"n": 5, "k": 2, "json": False, "out": None}),
    "export": (["--format", "svg"],
               {"file": "-", "format": "svg", "highlight_mono": False, "out": None}),
}

# the arguments several subcommands share, each as a destination and a use of it
SHARED = {"file": ["x"], "out": ["--out", "x"], "json": ["--json"], "color": ["--color", "B"]}


@pytest.mark.parametrize("sub", sorted(PARSED))
def test_subcommand_arguments_are_pinned(sub):
    required, expected = PARSED[sub]
    parsed = vars(build_parser().parse_args([sub, *required]))
    del parsed["func"]
    assert parsed == {"command": sub, **expected}


def test_search_defaults_are_search_params_defaults():
    _, expected = PARSED["search"]
    p = SearchParams(n=5, k=2, seed=1)
    assert (expected["restarts"], expected["steps"], expected["sideways"]) == (
        p.restarts, p.steps_per_restart, p.sideways_limit)


@pytest.mark.parametrize("sub, dest", [(sub, dest) for sub in sorted(PARSED)
                                       for dest in SHARED if dest not in PARSED[sub][1]])
def test_subcommand_refuses_a_shared_argument_it_does_not_take(sub, dest, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([sub, *PARSED[sub][0], *SHARED[dest]])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--method", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_file_exit_code(capsys):
    code, _, err = run(["count", "/nonexistent/path.txt"], capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("flags", [["--list"], ["--json", "--list"]])
def test_count_list_into_a_closed_pipe_exits_quietly(tmp_path, flags):
    # `count --list | head -1`: the reader leaving is not bad input (exit 2).
    # The JSON is one 1.4 MB line, so the reader takes one byte, not one line.
    doc = _all_blue_k60(tmp_path)
    proc = subprocess.Popen([sys.executable, "-m", "ramsey333.cli", "count", str(doc), *flags],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    assert proc.stdout.read(1)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only how many lines were written to it."""

    lines = 0

    def write(self, s):
        self.lines += s.count("\n")
        return len(s)


@pytest.mark.parametrize("flags, lines", [(["--list"], 4 + comb(60, 3)),
                                          (["--json", "--list"], 1)], ids=["list", "json-list"])
def test_count_list_streams_in_constant_memory(tmp_path, flags, lines):
    # an all-blue K_60 has C(60,3) = 34,220 triangles; holding them all before
    # printing took 3.5 MB (--list) and 13.6 MB (--json --list) under tracemalloc
    doc = _all_blue_k60(tmp_path)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["count", str(doc), *flags]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == lines
    assert peak < 1 << 20


def test_count_json_list_is_the_bytes_of_one_dumps(tmp_path, capsys):
    # the streamed JSON equals one json.dumps of the whole payload, empty list included
    colorings = [construct_gf16()] + [random_coloring(n, k, seed) for seed in range(4)
                                      for n in (3, 4, 7, 11) for k in (2, 3)]
    doc = tmp_path / "c.txt"
    empty = 0
    for c in colorings:
        cen = census(c)
        triangles = [{"vertices": [t.i, t.j, t.k], "color": t.color.char} for t in cen.mono_list]
        empty += not triangles
        payload = {"n": c.n, "mono": list(cen.mono), "total_mono": cen.total_mono,
                   "bichromatic": cen.bichromatic, "rainbow": cen.rainbow,
                   "mono_triangles": triangles}
        doc.write_text(serialize(c, k=3))
        assert run(["count", str(doc), "--json", "--list"], capsys=capsys) == (
            0, json.dumps(payload) + "\n", "")
    assert 0 < empty < len(colorings)


def test_in_process_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # main builds its parser once per process; a parser tree per call left 412
    # argparse objects in reference cycles, which only the cycle collector frees
    f = {name: str(tmp_path / name) for name in ("g16", "k15", "ext", "open17", "k17")}
    spokes = extension_of_vertex(construct_gf16(), 0)
    Path(f["ext"]).write_text("".join("BRY"[x] for x in spokes) + "\n")
    calls = (
        ["construct", "--method", "gf16", "--out", f["g16"]],
        ["verify", f["g16"]],
        ["twin-k17", "--color", "B", "--out", f["k17"]],
        ["count", f["k17"], "--json", "--list"],
        ["delete-vertex", f["g16"], "--vertex", "0", "--out", f["k15"]],
        ["extend", f["k15"]],
        ["assemble", "--base", f["k15"], "--ext-a", f["ext"], "--ext-b", f["ext"],
         "--out", f["open17"]],
        ["complete", f["open17"], "--color", "B"],
        ["export", f["k17"], "--format", "svg", "--highlight-mono"],
        ["exhaustive", "--n", "6", "--k", "2"],
        ["search", "--n", "6", "--k", "2", "--seed", "1", "--restarts", "2", "--json"],
    )
    assert main(["exhaustive", "--n", "3", "--k", "2"]) == 0
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            assert main(argv) == 0
            assert gc.collect() == 0, argv[0]
    finally:
        gc.enable()
    capsys.readouterr()


SEARCH = ["search", "--n", "6", "--k", "2", "--seed", "1", "--steps", "300", "--json"]


def test_in_process_calls_carry_no_state(capsys):
    # one parser serves every call, so an option given to one call, or a call
    # refused mid-parse, must not reach the next: each matches a fresh process
    proc = subprocess.run([sys.executable, "-m", "ramsey333.cli", *SEARCH], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=120)
    fresh = (proc.returncode, proc.stdout, "")
    assert run([*SEARCH, "--restarts", "3"], capsys=capsys)[0] == 0
    assert run(SEARCH, capsys=capsys) == fresh
    with pytest.raises(SystemExit) as exc:
        main([*SEARCH, "--restarts", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert run(SEARCH, capsys=capsys) == fresh
