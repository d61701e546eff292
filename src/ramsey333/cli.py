"""Command-line interface.

Subcommands cover the whole pipeline: construct the 16-vertex colorings,
verify and count triangles, delete/extend vertices, assemble and complete
17-vertex colorings, run the search and the exhaustive oracle, and export
figures.  Every FILE argument accepts '-' (or is omitted) for stdin, and
--out defaults to stdout, so commands compose in pipes:

    ramsey333 construct --method gf16 | ramsey333 verify --expect-mono 0,0,0

Exit codes: 0 success/verified, 1 verification failed, 2 invalid input or
format, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .coloring import _CHARS, _TO_CHARS, _color_bytes, _mono_triangles, census, delete_vertex
from .constructions import construct_gf16, cylinder_template
from .errors import BudgetError, FormatError, NotTriangleFreeError
from .figures import export_figure
from .search import SearchParams, exhaustive_min, minimize
from .serialization import parse_document, serialize, serialize_template
from .synthesis import assemble, complete_edge, find_extensions, twin_k17
from .templates import solve_template

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OVER_BUDGET = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_mono_triple(s: str) -> tuple[int, int, int]:
    parts = s.split(",")
    if len(parts) != 3:
        raise FormatError(f"expected three comma-separated counts, got {s!r}")
    try:
        b, r, y = (int(p) for p in parts)
    except ValueError:
        raise FormatError(f"counts must be integers: {s!r}") from None
    return b, r, y


def _load_coloring(path: str):
    doc = parse_document(_read(path))
    return doc.to_coloring(), doc


def _load_extension(path: str) -> bytes:
    lines = [ln for ln in _read(path).splitlines() if ln.strip()]
    if len(lines) != 1:
        raise FormatError(
            f"extension file must contain exactly one spoke string, got {len(lines)} lines"
        )
    return _color_bytes(lines[0].strip())


def cmd_construct(args) -> int:
    if args.method == "gf16":
        c = construct_gf16()
    else:
        c = solve_template(cylinder_template(), limit=1)[0]
    _write(serialize(c, k=3, meta={"method": args.method}), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    c, _ = _load_coloring(args.file)
    expected = _parse_mono_triple(args.expect_mono)
    cen = census(c)
    ok = cen.mono == expected
    if args.json:
        print(json.dumps({"mono": list(cen.mono), "expected": list(expected), "ok": ok}))
    else:
        verdict = "OK" if ok else "FAIL"
        print(f"mono {cen.mono} expected {expected} -> {verdict}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_count(args) -> int:
    c, _ = _load_coloring(args.file)
    cen = census(c)
    if args.json:
        text = json.dumps({
            "n": c.n,
            "mono": list(cen.mono),
            "total_mono": cen.total_mono,
            "bichromatic": cen.bichromatic,
            "rainbow": cen.rainbow,
        })
        if args.list:  # streamed, byte for byte what json.dumps gives with this last key
            items = (f'{{"vertices": [{t.i}, {t.j}, {t.k}], "color": "{_CHARS[t.color]}"}}'
                     for t in _mono_triangles(c))
            sys.stdout.write(text[:-1] + ', "mono_triangles": [' + next(items, ""))
            sys.stdout.writelines(", " + item for item in items)
            text = "]}"
        print(text)
        return EXIT_OK
    if args.per_color:
        print(f"({cen.mono[0]},{cen.mono[1]},{cen.mono[2]})")
    else:
        print(f"n: {c.n}")
        print(f"mono: B={cen.mono[0]} R={cen.mono[1]} Y={cen.mono[2]} total={cen.total_mono}")
        print(f"bichromatic: {cen.bichromatic}")
        print(f"rainbow: {cen.rainbow}")
    if args.list:
        sys.stdout.writelines(f"{t.i} {t.j} {t.k} {_CHARS[t.color]}\n" for t in _mono_triangles(c))
    return EXIT_OK


def cmd_delete_vertex(args) -> int:
    c, doc = _load_coloring(args.file)
    smaller = delete_vertex(c, args.vertex)
    meta = dict(doc.meta)
    meta["deleted_vertex"] = str(args.vertex)
    _write(serialize(smaller, k=doc.k, meta=meta), args.out)
    return EXIT_OK


def cmd_extend(args) -> int:
    c, _ = _load_coloring(args.file)
    extensions = find_extensions(c)
    spokes = [e.translate(_TO_CHARS).decode() for e in extensions]
    if args.json:
        print(json.dumps({"count": len(extensions), "extensions": spokes}))
    else:
        sys.stdout.writelines(line + "\n" for line in spokes)
    return EXIT_OK


def cmd_assemble(args) -> int:
    base, doc = _load_coloring(args.base)
    ea = _load_extension(args.ext_a)
    eb = _load_extension(args.ext_b)
    template = assemble(base, ea, eb)
    meta = dict(doc.meta)
    meta["method"] = "assemble"
    _write(serialize_template(template, meta=meta), args.out)
    return EXIT_OK


def cmd_complete(args) -> int:
    doc = parse_document(_read(args.file))
    template = doc.to_template()
    report = complete_edge(template, _CHARS.index(args.color))
    meta = dict(doc.meta)
    meta["added_edge_color"] = report.added_edge_color.char
    document = serialize(report.coloring, k=3, meta=meta)
    if args.json:
        print(json.dumps({
            "added_edge_color": report.added_edge_color.char,
            "mono": list(report.census.mono),
            "triangles_through_new_edge": report.triangles_through_new_edge,
            "colors": report.coloring.color_string(),
        }))
    if args.out or not args.json:
        _write(document, args.out)
    return EXIT_OK


def cmd_twin_k17(args) -> int:
    report = twin_k17(_CHARS.index(args.color), deleted_vertex=args.deleted_vertex)
    meta = {
        "method": "twin-k17",
        "color": report.added_edge_color.char,
        "deleted_vertex": str(args.deleted_vertex),
    }
    _write(serialize(report.coloring, k=3, meta=meta), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    params = SearchParams(
        n=args.n,
        k=args.k,
        seed=args.seed,
        restarts=args.restarts,
        steps_per_restart=args.steps,
        sideways_limit=args.sideways,
    )
    result = minimize(params)
    cen = census(result.best)
    if args.json:
        print(json.dumps({
            "best_count": result.best_count,
            "mono": list(cen.mono),
            "evaluations": result.evaluations,
            "trace": list(result.trace),
            "colors": result.best.color_string(),
        }))
    else:
        print(f"best_count: {result.best_count}")
        print(f"mono: B={cen.mono[0]} R={cen.mono[1]} Y={cen.mono[2]}")
        print(f"restarts: {len(result.trace)}  evaluations: {result.evaluations}")
    if args.out:
        meta = {"method": "search", "seed": str(args.seed),
                "restarts": str(args.restarts), "steps": str(args.steps),
                "sideways": str(args.sideways)}
        _write(serialize(result.best, k=args.k, meta=meta), args.out)
    return EXIT_OK


def cmd_exhaustive(args) -> int:
    minimum, witness = exhaustive_min(args.n, args.k)
    if args.json:
        print(json.dumps({"minimum": minimum, "colors": witness.color_string()}))
    else:
        print(f"minimum: {minimum}")
    if args.out:
        meta = {"method": "exhaustive", "k": str(args.k)}
        _write(serialize(witness, k=args.k, meta=meta), args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    c, _ = _load_coloring(args.file)
    _write(export_figure(c, format=args.format, highlight_mono=args.highlight_mono), args.out)
    return EXIT_OK


@functools.cache  # built once per process; each main() call parses into a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey333",
        description="3-edge-colorings of complete graphs with few monochromatic triangles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments several subcommands share, each declared once
    file, out, as_json, color = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    file.add_argument("file", nargs="?", default="-")
    out.add_argument("--out")
    as_json.add_argument("--json", action="store_true")
    color.add_argument("--color", choices=list(_CHARS), required=True)

    def add(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    p = add("construct", cmd_construct, "emit a triangle-free 16-vertex coloring", out)
    p.add_argument("--method", choices=["gf16", "cylinder"], required=True)

    p = add("verify", cmd_verify, "check census against expected mono counts", file, as_json)
    p.add_argument("--expect-mono", default="0,0,0", metavar="B,R,Y")

    p = add("count", cmd_count, "print the triangle census", file, as_json)
    p.add_argument("--per-color", action="store_true")
    p.add_argument("--list", action="store_true")

    p = add("delete-vertex", cmd_delete_vertex, "remove one vertex and its edges", file, out)
    p.add_argument("--vertex", type=int, required=True)

    add("extend", cmd_extend, "list triangle-free one-vertex extensions", file, as_json)

    p = add("assemble", cmd_assemble, "mount two extensions over a shared 15-vertex core", out)
    p.add_argument("--base", required=True)
    p.add_argument("--ext-a", required=True)
    p.add_argument("--ext-b", required=True)

    add("complete", cmd_complete, "close the open edge of an assembled template",
        file, color, out, as_json)

    p = add("twin-k17", cmd_twin_k17, "17-vertex coloring with five one-color triangles",
            color, out)
    p.add_argument("--deleted-vertex", type=int, default=0)

    p = add("search", cmd_search, "restart hill climbing on the mono count", as_json, out)
    defaults = SearchParams._field_defaults
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=defaults["restarts"])
    p.add_argument("--steps", type=int, default=defaults["steps_per_restart"])
    p.add_argument("--sideways", type=int, default=defaults["sideways_limit"])

    p = add("exhaustive", cmd_exhaustive, "exact minimum by full enumeration (tiny n)",
            as_json, out)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("export", cmd_export, "render a coloring as DOT or SVG", file, out)
    p.add_argument("--format", choices=["dot", "svg"], required=True)
    p.add_argument("--highlight-mono", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotTriangleFreeError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVER_BUDGET
    except BrokenPipeError:  # the reader left (`| head`); stdout to devnull so the exit flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
