"""DOT and SVG export."""

import random
from pathlib import Path

import pytest

from ramsey333 import (
    Color,
    EdgeColoring,
    construct_gf16,
    export_figure,
    random_coloring,
    twin_k17,
)


def test_dot_k3_all_blue():
    dot = export_figure(EdgeColoring.from_string(3, "BBB"), format="dot")
    edge_lines = [ln for ln in dot.splitlines() if "--" in ln]
    assert len(edge_lines) == 3
    assert all('color="blue"' in ln for ln in edge_lines)
    assert dot.startswith("graph k3 {")


def test_unknown_format():
    with pytest.raises(ValueError):
        export_figure(EdgeColoring.from_string(3, "BBB"), format="png")


def test_dot_refuses_highlighting():
    with pytest.raises(ValueError, match="SVG-only"):
        export_figure(EdgeColoring.from_string(3, "BBB"), format="dot", highlight_mono=True)


def test_chord_count_is_edge_count():
    rng = random.Random(8)
    for n in (3, 7, 12, 17):
        c = random_coloring(n, 3, rng.getrandbits(64))
        svg = export_figure(c, format="svg")
        assert svg.count("<line ") == n * (n - 1) // 2
        dot = export_figure(c, format="dot")
        assert dot.count(" -- ") == n * (n - 1) // 2


def test_svg_is_deterministic():
    c = random_coloring(9, 3, 77)
    assert export_figure(c, format="svg") == export_figure(c, format="svg")


def test_twin_k17_highlighting():
    rep = twin_k17(Color.BLUE)
    svg = export_figure(rep.coloring, format="svg", highlight_mono=True)
    lines = [ln for ln in svg.splitlines() if ln.startswith("<line ")]
    assert len(lines) == 136
    thick = [ln for ln in lines if 'stroke-width="4.5"' in ln]
    # five triangles {v, 15, 16} share the new edge: 2*5 spokes + 1 shared edge
    assert len(thick) == 11
    plain = export_figure(rep.coloring, format="svg")
    assert all('stroke-width="1.5"' in ln for ln in plain.splitlines()
               if ln.startswith("<line "))


def test_dot_matches_golden_file():
    # the DOT counterpart of the demo SVGs: edges in ordinal order, byte for byte
    golden = (Path(__file__).parent / "golden" / "gf16_k16.dot").read_bytes()
    assert export_figure(construct_gf16(), format="dot").encode() == golden


@pytest.mark.parametrize("name, make, highlight_mono", [
    ("gf16_k16.svg", construct_gf16, False),
    ("k17_five_triangles.svg", lambda: twin_k17(Color.BLUE).coloring, True),
])
def test_svg_matches_demo_figure(name, make, highlight_mono):
    # the tracked demo figures pin the byte-stable SVG output
    golden = (Path(__file__).parent.parent / "demos" / name).read_bytes()
    assert export_figure(make(), format="svg", highlight_mono=highlight_mono).encode() == golden
