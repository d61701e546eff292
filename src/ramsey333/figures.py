"""Figure export: DOT edge lists and SVG chord diagrams.

The SVG layout is fixed so golden-image comparisons are byte-stable: the
vertices sit on a regular n-gon with vertex 0 at the top, numbering runs
clockwise, and coordinates are formatted with two decimals.  Every edge is
one <line> chord; highlighting monochromatic triangles thickens the stroke
of each chord whose ends share a neighbour of its color (read from bit
rows) instead of adding elements, so the chord count is always C(n, 2).
"""

from __future__ import annotations

import math
from itertools import combinations

from .coloring import Color, EdgeColoring, bit_rows

DOT_COLORS = {Color.BLUE: "blue", Color.RED: "red", Color.YELLOW: "yellow"}
SVG_COLORS = {Color.BLUE: "#1a6fd4", Color.RED: "#d42a2a", Color.YELLOW: "#d4a017"}

_SIZE = 640.0
_RADIUS = 280.0
_BASE_WIDTH = "1.5"
_HIGHLIGHT_WIDTH = "4.5"


def export_figure(c: EdgeColoring, format: str = "svg", highlight_mono: bool = False) -> str:
    """Render a coloring as a DOT or SVG document string.

    `highlight_mono` thickens the chords of monochromatic triangles; it is
    SVG-only, and asking for it with DOT raises ValueError.
    """
    if format == "dot":
        if highlight_mono:
            raise ValueError("highlighting is SVG-only; use format 'svg'")
        return _export_dot(c)
    if format == "svg":
        return _export_svg(c, highlight_mono)
    raise ValueError(f"unknown figure format: {format!r} (expected 'dot' or 'svg')")


def _export_dot(c: EdgeColoring) -> str:
    lines = [f"graph k{c.n} {{", "  node [shape=circle];"]
    for (i, j), b in zip(combinations(range(c.n), 2), c.colors):
        lines.append(f'  {i} -- {j} [color="{DOT_COLORS[b]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vertex_positions(n: int) -> list[tuple[float, float]]:
    cx = cy = _SIZE / 2
    pos = []
    for v in range(n):
        angle = -math.pi / 2 + 2 * math.pi * v / n  # vertex 0 at top, clockwise
        pos.append((cx + _RADIUS * math.cos(angle), cy + _RADIUS * math.sin(angle)))
    return pos


def _export_svg(c: EdgeColoring, highlight_mono: bool) -> str:
    n = c.n
    pos = _vertex_positions(n)
    rows = bit_rows(c) if highlight_mono else None

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<rect width="{_SIZE:.0f}" height="{_SIZE:.0f}" fill="white"/>',
    ]
    for (i, j), b in zip(combinations(range(n), 2), c.colors):
        (x1, y1), (x2, y2) = pos[i], pos[j]
        width = _HIGHLIGHT_WIDTH if rows and rows[b][i] & rows[b][j] else _BASE_WIDTH
        out.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{SVG_COLORS[b]}" stroke-width="{width}"/>'
        )
    for v, (x, y) in enumerate(pos):
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="10" fill="#222"/>')
        out.append(
            f'<text x="{x:.2f}" y="{y:.2f}" dy="3.5" text-anchor="middle" '
            f'font-size="10" fill="white">{v}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
