"""Seventeen-vertex assembly from a shared triangle-free K_15.

Delete a vertex from a triangle-free K_16, enumerate the spoke colorings
that extend the remaining K_15 back to a triangle-free K_16, then mount two
such extensions side by side: vertices 0-14 form the shared K_15, vertices
15 and 16 carry the two extensions, and only the edge {15, 16} is left open.
Every triangle avoiding that edge lies inside one of the two triangle-free
16-vertex restrictions, so after closing the edge with color x the
monochromatic triangles are exactly {v, 15, 16} for the shared vertices v
whose two spokes both carry x.  With twin extensions that overlap is a full
spoke color class: five triangles, all in the chosen color.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import (
    Color,
    EdgeColoring,
    TriangleCensus,
    _byte_items,
    _check_int,
    _color,
    _edge_at,
    _gather,
    _spoke_dfs,
    bit_rows,
    census,
    delete_vertex,
    fast_mono_counts,
)
from .constructions import construct_gf16
from .errors import NotTriangleFreeError
from .templates import FULL, ColoringTemplate


class AssemblyReport(NamedTuple):
    """Result of closing the open edge of an assembled template; its coloring is the census's."""

    added_edge_color: Color
    census: TriangleCensus
    triangles_through_new_edge: int

    @property
    def coloring(self) -> EdgeColoring:
        return self.census.coloring


def extension_of_vertex(c: EdgeColoring, v: int) -> bytes:
    """The spoke colors vertex v already has in c, indexed like delete_vertex(c, v)."""
    _check_int(v, 0, c.n, "vertex {} out of range for n={} (an int, not a bool)", v, c.n)
    return _gather(c, ((u, v) for u in range(c.n) if u != v))


def _require_triangle_free(c: EdgeColoring, prefix: str) -> None:
    """Raise NotTriangleFreeError "<prefix> <count> monochromatic triangle(s)" if c has any."""
    mono = sum(fast_mono_counts(c))
    if mono:
        raise NotTriangleFreeError(f"{prefix} {mono} monochromatic triangle(s)")


def find_extensions(c: EdgeColoring) -> list[bytes]:
    """All spoke colorings whose one-vertex extension of c stays triangle-free.

    Each is bytes indexed by host vertex, in the order of coloring._spoke_dfs
    with colors B < R < Y.  The host must be triangle-free.
    """
    _require_triangle_free(c, "host coloring contains")
    out: list[bytes] = []

    def leaf(spokes: bytearray, count: int) -> int:
        out.append(bytes(spokes))
        return 1

    _spoke_dfs(bit_rows(c), c.n, (0, 1, 2), 1, leaf)
    return out


def extend_with(c: EdgeColoring, e: bytes) -> EdgeColoring:
    """K_{n+1} with the new vertex appended as index n; e[i] colors its spoke to i."""
    if len(e) != c.n:
        raise ValueError(f"extension length {len(e)} does not match n={c.n}")
    spokes = _byte_items(c.n, e, "spoke", b"\x00\x01\x02", "0 (B), 1 (R) or 2 (Y)", c.n, "")
    n, cols = c.n, c.colors
    out = bytearray()
    o = 0  # ordinal of (i, i + 1) in K_n
    for i, x in enumerate(spokes):
        # Row i of K_{n+1} is row i of K_n, edges (i, i+1) .. (i, n-1), then the new edge (i, n).
        out += cols[o : o + n - 1 - i]
        out.append(x)
        o += n - 1 - i
    return EdgeColoring(n + 1, out)


def assemble(k15: EdgeColoring, ea: bytes, eb: bytes) -> ColoringTemplate:
    """Template on 17 vertices: shared K_15, two extended vertices, one open edge.

    Vertices 0-14 copy k15, vertex 15 is colored by ea, vertex 16 by eb, and
    edge (15, 16) keeps the full domain.  Both 16-vertex restrictions are
    checked triangle-free up front.
    """
    if k15.n != 15:
        raise ValueError(f"shared core must have 15 vertices, got {k15.n}")
    _require_triangle_free(k15, "shared K15 contains")
    for name, ext in (("ea", ea), ("eb", eb)):
        if len(ext) != 15:
            raise ValueError(f"extension {name} has length {len(ext)}, need 15")
        _require_triangle_free(
            extend_with(k15, ext), f"extension {name} is not valid for the shared K15:"
        )

    # vertex 16 takes eb plus a placeholder spoke to 15; edge (15, 16) is
    # the last ordinal and is then opened to the full domain
    k17 = extend_with(extend_with(k15, ea), bytes(eb) + bytes([Color.BLUE]))
    domains = ColoringTemplate.from_coloring(k17).domains
    return ColoringTemplate(17, domains[:-1] + bytes([FULL]))


def complete_edge(t: ColoringTemplate, x: Color) -> AssemblyReport:
    """Close the single open edge of a template with color x and take census."""
    if t.couplings:
        raise ValueError("cannot complete a template with couplings")
    opens = t.open_ordinals()
    if len(opens) != 1 or t.domains[opens[0]] != FULL:
        raise ValueError("template must have exactly one open edge with the full color domain")
    o = opens[0]
    colors = bytearray(d.bit_length() - 1 for d in t.domains)  # singleton mask -> color
    colors[o] = x = _color(x)
    c = EdgeColoring(t.n, bytes(colors))
    u, v = _edge_at(o, t.n)
    rows = bit_rows(c)[x]
    return AssemblyReport(x, census(c), (rows[u] & rows[v]).bit_count())


def twin_k17(x: Color, deleted_vertex: int = 0) -> AssemblyReport:
    """End-to-end pipeline: GF(16) K_16, delete a vertex, remount it twice.

    The two extensions are the deleted vertex's original spokes, so the shared
    K_15 extends to two identical triangle-free halves and the closed edge
    creates exactly five monochromatic triangles, all in color x.
    """
    x = _color(x)
    g = construct_gf16()
    ext = extension_of_vertex(g, deleted_vertex)
    k15 = delete_vertex(g, deleted_vertex)
    t = assemble(k15, ext, ext)
    return complete_edge(t, x)
