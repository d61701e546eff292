"""Edge colorings of complete graphs and exact triangle accounting.

Every edge of K_n carries one of three colors: blue, red, yellow.  Edges are
numbered by the lexicographic ordinal of the pair (i, j) with i < j, so a
coloring is a byte string of length C(n, 2) and serializes canonically.

Triangle counting comes in two flavors.  `census` is the brute-force oracle:
it walks all C(n, 3) vertex triples and classifies each as monochromatic,
bichromatic, or rainbow.  It keeps the coloring, not its triangles, so its
memory is O(C(n, 2)); CENSUS_BUDGET bounds its time (n <= 294).
`fast_mono_counts` is the bit-parallel path: `bit_rows` packs each color's
adjacencies into Python ints (no vertex cap), caching the last four colorings,
and the triangles through an edge (i, j) are the set bits of row_i AND row_j.

Colorings are named tuples, immutable and hashable; every function here is pure.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping, NamedTuple, Sequence

from .errors import BudgetError

CENSUS_BUDGET = 1 << 22  # most triples C(n,3) that census walks: n <= 294


class Color(IntEnum):
    """One of the three edge labels, totally ordered Blue < Red < Yellow."""

    BLUE = 0
    RED = 1
    YELLOW = 2

    @property
    def char(self) -> str:
        return "BRY"[self.value]

    @classmethod
    def from_char(cls, ch: str) -> "Color":
        idx = "BRY".find(ch) if len(ch) == 1 else -1
        if idx < 0:
            raise ValueError(f"not a color character: {ch!r}")
        return cls(idx)

    def __str__(self) -> str:
        return self.name.capitalize()


COLORS = (Color.BLUE, Color.RED, Color.YELLOW)


def edge_index(i: int, j: int, n: int) -> int:
    """Ordinal of edge (i, j), i < j, in lexicographic order: (0,1), (0,2), ..."""
    if not 0 <= i < j < n:
        raise ValueError(f"invalid edge ({i}, {j}) for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=8)  # a pipeline touches a few sizes; a benchmark round at most six
def edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """All edges of K_n in ordinal order."""
    return tuple(combinations(range(n), 2))


class MonoTriangle(NamedTuple):
    i: int
    j: int
    k: int
    color: Color


def _make_via_new(cls, fields):
    """`_make`, and so `_replace`, via `__new__`; namedtuple's own skips it and calls len()."""
    return cls(*fields)


def _edge_bytes(n, data, noun: str, allowed: bytes, rule: str) -> bytes:
    """`data` as the C(n, 2) bytes of K_n's edges, each in `allowed`; `noun` names one."""
    if not 1 <= n < 10**18:  # a larger n's C(n, 2) would not fit in memory, nor in a message
        raise ValueError("vertex count must be at least 1 and below 10**18")
    if isinstance(data, int):  # bytes(3) would be three zero bytes
        raise TypeError(f"{noun}s must be a byte sequence, not an int")
    data = bytes(data)  # a bytearray would be unhashable
    m = comb(n, 2)
    if len(data) != m:
        raise ValueError(f"need {m} {noun}s for n={n}, got {len(data)}")
    if bad := data.translate(None, allowed):
        o = data.index(bad[0])
        raise ValueError(f"{noun} at edge ordinal {o} must be {rule}, got {bad[0]}")
    return data


class _EdgeColoringFields(NamedTuple):
    n: int
    colors: bytes


class EdgeColoring(_EdgeColoringFields):
    """Total assignment of colors to the C(n, 2) edges of K_n.

    `colors` holds Color values (0, 1, 2) in edge-ordinal order; any bytes-like
    value or sequence of ints is accepted and stored as `bytes`.  Instances
    are immutable; derive new colorings with the functions in this module.
    """

    __slots__ = ()
    _make = classmethod(_make_via_new)

    def __new__(cls, n, colors):
        colors = _edge_bytes(n, colors, "edge color", b"\x00\x01\x02", "0 (B), 1 (R) or 2 (Y)")
        return super().__new__(cls, n, colors)

    @classmethod
    def from_string(cls, n: int, s: str) -> "EdgeColoring":
        return cls(n, bytes(Color.from_char(ch) for ch in s))

    def color(self, i: int, j: int) -> Color:
        if i > j:
            i, j = j, i
        return Color(self.colors[edge_index(i, j, self.n)])

    def color_string(self) -> str:
        return "".join("BRY"[b] for b in self.colors)

    def recolored(self, ordinal: int, x: Color) -> "EdgeColoring":
        """Copy with one edge changed."""
        if not 0 <= ordinal < len(self.colors):
            raise ValueError(f"edge ordinal {ordinal} out of range")
        buf = bytearray(self.colors)
        buf[ordinal] = int(x)
        return EdgeColoring(self.n, bytes(buf))


def toggle(rows: list[list[int]], i: int, j: int, x: int) -> None:
    """Flip edge (i, j) in the color-x bit rows: adds it if absent, removes it if present."""
    rows[x][i] ^= 1 << j
    rows[x][j] ^= 1 << i


@lru_cache(maxsize=4)  # re-reads come within one call chain; a bound keeps memory flat
def bit_rows(c: EdgeColoring) -> tuple[tuple[int, ...], ...]:
    """Per-color adjacency rows: bit j of rows[x][i] is set iff edge (i,j) has color x."""
    rows = [[0] * c.n for _ in range(3)]
    for (i, j), x in zip(edge_list(c.n), c.colors):
        toggle(rows, i, j, x)
    return tuple(tuple(r) for r in rows)


class TriangleCensus(NamedTuple):
    """Exact triangle classification of one coloring."""

    mono: tuple[int, int, int]  # per color, index = Color value
    bichromatic: int
    rainbow: int
    coloring: EdgeColoring

    @property
    def mono_list(self) -> tuple[MonoTriangle, ...]:
        """The monochromatic triangles i < j < k in lexicographic order, from bit_rows.

        Each is a set bit above j of its edge (i, j)'s row intersection."""
        c = self.coloring
        rows = bit_rows(c)
        out = []
        for (i, j), x in zip(edge_list(c.n), c.colors):
            common = (rows[x][i] & rows[x][j]) >> (j + 1)
            while common:
                low = common & -common
                out.append(MonoTriangle(i, j, j + low.bit_length(), COLORS[x]))
                common ^= low
        return tuple(out)

    @property
    def total_mono(self) -> int:
        return sum(self.mono)

    @property
    def total(self) -> int:
        return self.total_mono + self.bichromatic + self.rainbow


def census(c: EdgeColoring) -> TriangleCensus:
    """Brute-force triangle count over all C(n, 3) triples.  The oracle."""
    n = c.n
    if comb(n, 3) > CENSUS_BUDGET:
        raise BudgetError(f"C(n,3) triples exceed the budget of {CENSUS_BUDGET}")
    cols = c.colors
    mono = [0, 0, 0]
    bi = 0
    rainbow = 0
    # base[i] + j is the ordinal of edge (i, j)
    base = [i * (2 * n - i - 1) // 2 - (i + 1) for i in range(n)]
    for i in range(n - 2):
        bi_base = base[i]
        for j in range(i + 1, n - 1):
            cij = cols[bi_base + j]
            bj_base = base[j]
            for k in range(j + 1, n):
                cik = cols[bi_base + k]
                cjk = cols[bj_base + k]
                if cij == cik == cjk:
                    mono[cij] += 1
                elif cij != cik and cik != cjk and cij != cjk:
                    rainbow += 1
                else:
                    bi += 1
    return TriangleCensus((mono[0], mono[1], mono[2]), bi, rainbow, c)


def fast_mono_counts(c: EdgeColoring) -> tuple[int, int, int]:
    """Per-color monochromatic counts via bit rows; equals census(c).mono.

    Each triangle i < j < k is counted once, at its edge (i, j), by masking
    the row intersection to bits above j.
    """
    rows = bit_rows(c)
    counts = [0, 0, 0]
    for (i, j), x in zip(edge_list(c.n), c.colors):
        counts[x] += ((rows[x][i] & rows[x][j]) >> (j + 1)).bit_count()
    return (counts[0], counts[1], counts[2])


def permute_colors(c: EdgeColoring, pi: Mapping[Color, Color]) -> EdgeColoring:
    """Replace every edge color x by pi[x]; pi must be a bijection on the colors."""
    if any(x not in pi for x in COLORS) or {Color(pi[x]) for x in COLORS} != set(COLORS):
        raise ValueError("color permutation must be a bijection on {B, R, Y}")
    table = bytearray(range(256))
    for x in COLORS:
        table[x.value] = Color(pi[x]).value
    return EdgeColoring(c.n, c.colors.translate(bytes(table)))


def permute_vertices(c: EdgeColoring, rho: Sequence[int]) -> EdgeColoring:
    """Relabel vertices: edge (rho[i], rho[j]) in the result gets the color of (i, j)."""
    if sorted(rho) != list(range(c.n)):
        raise ValueError("vertex permutation must be a bijection on range(n)")
    out = bytearray(len(c.colors))
    for o, (i, j) in enumerate(edge_list(c.n)):
        a, b = rho[i], rho[j]
        if a > b:
            a, b = b, a
        out[edge_index(a, b, c.n)] = c.colors[o]
    return EdgeColoring(c.n, bytes(out))


def delete_vertex(c: EdgeColoring, v: int) -> EdgeColoring:
    """Coloring of K_{n-1} on the remaining vertices; indices above v shift down."""
    if not 0 <= v < c.n:
        raise ValueError(f"vertex {v} out of range for n={c.n}")
    if c.n < 2:
        raise ValueError("cannot delete a vertex from K_1")
    # Relabelling the kept vertices is monotone, so the edges avoiding v stay in ordinal order.
    return EdgeColoring(c.n - 1, bytes(x for e, x in zip(edge_list(c.n), c.colors) if v not in e))


def color_degree_profile(c: EdgeColoring, v: int) -> tuple[int, int, int]:
    """Number of edges of each color at vertex v; sums to n - 1."""
    if not 0 <= v < c.n:
        raise ValueError(f"vertex {v} out of range for n={c.n}")
    rows = bit_rows(c)
    return tuple(rows[x][v].bit_count() for x in range(3))
