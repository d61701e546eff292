"""Edge colorings of complete graphs and exact triangle accounting.

Every edge of K_n carries one of three colors: blue, red, yellow.  Edges are
numbered by the lexicographic ordinal of the pair (i, j) with i < j, so a
coloring is a byte string of length C(n, 2) and serializes canonically.
Walks iterate combinations(range(n), 2); vertex maps `_gather` pairs via a per-call row-start list.

Triangle counting comes in two flavors.  `census` is the brute-force oracle:
it walks all C(n, 3) vertex triples and classifies each as monochromatic,
bichromatic, or rainbow.  It keeps the coloring, not its triangles, so its
memory is O(C(n, 2)); CENSUS_BUDGET bounds its time (n <= 294).
`fast_mono_counts` is the bit-parallel path: `bit_rows`, the package's one cache
of computed data (last four colorings), packs each color's adjacencies into Python
ints (no vertex cap), and the triangles through an edge (i, j) are the set bits of
row_i AND row_j.

Colorings are named tuples, immutable, hashable and re-checked on `_replace`; functions are pure.
Every text form (documents, spoke lines, triangle lists) spells colors by the B/R/Y tables here.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from functools import lru_cache
from itertools import combinations
from math import comb, inf
from operator import index
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import BudgetError

CENSUS_BUDGET = 1 << 22  # most triples C(n,3) that census walks: n <= 294
_CHARS = "BRY"  # the character of each color value: the one alphabet of every text form
_TO_CHARS = bytes.maketrans(bytes(range(3)), _CHARS.encode())
_FROM_CHARS = bytes.maketrans(_CHARS.encode(), bytes(range(3)))


def _check_int(value, lo, hi, message: str, *args, error: type[ValueError] = ValueError) -> None:
    """The one integer rule: int, not bool, in [lo, hi); else error(message.format(*args))."""
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value < hi:
        raise error(message.format(*args))


def _color_bytes(s: str) -> bytes:
    """The color values of a string of B/R/Y; ValueError names its first other character."""
    data = str.encode(s, "latin-1", "replace")  # TypeError unless a str; '?' beyond latin-1
    if bad := data.translate(None, _CHARS.encode()):
        raise ValueError(f"not a color character: {s[data.index(bad[0])]!r}")
    return data.translate(_FROM_CHARS)


class Color(IntEnum):
    """One of the three edge labels, totally ordered Blue < Red < Yellow."""

    BLUE = 0
    RED = 1
    YELLOW = 2

    @property
    def char(self) -> str:
        return _CHARS[self.value]

    def __str__(self) -> str:
        return self.name.capitalize()


COLORS = (Color.BLUE, Color.RED, Color.YELLOW)


def _color(x) -> Color:
    """x as a Color; ValueError unless it is an int, not a bool, in [0, 3)."""
    _check_int(x, 0, 3, "color must be 0 (B), 1 (R) or 2 (Y) (an int, not a bool), got {!r}", x)
    return COLORS[x]


def _row_start(i: int, n: int) -> int:
    """The one ordinal formula: edge (i, j), i < j < n, has ordinal _row_start(i, n) + j."""
    return i * (2 * n - i - 1) // 2 - i - 1


def edge_index(i: int, j: int, n: int) -> int:
    """Ordinal of edge (i, j), i < j, in lexicographic order: (0,1), (0,2), ..."""
    message = "invalid edge ({!r}, {!r}) for n={!r}"
    _check_int(n, 2, inf, message, i, j, n)  # any int size; each later bound is checked before it
    _check_int(j, 1, n, message, i, j, n)
    _check_int(i, 0, j, message, i, j, n)
    return _row_start(i, n) + j


def _gather(c: EdgeColoring, pairs: Iterator[tuple[int, int]]) -> bytes:
    """The colors of distinct vertex pairs (u, v), in either order, by one row-start list."""
    cols = c.colors
    base = [_row_start(i, c.n) for i in range(c.n)]
    return bytes(cols[base[u] + v] if u < v else cols[base[v] + u] for u, v in pairs)


def _edge_at(o: int, n: int) -> tuple[int, int]:
    """The edge (i, j) of ordinal o, 0 <= o < C(n, 2): edge_index's inverse in O(n)."""
    for i in range(n - 1):
        if o < n - 1 - i:
            return i, i + 1 + o
        o -= n - 1 - i
    raise ValueError(f"edge ordinal out of range for n={n}")


class MonoTriangle(NamedTuple):
    i: int
    j: int
    k: int
    color: Color


def _record(name: str, fields: str, **kwargs) -> type:
    """namedtuple `name` whose `_make`, and so `_replace`, runs the subclass's `__new__` checks."""
    base = namedtuple(name, fields, **kwargs)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def _byte_items(n, data, noun: str, allowed: bytes, rule: str, m=None, at="at edge ordinal "):
    """`data` as m (default C(n, 2)) bytes in `allowed`: the one decoder of colors, domains, spokes.

    Bytes-like data takes one translate.  Any other item must be an int (else TypeError); a bool
    or an int outside `allowed` is a ValueError naming its position (`noun` `at` k) and repr."""
    # a bool n would be written back as True; a larger n's C(n, 2) fits no memory
    _check_int(n, 1, 10**18, "vertex count must be an int (not a bool) at least 1 and below 10**18")
    if isinstance(data, int):  # bytes(3) would be three zero bytes
        raise TypeError(f"{noun}s must be a byte sequence, not an int")
    if not isinstance(items := data, (bytes, bytearray, memoryview)):
        items = list(data)  # 255, in no `allowed`, marks a bool or an int outside range(256)
        data = (255 if isinstance(x, bool) or not 0 <= index(x) < 256 else x for x in items)
    data = bytes(data)  # a bytearray would be unhashable
    if len(data) != (m := comb(n, 2) if m is None else m):
        raise ValueError(f"need {m} {noun}s for n={n}, got {len(data)}")
    if bad := data.translate(None, allowed):
        k = data.index(bad[0])
        raise ValueError(f"{noun} {at}{k} must be {rule}, got {items[k]!r}")
    return data


class EdgeColoring(_record("EdgeColoring", "n colors")):
    """Total assignment of colors to the C(n, 2) edges of K_n.

    `colors` holds Color values (0, 1, 2) in edge-ordinal order; any bytes-like
    value or sequence of ints is accepted and stored as `bytes`.  Instances
    are immutable; derive new colorings with the functions in this module.
    """

    __slots__ = ()

    def __new__(cls, n, colors):
        colors = _byte_items(n, colors, "edge color", b"\x00\x01\x02", "0 (B), 1 (R) or 2 (Y)")
        return super().__new__(cls, n, colors)

    @classmethod
    def from_string(cls, n: int, s: str) -> "EdgeColoring":
        return cls(n, _color_bytes(s))

    def color(self, i: int, j: int) -> Color:
        for v in (i, j):  # both checked before min and max compare them
            _check_int(v, 0, self.n, "invalid edge ({!r}, {!r}) for n={}", i, j, self.n)
        return COLORS[self.colors[edge_index(min(i, j), max(i, j), self.n)]]

    def color_string(self) -> str:
        return self.colors.translate(_TO_CHARS).decode()

    def recolored(self, ordinal: int, x: Color) -> "EdgeColoring":
        """Copy with one edge changed."""
        m = len(self.colors)
        _check_int(ordinal, 0, m, "edge ordinal {} out of range (an int, not a bool)", ordinal)
        buf = bytearray(self.colors)
        buf[ordinal] = _color(x)
        return EdgeColoring(self.n, bytes(buf))


def toggle(rows: list[list[int]], i: int, j: int, x: int) -> None:
    """Flip edge (i, j) in the color-x bit rows: adds it if absent, removes it if present."""
    rows[x][i] ^= 1 << j
    rows[x][j] ^= 1 << i


def _rows(c: EdgeColoring) -> list[list[int]]:
    """The one row builder, uncached and mutable: bit j of rows[x][i] set iff (i, j) has color x."""
    rows = [[0] * c.n for _ in range(3)]
    for (i, j), x in zip(combinations(range(c.n), 2), c.colors):
        toggle(rows, i, j, x)
    return rows


@lru_cache(maxsize=4)  # re-reads come within one call chain; a bound keeps memory flat
def bit_rows(c: EdgeColoring) -> tuple[tuple[int, ...], ...]:
    """_rows(c) as tuples, cached: bit j of rows[x][i] is set iff edge (i,j) has color x."""
    return tuple(tuple(r) for r in _rows(c))


def _spoke_dfs(rows, v: int, colors, count: int, bound: int, leaf) -> None:
    """Each spoke coloring from vertex v to vertices 0..v-1 closing < `bound` triangles in all.

    Depth-first over u in index order, colors in the given order, from the `count` already
    closed.  Spoke u colored x closes (row[u] & row[v]).bit_count() triangles, row = rows[x],
    and sits in the mutable bit rows while its subtree runs; a branch is cut once its count
    reaches the bound.  Each vector goes to leaf(spokes, count) with every spoke in rows, both
    valid only during the call, which returns the bound from then on.  Rows end as given.
    """
    spokes = bytearray(v)

    def dfs(u: int, count: int) -> None:
        nonlocal bound
        if u == v:
            bound = leaf(spokes, count)
            return
        for x in colors:
            row = rows[x]
            closed = count + (row[u] & row[v]).bit_count()
            if closed < bound:
                spokes[u] = x
                # inline, not toggle(): a call per node ran 2x slower (2-vCPU Xeon, Python 3.11)
                row[u] ^= 1 << v
                row[v] ^= 1 << u
                dfs(u + 1, closed)
                row[u] ^= 1 << v
                row[v] ^= 1 << u

    dfs(0, count)
    del dfs  # the closure refers to itself; breaking the cycle frees it without the collector


def _mono_triangles(c: EdgeColoring) -> Iterator[MonoTriangle]:
    """Yield the monochromatic triangles i < j < k in lexicographic order, from bit_rows.

    Each is a set bit above j of its edge (i, j)'s row intersection."""
    rows = bit_rows(c)
    for (i, j), x in zip(combinations(range(c.n), 2), c.colors):
        common = (rows[x][i] & rows[x][j]) >> (j + 1)
        while common:
            low = common & -common
            yield MonoTriangle(i, j, j + low.bit_length(), COLORS[x])
            common ^= low


class TriangleCensus(NamedTuple):
    """Exact triangle classification of one coloring."""

    mono: tuple[int, int, int]  # per color, index = Color value
    bichromatic: int
    rainbow: int
    coloring: EdgeColoring

    @property
    def mono_list(self) -> tuple[MonoTriangle, ...]:
        """The monochromatic triangles i < j < k in lexicographic order, from bit_rows."""
        # via a list: tuple() of a generator shrinks its tuple, parking a block on the free list
        return tuple(list(_mono_triangles(self.coloring)))

    @property
    def total_mono(self) -> int:
        return sum(self.mono)


def census(c: EdgeColoring) -> TriangleCensus:
    """Brute-force triangle count over all C(n, 3) triples.  The oracle."""
    n = c.n
    if comb(n, 3) > CENSUS_BUDGET:
        raise BudgetError(f"C(n,3) triples exceed the budget of {CENSUS_BUDGET}")
    cols = c.colors
    mono = [0, 0, 0]
    bi = 0
    rainbow = 0
    base = [_row_start(i, n) for i in range(n)]
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
    for (i, j), x in zip(combinations(range(c.n), 2), c.colors):
        counts[x] += ((rows[x][i] & rows[x][j]) >> (j + 1)).bit_count()
    return (counts[0], counts[1], counts[2])


def permute_colors(c: EdgeColoring, pi: Mapping[Color, Color]) -> EdgeColoring:
    """Replace every edge color x by pi[x]; pi must be a bijection on the colors."""
    if any(x not in pi for x in COLORS) or {_color(pi[x]) for x in COLORS} != set(COLORS):
        raise ValueError("color permutation must be a bijection on {B, R, Y}")
    return EdgeColoring(c.n, c.colors.translate(bytes(pi[x] for x in COLORS) + bytes(253)))


def permute_vertices(c: EdgeColoring, rho: Sequence[int]) -> EdgeColoring:
    """Relabel vertices: edge (rho[i], rho[j]) in the result gets the color of (i, j)."""
    for r in rho:  # sorted() alone would take [True, 0, 2] or [0.0, 1, 2]
        _check_int(r, 0, c.n, "vertex permutation must be a bijection on range(n)")
    if sorted(rho) != list(range(c.n)):
        raise ValueError("vertex permutation must be a bijection on range(n)")
    inv = sorted(range(c.n), key=rho.__getitem__)  # rho[inv[a]] == a: (a, b) reads (inv[a], inv[b])
    return EdgeColoring(c.n, _gather(c, combinations(inv, 2)))


def delete_vertex(c: EdgeColoring, v: int) -> EdgeColoring:
    """Coloring of K_{n-1} on the remaining vertices; indices above v shift down."""
    _check_int(v, 0, c.n, "vertex {} out of range for n={} (an int, not a bool)", v, c.n)
    if c.n < 2:
        raise ValueError("cannot delete a vertex from K_1")
    return EdgeColoring(c.n - 1, _gather(c, combinations([u for u in range(c.n) if u != v], 2)))


def color_degree_profile(c: EdgeColoring, v: int) -> tuple[int, int, int]:
    """Number of edges of each color at vertex v; sums to n - 1."""
    _check_int(v, 0, c.n, "vertex {} out of range for n={} (an int, not a bool)", v, c.n)
    rows = bit_rows(c)
    return tuple(rows[x][v].bit_count() for x in range(3))
