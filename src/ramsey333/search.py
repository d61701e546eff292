"""Minimizing monochromatic triangle counts: local search and tiny exhaustive oracles.

`minimize` is restart hill climbing over single-edge recolorings.  Each step
scans every (edge, new color) move, applies the one with the steepest
decrease (ties broken by lowest edge ordinal, then color order), and tolerates
a bounded number of plateau moves per restart.  Everything is seeded and
deterministic: identical parameters give identical results.

`exhaustive_min` is the ground truth at toy sizes: depth-first over all
colorings with branch-and-bound, edges ordered so every triangle closes as
early as possible.  The first edge's color is fixed to blue; recoloring is a
bijection on the search space that permutes colors everywhere at once, so the
restriction loses no minima.

The seeded generator is Python's Mersenne Twister (random.Random).  A random
coloring gives its edges, in edge-ordinal order, the top two bits of successive
32-bit outputs, skipping values of k or more: for k in {2, 3} exactly the stream
of `randrange(k)` (CPython's `_randbelow`), drawn w outputs per call as the
little-endian words of `getrandbits(32 * w)`.  Each restart of `minimize` draws
a fresh 64-bit subseed from the master stream just before it climbs.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from .coloring import Color, EdgeColoring, _make_via_new, bit_rows, edge_index, edge_list, toggle
from .errors import BudgetError

STATE_BUDGET = 1 << 25  # most raw states k^C(n,2) that exhaustive_min enumerates
EDGE_BUDGET = 1 << 15  # most edges C(n,2) that minimize climbs on: n <= 256
WORK_BUDGET = 1 << 31  # most restarts * steps_per_restart * max(C(n,2), 256) per minimize
_TOP_TWO_BITS = bytes(b >> 6 for b in range(256))  # maps a byte to its two high bits


class _SearchParamsFields(NamedTuple):
    n: int
    k: int
    seed: int
    restarts: int = 20
    steps_per_restart: int = 2000
    sideways_limit: int = 50


def _check_size(n: int, k: int) -> None:
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if n < 1:
        raise ValueError("n must be positive")


class SearchParams(_SearchParamsFields):
    __slots__ = ()
    _make = classmethod(_make_via_new)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_size(self.n, self.k)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.restarts < 1 or self.steps_per_restart < 1:
            raise ValueError("restarts and steps_per_restart must be positive")
        if self.sideways_limit < 0:
            raise ValueError("sideways_limit must be nonnegative")
        return self


class SearchResult(NamedTuple):
    best: EdgeColoring
    best_count: int
    trace: tuple[int, ...]  # best value reached in each restart
    evaluations: int  # candidate moves examined


def random_coloring(n: int, k: int, seed: int) -> EdgeColoring:
    """Uniform random coloring over the first k colors; bit-identical per (n, k, seed)."""
    _check_size(n, k)
    draw = random.Random(seed).getrandbits
    m = comb(n, 2)
    colors = b""
    while len(colors) < m:
        words = (m - len(colors)) * 4 // k + 1  # enough to expect the rest
        high = draw(32 * words).to_bytes(4 * words, "little")[3::4]  # each word's high byte
        colors += high.translate(_TOP_TWO_BITS, bytes(range(k << 6, 256)))  # drops >= k
    return EdgeColoring(n, colors[:m])


def move_delta(c: EdgeColoring, edge: int, x: Color) -> int:
    """Change in total monochromatic count if `edge` is recolored to x.

    O(n) given the per-color bit rows: the triangles gained are the common
    x-neighbors of the endpoints, the triangles lost are the common
    current-color neighbors.
    """
    if not 0 <= edge < len(c.colors):
        raise ValueError(f"edge ordinal {edge} out of range")
    cur = c.colors[edge]
    x = Color(x)
    if x == cur:
        raise ValueError("recoloring an edge with its current color is a no-op")
    u, v = edge_list(c.n)[edge]
    rows = bit_rows(c)
    gain = (rows[x][u] & rows[x][v]).bit_count()
    loss = (rows[cur][u] & rows[cur][v]).bit_count()
    return gain - loss


def _climb(start: EdgeColoring, k: int, steps_cap: int, sideways_limit: int):
    """Steepest-descent hill climb with plateau walking, from one coloring.

    Returns (best count, best coloring, candidate evaluations); every scan
    counts all E*(k-1) moves.  The state is the per-color bit rows, so a
    move's delta is two row intersections.  Each edge keeps its best move as
    one sort key, (delta + n, edge ordinal, color) packed into an int with the
    lowest color winning a tie, so min(keys) is the steepest decrease with
    ties broken by lowest edge ordinal then color order.  Plateau steps
    instead recolor the least recently modified edge with a zero-delta move:
    edges whose best delta is 0 also keep (last touched + 1, edge ordinal,
    color) in stale_keys.  A plateau walk that reused the ordinal rule would
    bounce between two states forever, while the staleness rule keeps it
    moving.  Recoloring (a, b) from c0 to x changes common-neighbor counts
    only for edges (a, w) with w a c0- or x-neighbor of b, and symmetrically
    for (b, w), so only those edges and (a, b) itself are repriced.
    """
    n = start.n
    edges = edge_list(n)
    num_edges = len(edges)
    if num_edges == 0:
        return 0, start, 0
    cur = bytearray(start.colors)
    # Not copied from bit_rows(start): that raised the search panel's peak RSS by ~0.2 MB.
    rows = [[0] * n for _ in range(3)]
    ordinal = [[0] * n for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        toggle(rows, u, v, cur[e])
        ordinal[u][v] = ordinal[v][u] = e
    span = 3 * num_edges  # keys are (major * span + 3 * edge + color)
    never = (steps_cap + 1) * span  # above every plateau key
    last_touched = [-1] * num_edges
    keys = [0] * num_edges
    stale_keys = [never] * num_edges

    def price(e):
        u, v = edges[e]
        c = cur[e]
        held = (rows[c][u] & rows[c][v]).bit_count()
        best = n  # above any delta
        for y in range(k):
            if y != c:
                d = (rows[y][u] & rows[y][v]).bit_count() - held
                if d < best:
                    best, x = d, y
        keys[e] = (best + n) * span + 3 * e + x
        stale_keys[e] = (last_touched[e] + 1) * span + 3 * e + x if best == 0 else never

    for e in range(num_edges):
        price(e)
    total = sum((rows[c][u] & rows[c][v]).bit_count() for (u, v), c in zip(edges, cur)) // 3
    best_count, best = total, bytes(cur)
    evals = 0
    sideways_used = 0

    for step in range(steps_cap):
        evals += num_edges * (k - 1)
        key = min(keys)
        d = key // span - n
        if d > 0:
            break
        if d == 0:
            if sideways_used >= sideways_limit:
                break
            sideways_used += 1
            key = min(stale_keys)
        e, x = divmod(key % span, 3)
        a, b = edges[e]
        c0 = cur[e]
        toggle(rows, a, b, c0)
        toggle(rows, a, b, x)
        cur[e] = x
        last_touched[e] = step
        total += d
        if total < best_count:
            best_count, best = total, bytes(cur)
        price(e)
        for p, q in ((a, b), (b, a)):
            mask = (rows[c0][q] | rows[x][q]) & ~(1 << p)
            while mask:
                low = mask & -mask
                mask ^= low
                price(ordinal[p][low.bit_length() - 1])

    return best_count, EdgeColoring(n, best), evals


def minimize(p: SearchParams) -> SearchResult:
    """Restart hill climbing; returns the best coloring over all restarts.

    The incumbent is merged by (count, restart index), so the reported best
    is the earliest restart that achieved the lowest count.  Before drawing
    anything, refuses n whose C(n,2) edges exceed EDGE_BUDGET (2^15: n up to
    256), and work over WORK_BUDGET (2^31; 256 floors the cost of a step).
    """
    if comb(p.n, 2) > EDGE_BUDGET:
        raise BudgetError(f"C(n,2) edges exceed the budget of {EDGE_BUDGET}")
    if p.restarts * p.steps_per_restart * max(comb(p.n, 2), 256) > WORK_BUDGET:
        raise BudgetError(f"restarts * steps * max(C(n,2),256) exceed the budget of {WORK_BUDGET}")
    master = random.Random(p.seed)
    trace = []
    evals = 0
    for r in range(p.restarts):
        start = random_coloring(p.n, p.k, master.getrandbits(64))
        count, coloring, ev = _climb(start, p.k, p.steps_per_restart, p.sideways_limit)
        trace.append(count)
        evals += ev
        if r == 0 or count < best_count:
            best_count, best = count, coloring
    return SearchResult(best, best_count, tuple(trace), evals)


def exhaustive_min(n: int, k: int) -> tuple[int, EdgeColoring]:
    """Exact minimum total monochromatic count over all k-colorings of K_n.

    Depth-first with branch-and-bound over edges in column order ((0,1),
    (0,2), (1,2), (0,3), ...), colors in order B < R < Y, first edge fixed to
    blue.  Returns the minimum and the first witness in that search order.
    Refuses instances whose raw state count k^C(n,2) exceeds STATE_BUDGET
    (2^25: k=2 up to n=7, k=3 up to n=6).
    """
    _check_size(n, k)
    # k^m >= 2^m, so m >= STATE_BUDGET.bit_length() already exceeds the budget
    # without forming a power that can run to thousands of digits.
    m = comb(n, 2)
    if m >= STATE_BUDGET.bit_length() or k**m > STATE_BUDGET:
        raise BudgetError(f"{k}^C(n,2) colorings exceed the budget of {STATE_BUDGET}")

    # Column order: all edges into vertex v come right after K_{v} is done,
    # so each assignment closes its triangles immediately.
    order = [(u, v, edge_index(u, v, n)) for v in range(1, n) for u in range(v)]
    rows = [[0] * n for _ in range(3)]
    colors = bytearray(m)
    best_count = comb(n, 3) + 1  # above any possible count
    best_colors = None

    def dfs(idx: int, count: int) -> None:
        nonlocal best_count, best_colors
        if idx == m:
            best_count = count
            best_colors = bytes(colors)
            return
        u, v, o = order[idx]
        for x in range(k) if idx else (0,):  # first edge pinned to blue
            closed = count + (rows[x][u] & rows[x][v]).bit_count()
            if closed >= best_count:
                continue
            colors[o] = x
            # Inline rather than coloring.toggle: the call makes this hot loop ~15% slower.
            bit_u, bit_v = 1 << v, 1 << u
            rows[x][u] |= bit_u
            rows[x][v] |= bit_v
            dfs(idx + 1, closed)
            rows[x][u] &= ~bit_u
            rows[x][v] &= ~bit_v

    dfs(0, 0)
    assert best_colors is not None
    return best_count, EdgeColoring(n, best_colors)
