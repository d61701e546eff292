"""Minimizing monochromatic triangle counts: local search and tiny exhaustive oracles.

`minimize` is restart hill climbing over single-edge recolorings.  Each step
scans every (edge, new color) move, applies the one with the steepest
decrease (ties broken by lowest edge ordinal, then color order), and tolerates
a bounded number of plateau moves per restart.  Everything is seeded and
deterministic: identical parameters give identical results.

The seeded generator is Python's Mersenne Twister (random.Random).  A random
coloring gives its edges, in edge-ordinal order, the top two bits of successive
32-bit outputs, skipping values of k or more: for k in {2, 3} exactly the stream
of `randrange(k)` (CPython's `_randbelow`), drawn w outputs per call as the
little-endian words of `getrandbits(32 * w)`.  Each restart of `minimize` draws
a fresh 64-bit subseed from the master stream just before it climbs.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, inf
from typing import NamedTuple

from .coloring import (
    Color, EdgeColoring, _check_int, _color, _edge_at, _record, _row_start, _rows, _spoke_dfs,
    bit_rows, toggle
)
from .errors import BudgetError

STATE_BUDGET = 1 << 25  # most raw states k^C(n,2) that exhaustive_min enumerates
EDGE_BUDGET = 1 << 15  # most edges C(n,2) that random_coloring draws and minimize climbs: n <= 256
WORK_BUDGET = 1 << 31  # most restarts * steps_per_restart * max(C(n,2), 256) per minimize
_TOP_TWO_BITS = bytes(b >> 6 for b in range(256))  # maps a byte to its two high bits


def _check_size(n: int, k: int) -> None:
    _check_int(k, 2, 4, "k must be 2 or 3 (an int, not a bool)")
    # a bool n would be written back as True
    _check_int(n, 1, inf, "n must be positive (an int, not a bool)")


def _check_seed(seed: int) -> None:
    # random.Random would seed -s as s
    _check_int(seed, 0, 1 << 64, "seed must fit in 64 bits (an int, not a bool)")


class SearchParams(_record(
    "SearchParams", "n k seed restarts steps_per_restart sideways_limit", defaults=(20, 2000, 50)
)):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_size(self.n, self.k)
        _check_seed(self.seed)
        _check_int(self.restarts, 1, inf, "restarts must be positive (an int, not a bool)")
        _check_int(self.steps_per_restart, 1, inf,
                   "steps_per_restart must be positive (an int, not a bool)")
        _check_int(self.sideways_limit, 0, inf,
                   "sideways_limit must be nonnegative (an int, not a bool)")
        return self


class SearchResult(NamedTuple):
    best: EdgeColoring
    best_count: int
    trace: tuple[int, ...]  # best value reached in each restart
    evaluations: int  # candidate moves examined


def random_coloring(n: int, k: int, seed: int) -> EdgeColoring:
    """Uniform random coloring over the first k colors; bit-identical per (n, k, seed)."""
    _check_size(n, k)
    _check_seed(seed)
    m = comb(n, 2)
    if m > EDGE_BUDGET:  # refused before any draw; n is never formatted
        raise BudgetError(f"C(n,2) edges exceed the budget of {EDGE_BUDGET}")
    draw = random.Random(seed).getrandbits
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
    _check_int(edge, 0, len(c.colors), "edge ordinal {} out of range (an int, not a bool)", edge)
    cur = c.colors[edge]
    x = _color(x)
    if x == cur:
        raise ValueError("recoloring an edge with its current color is a no-op")
    u, v = _edge_at(edge, c.n)
    rows = bit_rows(c)
    gain = (rows[x][u] & rows[x][v]).bit_count()
    loss = (rows[cur][u] & rows[cur][v]).bit_count()
    return gain - loss


def _climb(start: EdgeColoring, k: int, steps_cap: int, sideways_limit: int):
    """Steepest-descent hill climb with plateau walking, from one coloring.

    Returns (best count, best coloring, candidate evaluations); every pass,
    the stopping one included, scans all E*(k-1) moves.  The state is the
    per-color bit rows, so a move's delta is two row intersections.  Each edge
    keeps its best move, the lowest color winning a tie, as one int key
    ordered by (delta, rank, edge ordinal, color), where rank is last touched
    + 1 on an edge whose best delta is 0 and 0 elsewhere.  So min(keys) is the
    steepest decrease with ties broken by lowest edge ordinal then color, and
    on a plateau it recolors the least recently touched zero-delta edge: a
    plateau walk that broke ties by ordinal would bounce between two states
    forever.  Recoloring (a, b) from c0 to x changes common-neighbor counts
    only for edges (a, w) with w a c0- or x-neighbor of b, and symmetrically
    for (b, w), so only those edges and (a, b) itself are repriced.
    """
    n = start.n
    edges = tuple(combinations(range(n), 2))
    num_edges = len(edges)
    if num_edges == 0:
        return 0, start, 0
    cur = bytearray(start.colors)
    rows = _rows(start)  # uncached: copying bit_rows(start) raised the panel's peak RSS ~0.2 MB
    base = [_row_start(i, n) for i in range(n)]
    span = 3 * num_edges  # keys are ((delta + n) * ranks + rank) * span + 3 * edge + color
    ranks = steps_cap + 1  # above every rank
    last_touched = [-1] * num_edges
    keys = [0] * num_edges

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
        rank = last_touched[e] + 1 if best == 0 else 0
        keys[e] = ((best + n) * ranks + rank) * span + 3 * e + x
        return held

    total = sum(map(price, range(num_edges))) // 3  # each triangle holds on its three edges
    best_count, best = total, bytes(cur)
    sideways_used = 0

    for step in range(steps_cap):
        key = min(keys)
        d = key // (ranks * span) - n
        if d > 0:
            break
        if d == 0:
            if sideways_used >= sideways_limit:
                break
            sideways_used += 1
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
                w = low.bit_length() - 1
                price(base[p] + w if p < w else base[w] + p)

    return best_count, EdgeColoring(n, best), (step + 1) * num_edges * (k - 1)


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
    """Exact minimum total monochromatic count over all k-colorings of K_n, and its first witness.

    Vertices join in turn by coloring._spoke_dfs, colors B < R < Y, bounded by the best
    count less the count closed; vertex 1's spoke is pinned blue, as permuting colors keeps
    every count.  Refuses k^C(n,2) raw states over STATE_BUDGET (2^25: k=2 to n=7, k=3 to n=6).
    """
    _check_size(n, k)
    # k^m >= 2^m, so m >= STATE_BUDGET.bit_length() already exceeds the budget
    # without forming a power that can run to thousands of digits.
    m = comb(n, 2)
    if m >= STATE_BUDGET.bit_length() or k**m > STATE_BUDGET:
        raise BudgetError(f"{k}^C(n,2) colorings exceed the budget of {STATE_BUDGET}")

    rows = [[0] * n for _ in range(3)]
    best_count = comb(n, 3) + 1  # above any possible count
    best_rows = rows
    closed = 0  # triangles closed by the edges in rows

    def leaf(spokes: bytearray, count: int) -> int:
        nonlocal best_count, best_rows, closed
        v = len(spokes)  # the joining vertex: spokes[u] colors edge (u, v)
        closed += count
        for u, x in enumerate(spokes):
            toggle(rows, u, v, x)
        if v + 1 < n:  # vertex 1's spoke is pinned blue
            _spoke_dfs(rows, v + 1, range(k if v else 1), best_count - closed, leaf)
        else:
            best_count, best_rows = closed, [r.copy() for r in rows]
        for u, x in enumerate(spokes):
            toggle(rows, u, v, x)
        closed -= count
        return best_count - closed

    leaf(bytearray(), 0)  # vertex 0 joins with no spokes
    del leaf  # the closure refers to itself; breaking the cycle frees it without the collector
    return best_count, EdgeColoring(n, bytes(next(x for x in range(3) if best_rows[x][i] >> j & 1)
                                             for i, j in combinations(range(n), 2)))
