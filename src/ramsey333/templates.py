"""Partial colorings: per-edge color domains plus edge-to-edge couplings.

A template generalizes "a complete graph minus some color decisions": every
edge carries a nonempty domain of allowed colors, and optional couplings tie
one edge's color to another's through the cyclic shift Blue -> Red -> Yellow
-> Blue.  A template whose domains are all singletons is exactly a coloring.
Domains are 3-bit color masks held in one `bytes`, like `EdgeColoring.colors`:
bit x set means color x is allowed, so FULL = 0b111 leaves an edge open.

solve_template enumerates a template's triangle-free completions by
depth-first backtracking and keeps the first `limit`: edges are decided in
ordinal order, colors tried in order B < R < Y, coupled edges forced
immediately, and any assignment that closes a monochromatic triangle or gives
a vertex a sixth edge of one color is pruned.  After each assignment a forward
check (Haralick & Elliott, 1980) looks at the undecided edges at the vertices
it touched and backtracks as soon as one has no usable color left.  The order
is fixed, so the first solution is canonical; SOLVE_BUDGET caps its DFS nodes.
"""

from __future__ import annotations

import sys
from itertools import combinations, islice
from typing import Iterator, NamedTuple

from .coloring import Color, EdgeColoring, _check_int, _edge_at, _edge_bytes, _record, toggle
from .errors import BudgetError

FULL = 0b111  # the domain mask that allows every color
SOLVE_BUDGET = 1 << 18  # most DFS nodes (edge decisions) one solve_template call visits


class Coupling(NamedTuple):
    """Functional constraint: color(dst) = (color(src) + shift) % 3."""

    src: int
    dst: int
    shift: int


class ColoringTemplate(_record("ColoringTemplate", "n domains couplings")):
    """Partial coloring of K_n: one color mask, 1 to 7, per edge ordinal."""

    __slots__ = ()

    def __new__(cls, n, domains, couplings=()):
        domains = _edge_bytes(n, domains, "domain", bytes(range(1, 8)), "a color mask 1-7")
        couplings = tuple(cp if type(cp) is Coupling else Coupling(*cp) for cp in couplings)
        for cp in couplings:  # messages name no coupling: a template may carry many
            _check_int(cp.src, 0, len(domains), "coupling ordinals must be ints below C(n, 2)")
            _check_int(cp.dst, 0, len(domains), "coupling ordinals must be ints below C(n, 2)")
            _check_int(cp.shift, 0, 3, "coupling shifts must be ints 0, 1 or 2")
            if cp.src == cp.dst:
                raise ValueError(f"coupling ties an edge to itself: {cp}")
        return super().__new__(cls, n, domains, couplings)

    @classmethod
    def from_coloring(cls, c: EdgeColoring) -> "ColoringTemplate":
        return cls(c.n, bytes(1 << b for b in c.colors))

    def open_ordinals(self) -> list[int]:
        return [o for o, d in enumerate(self.domains) if d & (d - 1)]  # two or more bits


def template_violations(t: ColoringTemplate, c: EdgeColoring) -> list[str]:
    """Independent post-hoc check that a coloring satisfies a template.

    Checks every domain and every coupling directly, with no shared state
    with the solver.  Returns human-readable violation messages; empty means
    the coloring conforms.
    """
    if c.n != t.n:
        return [f"vertex count mismatch: template n={t.n}, coloring n={c.n}"]
    msgs = []
    for o, d in enumerate(t.domains):
        if not d >> c.colors[o] & 1:
            i, j = _edge_at(o, t.n)
            msgs.append(f"edge ({i},{j}) colored {Color(c.colors[o]).char} outside domain")
    for cp in t.couplings:
        want = Color((c.colors[cp.src] + cp.shift) % 3)
        if Color(c.colors[cp.dst]) != want:
            msgs.append(
                f"coupling broken: edge {cp.dst} should be {want.char} "
                f"(edge {cp.src} shifted by {cp.shift})"
            )
    return msgs


def solve_template(t: ColoringTemplate, limit: int = 1) -> list[EdgeColoring]:
    """The first `limit` triangle-free completions of a template, in DFS order.

    A generator enumerates them (edges in ordinal order, colors B < R < Y, couplings
    propagated eagerly) until `limit` are taken.  An empty list means none exists.
    Raises BudgetError at node SOLVE_BUDGET + 1 (all 72 cylinder completions visit 43,137 nodes).
    """
    _check_int(limit, 1, sys.maxsize + 1, "limit must be an int from 1 to sys.maxsize")
    n = t.n
    m = len(t.domains)
    edges = tuple(combinations(range(n), 2))
    partners: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for cp in t.couplings:
        partners[cp.src].append((cp.dst, cp.shift))
        partners[cp.dst].append((cp.src, (3 - cp.shift) % 3))
    incident: list[list[int]] = [[] for _ in range(n)]  # edge ordinals at each vertex
    for e, (i, j) in enumerate(edges):
        incident[i].append(e)
        incident[j].append(e)

    UNSET = 255
    assigned = bytearray([UNSET]) * m
    rows = [[0] * n for _ in range(3)]  # per-color adjacency over assigned edges
    domains = t.domains
    tickets = iter(range(SOLVE_BUDGET))  # one per DFS node

    def feasible_mask(e: int) -> int:
        """Colors in e's domain that close no triangle and give no end a sixth edge of one color.

        Sound: the x-neighbors of a vertex span no x-edge, so R(3,3) = 6 allows at most 5 of them.
        """
        i, j = edges[e]
        b, r, y = rows
        return domains[e] & (
            (not (b[i] & b[j] or b[i].bit_count() > 4 or b[j].bit_count() > 4))
            | (not (r[i] & r[j] or r[i].bit_count() > 4 or r[j].bit_count() > 4)) << 1
            | (not (y[i] & y[j] or y[i].bit_count() > 4 or y[j].bit_count() > 4)) << 2
        )

    def assign_with_couplings(o: int, x: int, trail: list[int]) -> bool:
        """Assign o=x and everything it forces; False on any contradiction."""
        pending = [(o, x)]
        while pending:
            e, cx = pending.pop()
            if assigned[e] != UNSET:
                if assigned[e] != cx:
                    return False
                continue
            if not feasible_mask(e) >> cx & 1:
                return False  # outside the domain, closes a triangle, or over the cap
            assigned[e] = cx
            toggle(rows, *edges[e], cx)
            trail.append(e)
            for f, k in partners[e]:
                pending.append((f, (cx + k) % 3))
        # Forward check: the branch is dead once an undecided edge has no usable
        # color left.  Rows only gain bits along a DFS path and change only at
        # the endpoints of assigned edges, so only edges at a vertex the trail
        # touched can have lost their last color.  Pruning only, so the DFS
        # leaf order is unchanged.
        for v in {v for e in trail for v in edges[e]}:
            for e in incident[v]:
                if assigned[e] == UNSET and not feasible_mask(e):
                    return False
        return True

    def completions(o: int) -> Iterator[EdgeColoring]:
        if next(tickets, None) is None:
            raise BudgetError(f"DFS nodes exceed the budget of {SOLVE_BUDGET}")
        while o < m and assigned[o] != UNSET:
            o += 1
        if o == m:
            yield EdgeColoring(n, bytes(assigned))
            return
        for x in (0, 1, 2):  # a color outside o's domain fails in feasible_mask
            trail: list[int] = []
            if assign_with_couplings(o, x, trail):
                yield from completions(o + 1)
            for e in reversed(trail):
                toggle(rows, *edges[e], assigned[e])
                assigned[e] = UNSET

    try:
        return list(islice(completions(0), limit))  # islice takes a limit up to sys.maxsize
    finally:
        del completions  # it refers to itself; a refused solve is freed without the collector too
