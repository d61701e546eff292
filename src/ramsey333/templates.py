"""Partial colorings: per-edge color domains plus edge-to-edge couplings.

A template generalizes "a complete graph minus some color decisions": every
edge carries a nonempty domain of allowed colors, and optional couplings tie
one edge's color to another's through the cyclic shift Blue -> Red -> Yellow
-> Blue.  A template whose domains are all singletons is exactly a coloring.
Domains are 3-bit color masks held in one `bytes`, like `EdgeColoring.colors`:
bit x set means color x is allowed, so FULL = 0b111 leaves an edge open.

solve_template completes a template into triangle-free colorings by
depth-first backtracking: edges are decided in ordinal order, colors tried
in order B < R < Y, coupled edges forced immediately, and any assignment
that closes a monochromatic triangle or gives a vertex a sixth edge of one
color is pruned.  After each assignment a forward check (Haralick & Elliott,
1980) looks at the undecided edges at the vertices it touched and backtracks
as soon as one has no usable color left.  The search order is fixed, so the
first solution is canonical and reproducible; SOLVE_BUDGET caps its DFS nodes.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import Color, EdgeColoring, _edge_bytes, _make_via_new, edge_list, toggle
from .errors import BudgetError

FULL = 0b111  # the domain mask that allows every color
SOLVE_BUDGET = 1 << 18  # most DFS nodes (edge decisions) one solve_template call visits


class Coupling(NamedTuple):
    """Functional constraint: color(dst) = (color(src) + shift) % 3."""

    src: int
    dst: int
    shift: int


class _ColoringTemplateFields(NamedTuple):
    n: int
    domains: bytes
    couplings: tuple[Coupling, ...]


class ColoringTemplate(_ColoringTemplateFields):
    """Partial coloring of K_n: one color mask, 1 to 7, per edge ordinal."""

    __slots__ = ()
    _make = classmethod(_make_via_new)

    def __new__(cls, n, domains, couplings=()):
        domains = _edge_bytes(n, domains, "domain", bytes(range(1, 8)), "a color mask 1-7")
        couplings = tuple(cp if type(cp) is Coupling else Coupling(*cp) for cp in couplings)
        for cp in couplings:
            if not type(cp.src) is type(cp.dst) is type(cp.shift) is int:
                raise ValueError(f"coupling fields must be ints: {cp}")
            if not (0 <= cp.src < len(domains) and 0 <= cp.dst < len(domains)):
                raise ValueError(f"coupling ordinal out of range: {cp}")
            if cp.src == cp.dst:
                raise ValueError(f"coupling ties an edge to itself: {cp}")
            if cp.shift not in (0, 1, 2):
                raise ValueError(f"coupling shift must be 0, 1 or 2: {cp}")
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
            i, j = edge_list(t.n)[o]
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
    """Triangle-free completions of a template, at most `limit`, in DFS order.

    Deterministic: edges in ordinal order, colors in order B < R < Y,
    couplings propagated eagerly.  An empty list means no completion exists.
    Raises BudgetError mid-search at node SOLVE_BUDGET + 1 (50 cylinder solutions visit 30,201).
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n = t.n
    m = len(t.domains)
    edges = edge_list(n)
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
    solutions: list[EdgeColoring] = []
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

    def dfs(start: int) -> bool:
        if next(tickets, None) is None:
            raise BudgetError(f"DFS nodes exceed the budget of {SOLVE_BUDGET}")
        o = start
        while o < m and assigned[o] != UNSET:
            o += 1
        if o == m:
            solutions.append(EdgeColoring(n, bytes(assigned)))
            return len(solutions) >= limit
        for x in (0, 1, 2):  # a color outside o's domain fails in feasible_mask
            trail: list[int] = []
            if assign_with_couplings(o, x, trail):
                if dfs(o + 1):
                    return True
            for e in reversed(trail):
                toggle(rows, *edges[e], assigned[e])
                assigned[e] = UNSET
        return False

    dfs(0)
    return solutions
