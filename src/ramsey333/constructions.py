"""The two triangle-free 16-vertex colorings.

`construct_gf16` is the finite-field recipe.  The 16 elements of GF(16) are
ints 0..15 read as polynomials over GF(2) in the basis 1, x, x^2, x^3, with
x^4 = x + 1; addition is XOR, and x (0b0010) generates the 15 nonzero
elements.  The three cosets of the cubes {x^(3k)} split them into classes
of five.  Each class S is sum-free (a, b in S implies a XOR b not in S), so
coloring edge {u, w} by the class of u XOR w leaves no monochromatic
triangle: the three differences of any vertex triple XOR to zero, and a
class never contains both a pair and its sum.  The output is deterministic
and bit-identical across runs.

The cylinder coloring is defined by structural rules rather than an explicit
edge list: a hub vertex O with blue, red, yellow spokes to the three blocks
A1..A5, B1..B5, C1..C5; each block K_5 colored with two of the three colors;
and cross edges tied together by the cyclic shift sigma, so the color of
BiCj is sigma of AiBj and the color of CiAj is sigma squared of AiBj.
`cylinder_template` records exactly those rules.  They do not fix the class:
`solve_template` finds 72 triangle-free completions, 60 cylinder and 12
GF(16), and its first, which `construct --method cylinder` emits, is cylinder.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .coloring import COLORS, Color, EdgeColoring, _color, edge_index
from .templates import FULL, ColoringTemplate, Coupling

# Vertex roles: 0 = O, 1-5 = A1..A5, 6-10 = B1..B5, 11-15 = C1..C5.
CYLINDER_LABELS = ("O",) + tuple(f"{g}{i}" for g in "ABC" for i in range(1, 6))


def sigma(x: Color) -> Color:
    """The cyclic color shift Red -> Yellow -> Blue -> Red; sigma^3 = identity."""
    return COLORS[(_color(x) + 1) % 3]


def cubic_classes() -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The 3 cubic-residue cosets: class j = {x^(3k+j) : k = 0..4}."""
    powers, a = [], 1
    for _ in range(15):
        powers.append(a)
        a <<= 1
        if a & 0b10000:
            a ^= 0b10011  # x^4 = x + 1
    return tuple(frozenset(powers[j::3]) for j in range(3))


def construct_gf16() -> EdgeColoring:
    """Triangle-free K_16: vertex = field element, edge color = class of u XOR w."""
    # Residue class j colors its differences COLORS[j], fixed for canonical output.
    color_of = {d: x for x, cls in zip(COLORS, cubic_classes()) for d in cls}
    return EdgeColoring(16, bytes(color_of[u ^ w] for u, w in combinations(range(16), 2)))


def cylinder_template() -> ColoringTemplate:
    """Structural rules of the cylinder coloring as a 16-vertex template.

    Spokes are fixed (O-Ai blue, O-Bi red, O-Ci yellow), each block K_5 is
    restricted to two colors (A: red/yellow, B: yellow/blue, C: blue/red),
    AiBj cross edges are unrestricted, and couplings force
    color(BiCj) = sigma(color(AiBj)) and color(CiAj) = sigma^2(color(AiBj)).
    Ai, Bi and Ci are the vertices i, 5 + i and 10 + i (see CYLINDER_LABELS).
    """
    n = 16
    domains = bytearray([FULL]) * comb(n, 2)
    for g, spoke in zip((0, 5, 10), COLORS):
        # the hub 0 and block g + 1..g + 5: spokes take the spoke color, block edges the other two
        for u, v in combinations((0, *range(g + 1, g + 6)), 2):
            domains[edge_index(u, v, n)] = FULL ^ 1 << spoke if u else 1 << spoke

    couplings = []
    for i, j in product(range(1, 6), repeat=2):
        ab = edge_index(i, 5 + j, n)  # Ai Bj
        bc = edge_index(5 + i, 10 + j, n)  # Bi Cj
        ca = edge_index(j, 10 + i, n)  # the pair {Ci, Aj}, stored low-high
        couplings.append(Coupling(src=ab, dst=bc, shift=1))
        couplings.append(Coupling(src=ab, dst=ca, shift=2))

    return ColoringTemplate(n, domains, tuple(couplings))
