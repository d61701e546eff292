"""The finite-field coloring and the reconstructed cylinder coloring."""

import hashlib
from itertools import combinations, product

import pytest

from ramsey333 import (
    COLORS,
    CYLINDER_LABELS,
    Color,
    EdgeColoring,
    census,
    color_degree_profile,
    construct_gf16,
    cubic_classes,
    cylinder_template,
    edge_index,
    fast_mono_counts,
    sigma,
    solve_template,
    template_violations,
)

# First completion of the cylinder rules under the fixed search order.
# Regression pin: recovered once by solve_template, stable by contract.
CANONICAL_CYLINDER = (
    "BBBBBRRRRRYYYYYRRYYBBRRYYBBYRYRYRRBYBYBYRBYRRBYBRBYRYBRBYBRR"
    "BRYBYYRRBBRYBBYYYBBRRYYBBYBYYRBRBYYRBRYYRBRYYBYYRRBBRRRBRRBB"
)


def test_sigma_cycle():
    assert sigma(Color.RED) == Color.YELLOW
    assert sigma(Color.YELLOW) == Color.BLUE
    assert sigma(Color.BLUE) == Color.RED
    for x in Color:
        assert sigma(sigma(sigma(x))) == x
    for x in (2.0, True, 3, -1):  # 2.0 was shifted to blue, 3 taken as 0
        with pytest.raises(ValueError, match="color must be"):
            sigma(x)


def test_gf16_coloring_is_triangle_free():
    cen = census(construct_gf16())
    assert cen.mono == (0, 0, 0)


def test_gf16_coloring_is_reproducible():
    assert construct_gf16() == construct_gf16()
    assert construct_gf16().color(0, 8) == Color.BLUE  # 0 XOR 8 in class 0


def test_gf16_profiles_balanced():
    g = construct_gf16()
    for v in range(16):
        assert color_degree_profile(g, v) == (5, 5, 5)


def test_cubic_classes_partition():
    classes = cubic_classes()
    assert classes[0] == frozenset({1, 8, 12, 10, 15})  # g^0, g^3, g^6, g^9, g^12
    assert all(len(cls) == 5 for cls in classes)
    assert frozenset().union(*classes) == frozenset(range(1, 16))
    for a, b in combinations(range(3), 2):
        assert not classes[a] & classes[b]


def test_class_of():
    g = construct_gf16()
    for j, cls in enumerate(cubic_classes()):
        for x in cls:
            assert g.color(0, x) == COLORS[j]


def test_sum_freeness_and_triangle_freeness_agree():
    # two independent routes to the same fact
    for cls in cubic_classes():
        for a, b in combinations(sorted(cls), 2):
            assert (a ^ b) not in cls
    assert census(construct_gf16()).total_mono == 0


def test_cylinder_labels():
    assert CYLINDER_LABELS[0] == "O"
    assert CYLINDER_LABELS[1] == "A1"
    assert CYLINDER_LABELS[10] == "B5"
    assert CYLINDER_LABELS[15] == "C5"
    assert CYLINDER_LABELS.index("C2") == 12
    assert [CYLINDER_LABELS.index(CYLINDER_LABELS[v]) for v in range(16)] == list(range(16))
    with pytest.raises(ValueError):
        CYLINDER_LABELS.index("D1")


# sha256 of cylinder_template()'s domains + repr(couplings): the rules are pinned as built
CYLINDER_TEMPLATE_SHA256 = "9984ddd643f2905734efd1e32017401a31d3ca01a5483fa8e12f07ad83020a2a"


def test_cylinder_template_domains():
    t = cylinder_template()
    digest = hashlib.sha256(t.domains + repr(t.couplings).encode()).hexdigest()
    assert digest == CYLINDER_TEMPLATE_SHA256
    v = CYLINDER_LABELS.index
    # bit x of a domain mask allows color x: B = 0b001, R = 0b010, Y = 0b100
    assert t.domains[edge_index(0, v("A3"), 16)] == 0b001
    assert t.domains[edge_index(0, v("B2"), 16)] == 0b010
    assert t.domains[edge_index(0, v("C5"), 16)] == 0b100
    assert t.domains[edge_index(v("A1"), v("A2"), 16)] == 0b110  # red or yellow
    assert t.domains[edge_index(v("B1"), v("B4"), 16)] == 0b101  # yellow or blue
    assert t.domains[edge_index(v("C3"), v("C4"), 16)] == 0b011  # blue or red
    # cross edges keep the full domain; their colors come from couplings
    assert t.domains[edge_index(v("A1"), v("B2"), 16)] == 0b111


def test_cylinder_template_couplings_cover_all_cross_triples():
    t = cylinder_template()
    by_src = {}
    for cp in t.couplings:
        by_src.setdefault(cp.src, []).append(cp)
    assert len(t.couplings) == 50
    for i, j in product(range(1, 6), repeat=2):
        ab = edge_index(i, 5 + j, 16)
        bc = edge_index(5 + i, 10 + j, 16)
        ca = edge_index(j, 10 + i, 16)
        assert sorted((cp.shift, cp.dst) for cp in by_src[ab]) == [(1, bc), (2, ca)]
    # the color of (B2, C4) is tied to (A2, B4), one sigma step ahead
    b2c4 = edge_index(7, 14, 16)
    a2b4 = edge_index(2, 9, 16)
    assert any(cp.src == a2b4 and cp.dst == b2c4 and cp.shift == 1
               for cp in t.couplings)


def test_cylinder_solution_canonical():
    sols = solve_template(cylinder_template(), limit=1)
    assert len(sols) == 1
    assert sols[0].color_string() == CANONICAL_CYLINDER


def test_cylinder_solutions_are_valid():
    t = cylinder_template()
    for s in solve_template(t, limit=3):
        assert census(s).mono == (0, 0, 0)
        assert template_violations(t, s) == []
        for v in range(16):
            assert color_degree_profile(s, v) == (5, 5, 5)
        for i, j in product(range(1, 6), repeat=2):
            ab = s.color(i, 5 + j)
            assert s.color(5 + i, 10 + j) == sigma(ab)
            assert s.color(j, 10 + i) == sigma(sigma(ab))


def _five_cycle_classes(bits):
    """Check a 2-coloring of K5 (10 bits, ordinal order) splits into two 5-cycles."""
    degrees = [[0] * 5, [0] * 5]
    o = 0
    for i in range(5):
        for j in range(i + 1, 5):
            x = bits >> o & 1
            degrees[x][i] += 1
            degrees[x][j] += 1
            o += 1
    # a 2-regular graph on 5 vertices is a single 5-cycle
    return all(d == 2 for cls in degrees for d in cls)


def _mono_free_k5(bits):
    o = 0
    colors = {}
    for i in range(5):
        for j in range(i + 1, 5):
            colors[i, j] = bits >> o & 1
            o += 1
    return not any(
        colors[i, j] == colors[i, k] == colors[j, k]
        for i, j, k in combinations(range(5), 3)
    )


def test_pentagon_pentagram_characterization():
    # exhaustive ground truth over all 2^10 two-colorings of K5
    for bits in range(1 << 10):
        assert _mono_free_k5(bits) == _five_cycle_classes(bits)


def test_cylinder_blocks_decompose_into_five_cycles():
    for s in solve_template(cylinder_template(), limit=3):
        for base in (1, 6, 11):
            block = [base + t for t in range(5)]
            seen_colors = sorted({s.color(u, v) for u, v in combinations(block, 2)})
            assert len(seen_colors) == 2
            for x in seen_colors:
                degs = [sum(1 for w in block if w != v and s.color(v, w) == x) for v in block]
                assert degs == [2] * 5


def test_chord_length_colourings_of_k17_carry_at_least_17_triangles():
    # Colour K_17 by chord length min(|i - j|, 17 - |i - j|), length 1 blue (up to a
    # colour permutation).  These are exactly the colourings that every rotation of the
    # 17-gon keeps, and none comes near the five triangles of twin_k17.
    counts = []
    for choice in product(range(3), repeat=7):  # lengths 2 to 8
        length_color = (None, 0) + choice
        c = EdgeColoring(17, bytes(length_color[min(j - i, 17 - j + i)]
                                   for i, j in combinations(range(17), 2)))
        counts.append(sum(fast_mono_counts(c)))
    assert len(counts) == 3**7 == 2187
    assert min(counts) == 17
    assert counts.count(17) == 64
