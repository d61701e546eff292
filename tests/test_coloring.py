"""Core coloring type, census oracle, and the bit-parallel fast path."""

import random
import tracemalloc
from math import comb

import pytest

from ramsey333 import (
    BudgetError,
    Color,
    EdgeColoring,
    MonoTriangle,
    census,
    color_degree_profile,
    construct_gf16,
    delete_vertex,
    edge_index,
    edge_list,
    fast_mono_counts,
    permute_colors,
    permute_vertices,
    random_coloring,
)
from ramsey333.coloring import bit_rows

ALL_B_K3 = EdgeColoring.from_string(3, "BBB")
RAINBOW_K3 = EdgeColoring.from_string(3, "BRY")


def test_edge_index_corners():
    assert edge_index(0, 1, 17) == 0
    assert edge_index(0, 16, 17) == 15
    assert edge_index(15, 16, 17) == 135


def test_edge_index_is_a_bijection():
    for n in (2, 5, 17):
        seen = [edge_index(i, j, n) for i in range(n) for j in range(i + 1, n)]
        assert sorted(seen) == list(range(n * (n - 1) // 2))
        for o in seen:
            i, j = edge_list(n)[o]
            assert edge_index(i, j, n) == o


@pytest.mark.parametrize("i,j", [(1, 1), (3, 2), (0, 17), (-1, 2)])
def test_edge_index_rejects_bad_pairs(i, j):
    with pytest.raises(ValueError):
        edge_index(i, j, 17)


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(3, b"\x00\x00")  # wrong length
    with pytest.raises(ValueError):
        EdgeColoring(3, b"\x00\x00\x03")  # not a color
    with pytest.raises(ValueError):
        EdgeColoring(0, b"")
    for bad, o in ((bytearray(b"\x00\x03\x00"), 1), ([0, 0, 3], 2)):
        with pytest.raises(ValueError, match=rf"ordinal {o} must be 0 \(B\), 1 \(R\) or 2 \(Y\), got 3"):
            EdgeColoring(3, bad)


def test_coloring_stores_bytes_from_any_byte_sequence():
    ref = EdgeColoring(3, b"\x00\x01\x02")
    for colors in (bytearray(b"\x00\x01\x02"), [0, 1, 2], memoryview(b"\x00\x01\x02")):
        c = EdgeColoring(3, colors)
        assert type(c.colors) is bytes
        assert c == ref and hash(c) == hash(ref)
        assert fast_mono_counts(c) == (0, 0, 0)
    with pytest.raises(TypeError):
        EdgeColoring(3, 3)


def test_color_order_and_chars():
    assert Color.BLUE < Color.RED < Color.YELLOW
    assert [c.char for c in Color] == ["B", "R", "Y"]
    assert Color.from_char("R") is Color.RED
    for text in ("G", "", "BR", "RY", "BRY"):  # exactly one character
        with pytest.raises(ValueError):
            Color.from_char(text)


def test_census_single_triangles():
    cen = census(ALL_B_K3)
    assert cen.mono == (1, 0, 0)
    assert cen.bichromatic == 0 and cen.rainbow == 0
    assert cen.mono_list[0][:3] == (0, 1, 2)

    cen = census(RAINBOW_K3)
    assert cen.mono == (0, 0, 0)
    assert cen.rainbow == 1


def test_census_degenerate_sizes():
    for n in (1, 2):
        cen = census(random_coloring(n, 3, 1))
        assert cen.total == 0 and cen.mono == (0, 0, 0)


def test_census_conservation_and_mono_list():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randrange(3, 15)
        c = random_coloring(n, 3, rng.getrandbits(64))
        cen = census(c)
        assert cen.total == n * (n - 1) * (n - 2) // 6
        assert cen.mono_list == tuple(sorted(cen.mono_list))
        for i, j, k, col in cen.mono_list:
            assert c.color(i, j) == c.color(i, k) == c.color(j, k) == col
        assert tuple(sum(1 for t in cen.mono_list if t.color == x) for x in Color) == cen.mono


def test_mono_list_matches_a_triple_loop():
    for n in range(1, 21):
        for k in (2, 3):
            c = random_coloring(n, k, 1000 * n + k)
            expected = tuple(
                MonoTriangle(i, j, l, c.color(i, j))
                for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)
                if c.color(i, j) == c.color(i, l) == c.color(j, l)
            )
            assert census(c).mono_list == expected


def test_bit_rows_cache_keeps_rows_of_a_bounded_number_of_colorings():
    # 40 distinct colorings through both cached readers; census walks n=40, not n=200, for time
    for seed in range(40):
        fast_mono_counts(random_coloring(200, 3, seed))
        census(random_coloring(40, 3, seed)).mono_list
    assert bit_rows.cache_info().currsize <= 4


def test_edge_list_cache_keeps_a_bounded_number_of_sizes():
    for n in range(1, 41):
        assert len(edge_list(n)) == comb(n, 2)
    assert edge_list.cache_info().currsize <= 8


def test_census_memory_holds_no_triangle_list():
    # one tuple per monochromatic triangle would be about 0.9 MB here
    for seed in (1, 2, 3):
        c = random_coloring(64, 2, seed)
        tracemalloc.start()
        try:
            census(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_census_budget():
    # C(295,3) = 4,235,315 triples is the first n over 2^22; refused before
    # the walk, and n is never formatted
    with pytest.raises(BudgetError, match=r"^C\(n,3\) triples exceed the budget of 4194304$"):
        census(EdgeColoring(295, bytes(comb(295, 2))))


def test_fast_mono_counts_matches_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(3, 25)
        c = random_coloring(n, rng.choice((2, 3)), rng.getrandbits(64))
        assert fast_mono_counts(c) == census(c).mono


def test_fast_mono_counts_known_values():
    assert fast_mono_counts(construct_gf16()) == (0, 0, 0)
    assert fast_mono_counts(EdgeColoring.from_string(3, "RRR")) == (0, 1, 0)


def test_fast_mono_counts_has_no_vertex_cap():
    big = random_coloring(65, 3, 65)  # rows wider than a machine word
    assert fast_mono_counts(big) == census(big).mono


def test_permute_colors_identity_and_rotation():
    ident = {x: x for x in Color}
    assert permute_colors(ALL_B_K3, ident) == ALL_B_K3
    rot = {Color.RED: Color.YELLOW, Color.YELLOW: Color.BLUE, Color.BLUE: Color.RED}
    assert permute_colors(EdgeColoring.from_string(3, "RRR"), rot) == EdgeColoring.from_string(3, "YYY")
    for not_a_bijection in ({x: Color.BLUE for x in Color},
                            {Color.BLUE: Color.RED, Color.RED: Color.BLUE}):
        with pytest.raises(ValueError):
            permute_colors(ALL_B_K3, not_a_bijection)


def test_permute_colors_equivariance():
    rng = random.Random(55)
    perms = [
        {Color.BLUE: a, Color.RED: b, Color.YELLOW: c}
        for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    ]
    for _ in range(20):
        c = random_coloring(rng.randrange(3, 12), 3, rng.getrandbits(64))
        pi = {x: Color(y) for x, y in rng.choice(perms).items()}
        before = census(c).mono
        after = census(permute_colors(c, pi)).mono
        for x in Color:
            assert after[pi[x]] == before[x]


def test_permute_vertices_identity_involution_invariance():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randrange(3, 12)
        c = random_coloring(n, 3, rng.getrandbits(64))
        assert permute_vertices(c, list(range(n))) == c
        swap = list(range(n))
        swap[0], swap[n - 1] = swap[n - 1], swap[0]
        assert permute_vertices(permute_vertices(c, swap), swap) == c
        rho = list(range(n))
        rng.shuffle(rho)
        cen_a, cen_b = census(c), census(permute_vertices(c, rho))
        assert (cen_a.mono, cen_a.bichromatic, cen_a.rainbow) == (
            cen_b.mono, cen_b.bichromatic, cen_b.rainbow)
    with pytest.raises(ValueError):
        permute_vertices(ALL_B_K3, [0, 0, 2])


def test_delete_vertex_basics():
    k2 = delete_vertex(ALL_B_K3, 2)
    assert k2 == EdgeColoring.from_string(2, "B")
    k15 = delete_vertex(construct_gf16(), 3)
    assert k15.n == 15 and census(k15).mono == (0, 0, 0)
    with pytest.raises(ValueError):
        delete_vertex(ALL_B_K3, 3)
    with pytest.raises(ValueError, match="K_1"):
        delete_vertex(EdgeColoring(1, b""), 0)


def test_delete_vertex_never_increases_mono():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(4, 12)
        c = random_coloring(n, 3, rng.getrandbits(64))
        v = rng.randrange(n)
        before, after = census(c).mono, census(delete_vertex(c, v)).mono
        assert all(a <= b for a, b in zip(after, before))


def test_color_degree_profile():
    g = construct_gf16()
    for v in range(16):
        assert color_degree_profile(g, v) == (5, 5, 5)
    assert color_degree_profile(ALL_B_K3, 0) == (2, 0, 0)
    with pytest.raises(ValueError):
        color_degree_profile(ALL_B_K3, 5)


def test_profile_handshake():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(3, 12)
        c = random_coloring(n, 3, rng.getrandbits(64))
        sums = [0, 0, 0]
        for v in range(n):
            p = color_degree_profile(c, v)
            assert sum(p) == n - 1
            for x in range(3):
                sums[x] += p[x]
        per_color_edges = [sum(1 for b in c.colors if b == x) for x in range(3)]
        assert sums == [2 * e for e in per_color_edges]


def test_recolored():
    c = ALL_B_K3.recolored(1, Color.RED)
    assert c.color_string() == "BRB"
    assert ALL_B_K3.color_string() == "BBB"  # original untouched
    for ordinal in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            ALL_B_K3.recolored(ordinal, Color.RED)
