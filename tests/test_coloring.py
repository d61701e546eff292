"""Core coloring type, census oracle, and the bit-parallel fast path."""

import random
import re
import tracemalloc
from itertools import combinations, product
from math import comb, inf

import pytest

from ramsey333 import (
    BudgetError,
    Color,
    ColoringTemplate,
    EdgeColoring,
    MonoTriangle,
    SearchParams,
    census,
    color_degree_profile,
    construct_gf16,
    delete_vertex,
    edge_index,
    extend_with,
    extension_of_vertex,
    fast_mono_counts,
    minimize,
    move_delta,
    permute_colors,
    permute_vertices,
    random_coloring,
)
from ramsey333.coloring import _color, _edge_at, _rows, _spoke_dfs, bit_rows, toggle

ALL_B_K3 = EdgeColoring.from_string(3, "BBB")
RAINBOW_K3 = EdgeColoring.from_string(3, "BRY")


def test_edge_index_corners():
    assert edge_index(0, 1, 17) == 0
    assert edge_index(0, 16, 17) == 15
    assert edge_index(15, 16, 17) == 135


def test_edge_index_is_a_bijection():
    for n in range(1, 41):
        edges = tuple(combinations(range(n), 2))
        assert len(edges) == comb(n, 2)
        seen = [edge_index(i, j, n) for i in range(n) for j in range(i + 1, n)]
        assert sorted(seen) == list(range(comb(n, 2)))
        for o in seen:
            assert _edge_at(o, n) == edges[o]
            assert edge_index(*edges[o], n) == o
        with pytest.raises(ValueError):
            _edge_at(comb(n, 2), n)


@pytest.mark.parametrize("i,j", [(1, 1), (3, 2), (0, 17), (-1, 2)])
def test_edge_index_rejects_bad_pairs(i, j):
    with pytest.raises(ValueError):
        edge_index(i, j, 17)


def test_edge_index_refuses_floats_and_bools():
    # each was taken as its int, or failed later as a byte index; a str or None raised TypeError
    for i, j, n in ((1.0, 2, 3), (True, 2, 3), (0, 1, 2.5), (0, 2.0, 3), (0, 1, True),
                    (0, "1", 3), (0, 1, "3"), (0, 1, None), (None, 1, 3)):
        with pytest.raises(ValueError, match=r"^invalid edge \("):
            edge_index(i, j, n)
    with pytest.raises(ValueError, match=r"^invalid edge \(0, '1'\) for n=3$"):
        edge_index(0, "1", 3)  # by repr, so the str does not read like a valid 1
    for i, j in ((1.0, 2), (2, 1.0), (True, 2), ("1", 2), (0, None), (None, 0), (1, 1), (0, 0)):
        with pytest.raises(ValueError, match=r"^invalid edge \("):  # before min/max compare them
            ALL_B_K3.color(i, j)
    with pytest.raises(ValueError, match=r"^invalid edge \(1, 1\) for n=3$"):
        ALL_B_K3.color(1, 1)  # a loop is no edge
    assert edge_index(Color.RED, Color.YELLOW, 3) == 2  # an int subclass is an int


class _UnprintableInt(int):
    def __repr__(self):
        raise AssertionError("a valid call formatted a refusal message")


def test_valid_calls_format_no_refusal_message():
    # every check passes these ints, so no call may build its message (repr or str)
    one, two, five = (_UnprintableInt(v) for v in (1, 2, 5))
    c = random_coloring(5, 3, 1)
    assert _color(two) is Color.YELLOW
    assert edge_index(one, two, five) == edge_index(1, 2, 5)
    assert c.color(two, one) == c.color(1, 2)
    assert c.recolored(one, two).colors[1] == 2
    assert delete_vertex(c, two) == delete_vertex(c, 2)
    assert color_degree_profile(c, two) == color_degree_profile(c, 2)
    x = _UnprintableInt((c.colors[1] + 1) % 3)
    assert move_delta(c, one, x) == move_delta(c, 1, int(x))
    assert extension_of_vertex(c, two) == extension_of_vertex(c, 2)


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(3, b"\x00\x00")  # wrong length
    with pytest.raises(ValueError):
        EdgeColoring(3, b"\x00\x00\x03")  # not a color
    for n in (0, True):  # a bool n would be written back as True, which no reader takes
        with pytest.raises(ValueError, match="vertex count"):
            EdgeColoring(n, b"")
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


# Colors, domains and spokes are one byte per item, read by one decoder under one rule.
# Each entry: the record built from three items, the name of item 2, the first value above
# the allowed ones.
ITEM_SEQUENCES = {
    "colors": (lambda items: EdgeColoring(3, items), "edge color at edge ordinal 2", 3),
    "domains": (lambda items: ColoringTemplate(3, items), "domain at edge ordinal 2", 8),
    "spokes": (lambda items: extend_with(RAINBOW_K3, items), "spoke 2", 3),
}


@pytest.mark.parametrize("kind, item", [
    (kind, item) for kind, (_, _, above) in ITEM_SEQUENCES.items()
    for item in (True, -1, above, 256, 300, 1.0, "B", None)
])
def test_one_rule_for_color_domain_and_spoke_items(kind, item):
    build, name, _ = ITEM_SEQUENCES[kind]
    if isinstance(item, int):  # a bool too: each is named by its position and repr
        with pytest.raises(ValueError, match=rf"^{name} must be .+, got {re.escape(repr(item))}$"):
            build([1, 2, item])
    else:
        with pytest.raises(TypeError):
            build([1, 2, item])


@pytest.mark.parametrize("kind", sorted(ITEM_SEQUENCES))
def test_item_sequences_decode_alike_from_any_container(kind):
    build = ITEM_SEQUENCES[kind][0]
    ref = build(b"\x01\x02\x01")
    for items in ([1, 2, 1], (1, 2, 1), bytearray(b"\x01\x02\x01"), [Color.RED, Color.YELLOW, 1]):
        assert build(items) == ref


def test_from_string_refuses_a_non_str():
    for s in (None, 123, b"BRY"):  # each raised AttributeError from str.encode's lookup
        with pytest.raises(TypeError, match=type(s).__name__):
            EdgeColoring.from_string(3, s)


def test_color_order_and_chars():
    assert Color.BLUE < Color.RED < Color.YELLOW
    assert [c.char for c in Color] == ["B", "R", "Y"]
    # the text form of a whole coloring reads back through the same alphabet
    for n in range(1, 41):
        c = random_coloring(n, 3, n)
        assert EdgeColoring.from_string(n, c.color_string()) == c
    for ch in ("X", "b", "?", "\u00c9", "\x00"):  # any other character is named, non-ASCII too
        for at in (0, 1, 2):
            s = "BRY"[:at] + ch + "BRY"[at + 1:]
            with pytest.raises(ValueError, match=f"not a color character: {re.escape(repr(ch))}"):
                EdgeColoring.from_string(3, s)


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
        assert sum(cen.mono) + cen.bichromatic + cen.rainbow == comb(n, 3) == 0
        assert cen.mono == (0, 0, 0)


def test_census_conservation_and_mono_list():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randrange(3, 15)
        c = random_coloring(n, 3, rng.getrandbits(64))
        cen = census(c)
        assert sum(cen.mono) + cen.bichromatic + cen.rainbow == comb(n, 3)
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


def test_repeated_mono_lists_keep_no_memory():
    # tuple() of a generator over-allocates and then shrinks its tuple, so each call
    # left one more block on the interpreter's tuple free list: 2000 calls kept 160 KB
    cen = census(random_coloring(8, 3, 4))
    assert len(cen.mono_list) == 5
    tracemalloc.start()
    try:
        for _ in range(3000):
            cen.mono_list
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


def test_bit_rows_cache_keeps_rows_of_a_bounded_number_of_colorings():
    # 40 distinct colorings through both cached readers; census walks n=40, not n=200, for time
    for seed in range(40):
        fast_mono_counts(random_coloring(200, 3, seed))
        census(random_coloring(40, 3, seed)).mono_list
    assert bit_rows.cache_info().currsize <= 4


def test_rows_builds_fresh_lists_that_leave_the_cache_alone():
    c = random_coloring(12, 3, 5)
    rows = _rows(c)
    cached = bit_rows(c)
    assert rows == [list(r) for r in cached]
    again = _rows(c)
    assert again == rows and again is not rows
    assert all(a is not b for a, b in zip(again, rows))
    toggle(rows, 0, 1, (c.colors[0] + 1) % 3)
    assert rows != again
    assert bit_rows(c) is cached
    assert bit_rows(c) == tuple(tuple(r) for r in _rows(c))


def test_minimize_leaves_a_cached_start_as_built():
    # the climber toggles its own uncached rows of each start, never the cache's
    p = SearchParams(n=12, k=3, seed=9, restarts=2, steps_per_restart=50)
    start = random_coloring(p.n, p.k, random.Random(p.seed).getrandbits(64))
    cached = bit_rows(start)
    minimize(p)
    assert bit_rows(start) is cached
    assert cached == tuple(tuple(r) for r in _rows(start))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spoke_kernel_keeps_spokes_in_the_rows_and_carries_the_count(seed):
    # vertex 6 joins a K_6 already 7 triangles in: each leaf sees every spoke in the
    # rows and the count closed so far, and the rows end as given.  In the second case
    # the rows already hold spokes 1 and 4, both of edge (1, 4)'s color: they are pinned,
    # so their triangle (1, 4, 6) is the caller's, and the kernel neither counts nor flips them
    host = random_coloring(6, 3, seed)
    x14 = host.color(1, 4)
    for pins, pinned_triangles in (({}, 0), ({1: x14, 4: x14}, 1)):
        rows = [[*r, 0] for r in bit_rows(host)]
        for u, x in pins.items():
            toggle(rows, u, 6, x)
        given = [r.copy() for r in rows]
        before, start = census(host).total_mono + pinned_triangles, 7
        listed = []

        def leaf(spokes, count):
            masks = [sum(1 << u for u, x in enumerate(spokes) if x == y) for y in range(3)]
            assert [r[6] for r in rows] == masks
            extended = extend_with(host, bytes(spokes))
            assert rows == _rows(extended)
            assert count == start + census(extended).total_mono - before
            listed.append(bytes(spokes))
            return start + 3

        _spoke_dfs(rows, 6, (0, 1, 2), start, start + 3, leaf)
        brute = [bytes(s) for s in product(range(3), repeat=6)
                 if all(s[u] == x for u, x in pins.items())
                 and census(extend_with(host, bytes(s))).total_mono - before < 3]
        assert listed and listed == brute
        assert rows == given


def test_spoke_kernel_caps_color_degrees_at_five_only_at_bound_one():
    # host K_6: vertex 0 is blue to 1-4 and red to 5; 1-5 are a blue pentagon and a
    # yellow pentagram.  The rows also hold (0, 7) blue and (6, 7) red, edges to a later
    # vertex, so vertex 0 already has five blue edges and vertex 6 one red edge
    pentagon = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    edges = {(0, 1): 0, (0, 2): 0, (0, 3): 0, (0, 4): 0, (0, 5): 1, (0, 7): 0, (6, 7): 1}
    edges |= {e: 0 if e in pentagon else 2 for e in combinations(range(1, 6), 2)}
    rows = [[0] * 8 for _ in range(3)]
    for (i, j), x in edges.items():
        toggle(rows, i, j, x)
    given = [r.copy() for r in rows]

    def mono(colored):
        return sum(colored.get((a, b)) == colored.get((a, c)) == colored.get((b, c)) is not None
                   for a, b, c in combinations(range(8), 3))

    def brute(bound, cap=inf):
        out = []
        for s in product(range(3), repeat=6):
            colored = edges | {(u, 6): x for u, x in enumerate(s)}
            degrees = [sum(x == y and w in e for e, x in colored.items())
                       for w in range(8) for y in range(3)]
            if mono(colored) - mono(edges) < bound and max(degrees) <= cap:
                out.append(bytes(s))
        return out

    def listing(bound):
        out = []
        _spoke_dfs(rows, 6, (0, 1, 2), 0, bound, lambda s, count: out.append(bytes(s)) or bound)
        assert rows == given
        return out

    capped = listing(1)
    assert capped and capped == brute(1, 5)
    # the cap alone cuts these: spoke 0 blue gives vertex 0 a sixth blue edge, and five red
    # spokes give vertex 6 a sixth red edge, yet neither closes a triangle
    loose = brute(1, 6)
    assert any(s[0] == 0 for s in loose) and b"\x02\x01\x01\x01\x01\x01" in loose
    assert not any(s[0] == 0 for s in capped)
    uncapped = listing(2)
    assert uncapped == brute(2) != brute(2, 5)


def test_ordinal_walks_keep_no_pair_tables():
    # the walks iterate combinations: a table of pairs would keep ~130 KB at n = 64
    colorings = [random_coloring(n, 3, n) for n in (32, 48, 64)]
    tracemalloc.start()
    try:
        for c in colorings:
            fast_mono_counts(c)
            delete_vertex(c, 0)
            extension_of_vertex(c, 0)
            permute_vertices(c, range(c.n - 1, -1, -1))
        bit_rows.cache_clear()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


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
    for image in (1.0, True, 3):  # a bijection but for one image that is not a color value
        with pytest.raises(ValueError, match="color must be"):
            permute_colors(ALL_B_K3, {Color.BLUE: image, Color.RED: Color.BLUE, Color.YELLOW: 2})


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
    # a float or a bool entry sorts like its int, so the bijection test alone would pass it
    for not_a_bijection in ([0, 0, 2], [0, 1], [0, 1, 3], [0.0, 1, 2], [True, 0, 2]):
        with pytest.raises(ValueError, match="bijection"):
            permute_vertices(ALL_B_K3, not_a_bijection)


def test_delete_vertex_basics():
    k2 = delete_vertex(ALL_B_K3, 2)
    assert k2 == EdgeColoring.from_string(2, "B")
    k15 = delete_vertex(construct_gf16(), 3)
    assert k15.n == 15 and census(k15).mono == (0, 0, 0)
    for v in (3, 3.0, 1.0, True):  # a float or a bool vertex is refused, not taken as its int
        with pytest.raises(ValueError, match="out of range"):
            delete_vertex(ALL_B_K3, v)
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
    for v in (5, 3.0, 1.0, True):
        with pytest.raises(ValueError, match="out of range"):
            color_degree_profile(ALL_B_K3, v)


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
    for ordinal in (-1, 3, 3.0, 1.0, True):  # a float or a bool ordinal is refused too
        with pytest.raises(ValueError, match="out of range"):
            ALL_B_K3.recolored(ordinal, Color.RED)
    for x in (2.5, 1.0, True, 3, -1):  # 2.5 was painted yellow, True red
        with pytest.raises(ValueError, match=rf"^color must be 0 \(B\), 1 \(R\) or 2 \(Y\).*, got {x!r}$"):
            ALL_B_K3.recolored(0, x)
