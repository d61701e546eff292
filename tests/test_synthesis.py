"""Vertex extensions and the 17-vertex assembly."""

import gc
import random
from itertools import combinations, product
from math import comb

import pytest

from ramsey333 import (
    COLORS,
    Color,
    ColoringTemplate,
    Coupling,
    EdgeColoring,
    NotTriangleFreeError,
    assemble,
    census,
    complete_edge,
    construct_gf16,
    cylinder_template,
    delete_vertex,
    edge_index,
    exhaustive_min,
    extend_with,
    extension_of_vertex,
    find_extensions,
    permute_colors,
    permute_vertices,
    random_coloring,
    solve_template,
    twin_k17,
)
from ramsey333.coloring import _spoke_dfs, bit_rows
from ramsey333.errors import BudgetError
from ramsey333.templates import FULL

# The 15-vertex core of the finite-field coloring extends back to a
# triangle-free K16 in exactly one way: the spokes it lost.  Regression
# constant established by the exhaustive DFS (cross-checked against brute
# force at n = 8 below).
GF16_K15_EXTENSION_COUNT = 1


def _gf16_k15():
    return delete_vertex(construct_gf16(), 0)


def test_find_extensions_on_single_edge_host():
    host = EdgeColoring.from_string(2, "B")
    exts = find_extensions(host)
    assert len(exts) == 8  # all 9 spoke pairs except (Blue, Blue)
    assert bytes([Color.BLUE, Color.BLUE]) not in exts


def test_find_extensions_requires_triangle_free_host():
    with pytest.raises(NotTriangleFreeError):
        find_extensions(EdgeColoring.from_string(3, "RRR"))


def test_find_extensions_complete_and_sound_vs_brute_force():
    g = construct_gf16()
    host = g
    while host.n > 8:
        host = delete_vertex(host, host.n - 1)
    pentagon = exhaustive_min(5, 2)[1]
    for small in (host, pentagon):
        brute = []
        for combo in product(range(3), repeat=small.n):
            ext = bytes(combo)
            if census(extend_with(small, ext)).total_mono == 0:
                brute.append(ext)
        assert find_extensions(small) == brute


def test_gf16_k15_extension_is_unique():
    k15 = _gf16_k15()
    exts = find_extensions(k15)
    assert len(exts) == GF16_K15_EXTENSION_COUNT
    assert exts[0] == extension_of_vertex(construct_gf16(), 0)
    assert type(exts[0]) is bytes
    assert type(extension_of_vertex(construct_gf16(), 0)) is bytes
    for v in (-1, 16, 3.0, True):  # a float or a bool vertex is refused, not taken as its int
        with pytest.raises(ValueError, match="out of range"):
            extension_of_vertex(construct_gf16(), v)


def test_every_k15_host_extends_only_by_its_deleted_vertex():
    # the 32 one-vertex deletions of the two K_16 colorings: each K_15 regrows
    # exactly the spokes it lost
    for c in (construct_gf16(), solve_template(cylinder_template(), limit=1)[0]):
        for v in range(16):
            assert find_extensions(delete_vertex(c, v)) == [extension_of_vertex(c, v)]


def test_spoke_searches_leave_no_cyclic_garbage(monkeypatch):
    # a recursive closure that refers to itself leaves the whole search state
    # of every call for the cycle collector, a call refused mid-search included
    k15 = _gf16_k15()
    cylinder = cylinder_template()
    gf16 = ColoringTemplate.from_coloring(construct_gf16())
    open_k10 = ColoringTemplate(10, bytes([FULL]) * comb(10, 2))

    def refused(t):
        monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 1000)
        with pytest.raises(BudgetError):
            solve_template(t)
        monkeypatch.undo()

    searches = (
        lambda: exhaustive_min(7, 2),
        lambda: exhaustive_min(6, 3),
        lambda: find_extensions(k15),
        lambda: solve_template(cylinder),
        lambda: solve_template(cylinder, limit=50),
        lambda: solve_template(gf16),
        lambda: refused(cylinder),
        lambda: refused(open_k10),
    )
    gc.collect()
    gc.disable()
    try:
        for search in searches:
            search()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_k16_hosts_have_no_extension():
    # R(3,3,3) = 17: a triangle-free host has n <= 16, and a K_16 host's DFS
    # dies out, so find_extensions is bounded on every host it accepts
    for host in (construct_gf16(), solve_template(cylinder_template(), limit=1)[0]):
        assert host.n == 16
        assert find_extensions(host) == []


def _spoke_vectors(host, bound):
    """Every spoke vector from a new vertex to host closing fewer than `bound` triangles."""
    out = []

    def leaf(spokes, count):
        out.append(bytes(spokes))
        return bound

    _spoke_dfs([[*r, 0] for r in bit_rows(host)], host.n, (0, 1, 2), 0, bound, leaf)
    return out


@pytest.mark.parametrize("host", ["gf16", "cylinder"])
def test_one_added_vertex_closes_five_triangles_and_only_twins_close_five(host):
    # a vertex added to a triangle-free K_16 closes at least 5 triangles, and exactly 5
    # only as a twin: host vertex v's spokes with any color x on the edge to v
    h = construct_gf16() if host == "gf16" else solve_template(cylinder_template())[0]
    rho = list(range(16))
    random.Random(17).shuffle(rho)
    pi = {Color.BLUE: Color.RED, Color.RED: Color.YELLOW, Color.YELLOW: Color.BLUE}
    image = permute_colors(permute_vertices(h, rho), pi)
    inv = sorted(range(16), key=rho.__getitem__)
    fives = []
    for c in (h, image):
        assert _spoke_vectors(c, 5) == []
        listed = _spoke_vectors(c, 6)
        twins = {e[:v] + bytes([x]) + e[v:]
                 for v in range(16) for e in [extension_of_vertex(c, v)] for x in range(3)}
        assert len(listed) == 48 and set(listed) == twins
        assert all(sorted(census(extend_with(c, s)).mono) == [0, 0, 5] for s in listed)
        fives.append(listed)
    # the relabelling maps the host's 48 onto its image's: s'[a] = pi[s[inv[a]]]
    assert {bytes(pi[s[inv[a]]] for a in range(16)) for s in fives[0]} == set(fives[1])


def test_extend_with_round_trip():
    g = construct_gf16()
    k15 = delete_vertex(g, 15)
    restored = extend_with(k15, extension_of_vertex(g, 15))
    assert restored == g
    with pytest.raises(ValueError, match="extension length 3"):  # the length is checked first
        extend_with(k15, bytes([Color.BLUE, 7, Color.BLUE]))
    # a bad spoke is named by its index, not by an ordinal of the K_16 or by bytes()'s message
    for bad in (7, -1):
        with pytest.raises(ValueError, match=rf"^spoke 2 must be 0 \(B\), 1 \(R\) or 2 \(Y\), got {bad}$"):
            extend_with(k15, [0, 1, bad] + [0] * 12)


def test_vertex_operations_match_pairwise_definition():
    rng = random.Random(1313)
    for n in range(1, 26):
        c = random_coloring(n, 3, rng.getrandbits(64))
        e = bytes(rng.randrange(3) for _ in range(n))
        bigger = extend_with(c, e)
        assert delete_vertex(bigger, n) == c
        assert extension_of_vertex(bigger, n) == e
        for v in range(n):
            keep = [u for u in range(n) if u != v]
            ext = extension_of_vertex(c, v)
            assert len(ext) == n - 1
            assert all(ext[i] == c.color(u, v) for i, u in enumerate(keep))
            if n > 1:
                d = delete_vertex(c, v)
                assert all(d.color(i, j) == c.color(keep[i], keep[j])
                           for i, j in combinations(range(n - 1), 2))


def test_moving_a_vertex_to_the_end_is_deleting_and_extending_it():
    # rho_v sends v to n - 1 and the vertices above v one down; it pins the direction
    # of permute_vertices: edge (rho[i], rho[j]) of the result is edge (i, j) of c
    for n in range(2, 21):
        for seed in (1, 2, 3):
            c = random_coloring(n, 3, seed)
            for v in range(n):
                rho = [u - (u > v) for u in range(n)]
                rho[v] = n - 1
                moved = extend_with(delete_vertex(c, v), extension_of_vertex(c, v))
                assert permute_vertices(c, rho) == moved


def test_extensions_extend_triangle_free():
    k15 = _gf16_k15()
    for ext in find_extensions(k15):
        assert census(extend_with(k15, ext)).mono == (0, 0, 0)


def test_assemble_builds_one_open_edge_template():
    k15 = _gf16_k15()
    ext = find_extensions(k15)[0]
    t = assemble(k15, ext, ext)
    assert t.n == 17
    assert t.open_ordinals() == [edge_index(15, 16, 17)]
    # both 16-vertex restrictions are the same triangle-free coloring
    for x in COLORS:
        rep = complete_edge(t, x)
        for dropped in (15, 16):
            assert census(delete_vertex(rep.coloring, dropped)).mono == (0, 0, 0)
    for x in (1.0, True, 3):  # 1.0 failed late as a tuple index, True was taken as red
        with pytest.raises(ValueError, match="color must be"):
            complete_edge(t, x)


def test_assemble_preconditions():
    k15 = _gf16_k15()
    ext = find_extensions(k15)[0]
    with pytest.raises(ValueError):
        assemble(delete_vertex(k15, 0), ext, ext)  # 14 vertices
    with pytest.raises(ValueError, match="extension eb has length 14, need 15"):
        assemble(k15, ext, ext[:14])
    with pytest.raises(NotTriangleFreeError):
        bad = EdgeColoring(15, bytes(len(k15.colors)))  # all blue, full of triangles
        assemble(bad, ext, ext)
    with pytest.raises(NotTriangleFreeError):
        # recoloring one spoke breaks the extension
        broken = bytearray(ext)
        broken[0] = (broken[0] + 1) % 3
        assemble(k15, bytes(broken), ext)


def test_complete_edge_requires_one_open_edge():
    rainbow = EdgeColoring.from_string(3, "BRY")
    with pytest.raises(ValueError):
        complete_edge(ColoringTemplate.from_coloring(rainbow), Color.BLUE)


def test_complete_edge_refuses_couplings():
    # closing edge 2 with Y would break the coupling that ties it to edge 1
    t = ColoringTemplate(3, b"\x01\x02\x07", (Coupling(1, 2, 0),))  # B, R, open
    with pytest.raises(ValueError, match="coupling"):
        complete_edge(t, Color.YELLOW)


def _manual_assembly(host, ea, eb):
    """Mount two extensions over any host, leaving the last edge open."""
    n = host.n + 2
    domains = []
    for i in range(n):
        for j in range(i + 1, n):
            if j < host.n:
                domains.append(1 << host.color(i, j))
            elif j == host.n:
                domains.append(1 << ea[i])
            elif i < host.n:
                domains.append(1 << eb[i])
            else:
                domains.append(0b111)
    return ColoringTemplate(n, domains)


def test_overlap_law_with_distinct_extensions():
    # pentagon host: triangle-free K5 with plenty of distinct extensions
    _, host = exhaustive_min(5, 2)
    assert census(host).total_mono == 0
    exts = find_extensions(host)
    assert len(exts) > 1
    pairs = [(exts[0], exts[1]), (exts[1], exts[0]), (exts[0], exts[-1]),
             (exts[2], exts[2])]
    for ea, eb in pairs:
        t = _manual_assembly(host, ea, eb)
        for x in COLORS:
            rep = complete_edge(t, x)
            overlap = sum(
                1 for v in range(host.n)
                if ea[v] == eb[v] == x
            )
            expected = [0, 0, 0]
            expected[x] = overlap
            assert rep.census.mono == tuple(expected)
            assert rep.triangles_through_new_edge == rep.census.total_mono


def test_triangles_through_new_edge_match_the_listed_triangles():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 13)
        c = random_coloring(n, 3, rng.getrandbits(64))
        o = rng.randrange(len(c.colors))
        domains = bytearray(ColoringTemplate.from_coloring(c).domains)
        domains[o] = FULL
        t = ColoringTemplate(n, bytes(domains))
        u, v = tuple(combinations(range(n), 2))[o]
        for x in COLORS:
            rep = complete_edge(t, x)
            listed = sum(1 for tr in rep.census.mono_list if u in tr[:3] and v in tr[:3])
            assert rep.triangles_through_new_edge == listed


def test_twin_k17_counts():
    for x in COLORS:
        rep = twin_k17(x)
        expected = [0, 0, 0]
        expected[x] = 5
        assert rep.census.mono == tuple(expected)
        assert rep.triangles_through_new_edge == 5
        assert sum(rep.census.mono) + rep.census.bichromatic + rep.census.rainbow == comb(17, 3)
        for tri in rep.census.mono_list:
            assert tri.color == x
            assert {15, 16} <= {tri.i, tri.j, tri.k}
    for x in (1.0, True, 3):
        with pytest.raises(ValueError, match="color must be"):
            twin_k17(x)


def test_twin_k17_mono_triangles_match_spoke_class():
    rep = twin_k17(Color.BLUE, deleted_vertex=0)
    ext = extension_of_vertex(construct_gf16(), 0)
    blue_spokes = {v for v, col in enumerate(ext) if col == Color.BLUE}
    assert {tri[:3] for tri in rep.census.mono_list} == {
        (v, 15, 16) for v in blue_spokes
    }


def test_twin_k17_any_deleted_vertex():
    for v in (3, 9):
        rep = twin_k17(Color.RED, deleted_vertex=v)
        assert rep.census.mono == (0, 5, 0)
