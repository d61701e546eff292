"""Template validation, coupling propagation, and the completion solver."""

import hashlib
import random
import sys
from itertools import product
from math import comb

import pytest

from ramsey333 import (
    BudgetError,
    Color,
    ColoringTemplate,
    Coupling,
    EdgeColoring,
    assemble,
    census,
    construct_gf16,
    cylinder_template,
    delete_vertex,
    edge_index,
    extension_of_vertex,
    parse_document,
    permute_vertices,
    serialize_template,
    sigma,
    solve_template,
    template_violations,
)
from ramsey333.templates import FULL

B, R, Y = 0b001, 0b010, 0b100  # one-color domain masks


def test_template_validation():
    with pytest.raises(ValueError):
        ColoringTemplate(3, [FULL, FULL])  # wrong domain count
    with pytest.raises(ValueError):
        ColoringTemplate(3, [FULL, FULL, 0])
    with pytest.raises(ValueError):
        ColoringTemplate(3, [FULL] * 3, [Coupling(0, 0, 1)])
    with pytest.raises(ValueError):
        ColoringTemplate(3, [FULL] * 3, [Coupling(0, 5, 1)])
    with pytest.raises(ValueError):
        ColoringTemplate(3, [FULL] * 3, [Coupling(0, 1, 7)])
    with pytest.raises(ValueError):
        ColoringTemplate(0, [])  # no vertices
    with pytest.raises(ValueError):
        ColoringTemplate(-1, [])


def test_any_sequence_of_masks_gives_a_hashable_template():
    expected = ColoringTemplate(3, b"\x01\x02\x07")
    for domains in ([B, R, FULL], (1, 2, 7), bytearray([B, R, FULL]), memoryview(b"\x01\x02\x07")):
        t = ColoringTemplate(3, domains)
        assert t == expected
        assert hash(t) == hash(expected)


def test_caller_mutation_does_not_reach_the_template():
    d = bytearray([B, R, FULL])
    t = ColoringTemplate(3, d)
    before = solve_template(t, limit=10)
    # were these seen, BBR and BBY would be new solutions and BRB would go
    d[1] |= B
    d[2] &= ~B
    assert t.domains == b"\x01\x02\x07"
    assert solve_template(t, limit=10) == before


@pytest.mark.parametrize("domains, message", [
    ([B, 0, FULL], "ordinal 1 must be a color mask 1-7, got 0"),
    ([B, R, 0b1000], "ordinal 2 must be a color mask 1-7, got 8"),
    (b"\xff\x00\x01", "ordinal 0 must be a color mask 1-7, got 255"),
    ([B, R], "need 3 domains"),
    ([B, R, 256], "ordinal 2 must be a color mask 1-7, got 256"),
])
def test_bad_domains_raise_value_error(domains, message):
    with pytest.raises(ValueError, match=message):
        ColoringTemplate(3, domains)


@pytest.mark.parametrize("domains", [[{0}, {1}, {0, 1, 2}], ["B", "R", "?"]])
def test_domains_that_are_not_masks_raise_type_error(domains):
    with pytest.raises(TypeError):
        ColoringTemplate(3, domains)


def test_couplings_are_normalised():
    coupled = ColoringTemplate(3, [FULL] * 3, [Coupling(0, 1, 1), Coupling(0, 2, 2)])
    plain = ColoringTemplate(3, [FULL] * 3, [(0, 1, 1), [0, 2, 2]])
    assert plain == coupled
    assert all(type(cp) is Coupling for cp in plain.couplings)
    hash(ColoringTemplate(3, [FULL] * 3, [Coupling(0, 1, 1)]))  # from a list of couplings
    assert solve_template(plain, limit=30) == solve_template(coupled, limit=30)
    for bad in (Coupling(0.0, 1, 1), (0, 1.0, 1), (0, 1, "1"), (3.0, 1, 1), (True, 2, 1),
                (0, True, 1), (0, 1, 3.0), (0, 1, True)):
        with pytest.raises(ValueError, match="must be ints"):
            ColoringTemplate(3, [FULL] * 3, [bad])


def test_domains_are_mask_bytes():
    g = construct_gf16()
    k15, ext = delete_vertex(g, 0), extension_of_vertex(g, 0)
    open17 = assemble(k15, ext, ext)
    templates = [
        ColoringTemplate.from_coloring(g),
        open17,
        cylinder_template(),
        parse_document(serialize_template(open17)).to_template(),
        ColoringTemplate(3, [B, R | Y, FULL]),
    ]
    for t in templates:
        assert type(t.domains) is bytes
        assert set(t.domains) <= set(range(1, 8))
    assert ColoringTemplate.from_coloring(g).domains == bytes(1 << x for x in g.colors)
    assert open17.domains[-1] == FULL and open17.open_ordinals() == [135]


def test_singleton_template_is_its_own_solution():
    rainbow = EdgeColoring.from_string(3, "BRY")
    sols = solve_template(ColoringTemplate.from_coloring(rainbow), limit=10)
    assert sols == [rainbow]

    mono = EdgeColoring.from_string(3, "BBB")
    assert solve_template(ColoringTemplate.from_coloring(mono), limit=10) == []


def test_solver_respects_domains_and_determinism():
    t = ColoringTemplate(4, [B, FULL, FULL, FULL, FULL, R | Y])
    sols = solve_template(t, limit=100)
    assert sols
    for s in sols:
        assert template_violations(t, s) == []
        assert census(s).total_mono == 0
    assert sols == solve_template(t, limit=100)  # deterministic order
    assert solve_template(t, limit=1) == sols[:1]


def test_coupling_propagation():
    # edge 1 must be one shift ahead of edge 0; edge 2 two shifts ahead
    t = ColoringTemplate(3, [FULL, FULL, FULL],
                         [Coupling(0, 1, 1), Coupling(0, 2, 2)])
    sols = solve_template(t, limit=30)
    # three rainbow rotations, no monochromatic option survives
    assert len(sols) == 3
    for s in sols:
        assert template_violations(t, s) == []
        a = Color(s.colors[0])
        assert Color(s.colors[1]) == sigma(a)
        assert Color(s.colors[2]) == sigma(sigma(a))
    # first solution starts from the lowest color of edge 0
    assert Color(sols[0].colors[0]) == Color.BLUE


def test_coupling_conflict_is_unsatisfiable():
    # forcing edge 1 to be both sigma(edge 0) and edge 0 itself cannot work
    t = ColoringTemplate(3, [FULL, FULL, FULL],
                         [Coupling(0, 1, 1), Coupling(0, 1, 0)])
    assert solve_template(t, limit=5) == []


def test_template_violations_reports():
    t = ColoringTemplate(3, [B, FULL, FULL], [Coupling(1, 2, 1)])
    good = EdgeColoring.from_string(3, "BRY")
    assert template_violations(t, good) == []
    bad_domain = EdgeColoring.from_string(3, "RRY")
    assert any("outside domain" in msg for msg in template_violations(t, bad_domain))
    bad_coupling = EdgeColoring.from_string(3, "BRB")
    assert any("coupling" in msg for msg in template_violations(t, bad_coupling))
    k4 = EdgeColoring.from_string(4, "BRYBRY")
    assert template_violations(t, k4) == ["vertex count mismatch: template n=3, coloring n=4"]
    same = ColoringTemplate(3, [FULL] * 3, [Coupling(0, 2, 0)])  # shift 0 keeps the color
    assert template_violations(same, EdgeColoring.from_string(3, "BRB")) == []
    assert template_violations(same, EdgeColoring.from_string(3, "BRR")) == [
        "coupling broken: edge 2 should be B (edge 0 shifted by 0)"
    ]


def test_open_ordinals():
    t = ColoringTemplate(3, [B, FULL, R])
    assert t.open_ordinals() == [1]


def test_limit_must_be_positive():
    t = ColoringTemplate(3, [FULL, FULL, FULL])
    with pytest.raises(ValueError):
        solve_template(t, limit=0)
    # islice takes the first `limit`: an int from 1 to sys.maxsize, checked
    # before any node is visited
    for limit in (1.5, 3.0, True, sys.maxsize + 1):
        with pytest.raises(ValueError):
            solve_template(t, limit=limit)
    assert len(solve_template(t, limit=sys.maxsize)) == 3**3 - 3  # all but the monochromatic


# sha256 of the concatenated colors of the first five cylinder solutions, in
# DFS order.  Pins the solver's leaf order beyond the first solution.
CYLINDER_FIRST_5_SHA256 = "f11d3b9f4c46177f1015b7ca8caa0f10bb9ba51e4e93aa1f999a1083ff64f3e9"


def test_cylinder_first_five_solutions_pinned():
    sols = solve_template(cylinder_template(), limit=5)
    assert len(sols) == 5
    digest = hashlib.sha256(b"".join(s.colors for s in sols)).hexdigest()
    assert digest == CYLINDER_FIRST_5_SHA256


# The same for the first fifty, taken before the per-color degree cap: the cap
# only prunes, so it changes neither the solutions nor their order.
CYLINDER_FIRST_50_SHA256 = "3de96437cb7c437133af080a0551bada90d85671c301ac5a15e46c0da34967e4"
# ... and for every completion the cylinder rules admit: there are 72.
CYLINDER_ALL_72_SHA256 = "89145e03073ab2b7076ec83b2a32d7f232f7ac9fa3f77dd106945f0e5bee00ed"
# The completions in the GF(16) class (0-based, in DFS order); the other 60
# are in the class of the first, which `construct --method cylinder` emits.
CYLINDER_GF16_CLASS = (9, 11, 21, 23, 33, 35, 45, 47, 57, 59, 69, 71)


def _normal_images(c):
    """The relabellings of a triangle-free K_16 into hub-and-pentagon normal form.

    Hub v goes to 0 and its blue, red and yellow neighbours to 1-5, 6-10 and
    11-15.  Each block is a two-colored K_5 with no monochromatic triangle, so
    its lower color is a 5-cycle; the block is listed along it, from every
    start in both directions.  That is 16 * 10**3 images, in a fixed order.
    """
    for v in range(16):
        walks = []
        for x in Color:
            block = [u for u in range(16) if u != v and c.color(u, v) == x]
            low = min(set(Color) - {x})
            walks.append([])
            for s, t in product(block, repeat=2):
                if s != t and c.color(s, t) == low:  # two walks from each start
                    walk = [s, t]
                    while len(walk) < 5:
                        walk += [u for u in block if u not in walk and c.color(walk[-1], u) == low]
                    walks[-1].append(walk)
        for a, b, y in product(*walks):
            rho = [0] * 16
            for k, u in enumerate([v, *a, *b, *y]):
                rho[u] = k
            yield permute_vertices(c, rho)


def test_cylinder_first_fifty_solutions_pinned(monkeypatch):
    # every completion, enumerated once: the first fifty, all 72, and the class of each.
    # All 72 take exactly 43137 DFS nodes, so the walk also fits that budget.
    monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 43137)
    sols = solve_template(cylinder_template(), limit=10**6)
    assert len(sols) == 72
    digest = hashlib.sha256(b"".join(s.colors for s in sols[:50])).hexdigest()
    assert digest == CYLINDER_FIRST_50_SHA256
    assert hashlib.sha256(b"".join(s.colors for s in sols)).hexdigest() == CYLINDER_ALL_72_SHA256
    # the class of a triangle-free K_16 is fixed by its normal images: GF(16)
    # has 100 and the first completion 500, and no image is in both
    gf16 = set(_normal_images(construct_gf16()))
    cylinder = set(_normal_images(sols[0]))
    assert (len(gf16), len(cylinder)) == (100, 500)
    assert gf16.isdisjoint(cylinder)
    in_gf16 = [next(_normal_images(s)) in gf16 for s in sols]
    assert tuple(i for i, g in enumerate(in_gf16) if g) == CYLINDER_GF16_CLASS
    assert all(next(_normal_images(s)) in cylinder for s, g in zip(sols, in_gf16) if not g)


def _random_template(rng):
    n = rng.randint(1, 5)
    m = comb(n, 2)
    domains = [rng.randint(1, 7) for _ in range(m)]
    couplings = []
    if m >= 2:
        for _ in range(rng.randint(0, 3)):
            src, dst = rng.sample(range(m), 2)
            couplings.append(Coupling(src, dst, rng.randint(0, 2)))
    return ColoringTemplate(n, domains, couplings)


def _brute_force_solutions(t):
    """Every conforming triangle-free coloring, lexicographic over the domains' colors."""
    out = []
    for colors in product(*([x for x in Color if d >> x & 1] for d in t.domains)):
        if any((colors[cp.src] + cp.shift) % 3 != colors[cp.dst]
               for cp in t.couplings):
            continue
        c = EdgeColoring(t.n, bytes(colors))
        if census(c).total_mono == 0:
            out.append(c)
    return out


def test_degree_cap_prunes_only_dead_branches():
    # vertex 0 has five blue spokes; K_5 on 1-5 is a red pentagon and a yellow
    # pentagram.  A sixth blue spoke, to 6, would leave 1-6 two-colored and
    # triangle-free, which R(3,3) = 6 rules out, so the cap refuses it at once.
    domains = bytearray([FULL]) * comb(7, 2)
    for i in range(1, 6):
        domains[edge_index(0, i, 7)] = B
        for j in range(i + 1, 6):
            domains[edge_index(i, j, 7)] = R if j - i in (1, 4) else Y
    t = ColoringTemplate(7, domains)
    sols = solve_template(t, limit=10**6)
    assert sols == _brute_force_solutions(t)
    assert sols and all(s.color(0, 6) != Color.BLUE for s in sols)


@pytest.mark.parametrize("seed", [0, 1])
def test_solver_matches_brute_force_in_dfs_order(seed):
    # lexicographic order over the domains' colors is the DFS leaf order
    rng = random.Random(seed)
    for _ in range(200):
        t = _random_template(rng)
        expected = _brute_force_solutions(t)
        assert solve_template(t, limit=10**6) == expected
        assert solve_template(t, limit=2) == expected[:2]


def test_solve_template_refuses_past_its_node_budget(monkeypatch):
    # the cylinder's first solution takes exactly 1527 DFS nodes
    t = cylinder_template()
    first, first_four = solve_template(t), solve_template(t, limit=4)
    monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 1527)
    assert solve_template(t) == first
    monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 1526)
    with pytest.raises(BudgetError, match="^DFS nodes exceed the budget of 1526$"):
        solve_template(t)
    open_k10 = ColoringTemplate(10, bytes([FULL]) * comb(10, 2))
    with pytest.raises(BudgetError):
        solve_template(open_k10)  # refused mid-search at 1526 nodes
    # the benchmark's solve: the first four solutions take exactly 2750 nodes
    monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 2750)
    assert solve_template(t, limit=4) == first_four
    monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 2749)
    with pytest.raises(BudgetError, match="^DFS nodes exceed the budget of 2749$"):
        solve_template(t, limit=4)
    # the full enumeration: all 72 completions take exactly 43137 nodes, the budget
    # test_cylinder_first_fifty_solutions_pinned walks them under, and no fewer
    monkeypatch.setattr("ramsey333.templates.SOLVE_BUDGET", 43136)
    with pytest.raises(BudgetError, match="^DFS nodes exceed the budget of 43136$"):
        solve_template(t, limit=10**6)
