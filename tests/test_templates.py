"""Template validation, coupling propagation, and the completion solver."""

import hashlib
import random
from itertools import product
from math import comb

import pytest

from ramsey333 import (
    Color,
    ColoringTemplate,
    Coupling,
    EdgeColoring,
    assemble,
    census,
    construct_gf16,
    cylinder_template,
    delete_vertex,
    extension_of_vertex,
    parse_document,
    rotate_color,
    serialize_template,
    solve_template,
    template_violations,
)
from ramsey333.templates import DOMAINS, MASKS

FULL = frozenset(Color)


def _template(n, domains, couplings=()):
    return ColoringTemplate(n, tuple(map(frozenset, domains)), tuple(couplings))


def test_rotate_color_cycle():
    assert rotate_color(Color.BLUE, 1) == Color.RED
    assert rotate_color(Color.YELLOW, 1) == Color.BLUE
    for x in Color:
        assert rotate_color(rotate_color(rotate_color(x, 1), 1), 1) == x
        assert rotate_color(x, 0) == x


def test_template_validation():
    with pytest.raises(ValueError):
        _template(3, [FULL, FULL])  # wrong domain count
    with pytest.raises(ValueError):
        _template(3, [FULL, FULL, frozenset()])
    with pytest.raises(ValueError):
        _template(3, [FULL] * 3, [Coupling(0, 0, 1)])
    with pytest.raises(ValueError):
        _template(3, [FULL] * 3, [Coupling(0, 5, 1)])
    with pytest.raises(ValueError):
        _template(3, [FULL] * 3, [Coupling(0, 1, 7)])
    with pytest.raises(ValueError):
        _template(0, [])  # no vertices
    with pytest.raises(ValueError):
        _template(-1, [])


def test_any_container_of_colors_gives_a_hashable_template():
    t = ColoringTemplate(3, [{0}, {1}, {0, 1, 2}])
    expected = _template(3, [[Color.BLUE], [Color.RED], FULL])
    assert t == expected
    assert hash(t) == hash(expected)
    assert ColoringTemplate(3, [[0], (Color.RED,), range(3)]) == expected


def test_caller_mutation_does_not_reach_the_template():
    d = [{0}, {1}, {0, 1, 2}]
    t = ColoringTemplate(3, d)
    before = solve_template(t, limit=10)
    # were these seen, BBR and BBY would be new solutions and BRB would go
    d[0].add(5)
    d[1].add(0)
    d[2].discard(0)
    assert t.domains == (frozenset({Color.BLUE}), frozenset({Color.RED}), FULL)
    assert solve_template(t, limit=10) == before


@pytest.mark.parametrize("dom, message", [
    ("B", "non-colors"),
    ({3}, "non-colors"),
    ([[0]], "non-colors"),
    (5, "non-colors"),
    ("", "empty domain"),
    ([], "empty domain"),
    (set(), "empty domain"),
])
def test_bad_domains_raise_value_error(dom, message):
    with pytest.raises(ValueError, match=message):
        ColoringTemplate(2, [dom])


def test_couplings_are_normalised():
    coupled = _template(3, [FULL] * 3, [Coupling(0, 1, 1), Coupling(0, 2, 2)])
    plain = ColoringTemplate(3, [FULL] * 3, [(0, 1, 1), [0, 2, 2]])
    assert plain == coupled
    assert all(type(cp) is Coupling for cp in plain.couplings)
    hash(ColoringTemplate(3, [FULL] * 3, [Coupling(0, 1, 1)]))  # from a list of couplings
    assert solve_template(plain, limit=30) == solve_template(coupled, limit=30)
    for bad in (Coupling(0.0, 1, 1), (0, 1.0, 1), (0, 1, "1")):
        with pytest.raises(ValueError, match="must be ints"):
            ColoringTemplate(3, [FULL] * 3, [bad])


def test_domains_are_the_seven_shared_sets():
    assert DOMAINS[0] is None
    for mask in range(1, 8):
        dom = DOMAINS[mask]
        assert MASKS[dom] == mask
        assert all(type(x) is Color for x in dom)
        assert dom == {x for x in Color if mask >> x & 1}
    shared = {id(dom) for dom in DOMAINS[1:]}
    g = construct_gf16()
    k15, ext = delete_vertex(g, 0), extension_of_vertex(g, 0)
    open17 = assemble(k15, ext, ext)
    templates = [
        ColoringTemplate.from_coloring(g),
        open17,
        cylinder_template(),
        parse_document(serialize_template(open17)).to_template(),
        ColoringTemplate(3, [{0}, [1, 2], {Color.RED, 2, 0}]),
    ]
    for t in templates:
        assert {id(dom) for dom in t.domains} <= shared


def test_singleton_template_is_its_own_solution():
    rainbow = EdgeColoring.from_string(3, "BRY")
    sols = solve_template(ColoringTemplate.from_coloring(rainbow), limit=10)
    assert sols == [rainbow]

    mono = EdgeColoring.from_string(3, "BBB")
    assert solve_template(ColoringTemplate.from_coloring(mono), limit=10) == []


def test_solver_respects_domains_and_determinism():
    t = _template(4, [[Color.BLUE], FULL, FULL, FULL, FULL, [Color.RED, Color.YELLOW]])
    sols = solve_template(t, limit=100)
    assert sols
    for s in sols:
        assert template_violations(t, s) == []
        assert census(s).total_mono == 0
    assert sols == solve_template(t, limit=100)  # deterministic order
    assert solve_template(t, limit=1) == sols[:1]


def test_coupling_propagation():
    # edge 1 must be one shift ahead of edge 0; edge 2 two shifts ahead
    t = _template(3, [FULL, FULL, FULL],
                  [Coupling(0, 1, 1), Coupling(0, 2, 2)])
    sols = solve_template(t, limit=30)
    # three rainbow rotations, no monochromatic option survives
    assert len(sols) == 3
    for s in sols:
        assert template_violations(t, s) == []
        a = Color(s.colors[0])
        assert Color(s.colors[1]) == rotate_color(a, 1)
        assert Color(s.colors[2]) == rotate_color(a, 2)
    # first solution starts from the lowest color of edge 0
    assert Color(sols[0].colors[0]) == Color.BLUE


def test_coupling_conflict_is_unsatisfiable():
    # forcing edge 1 to be both sigma(edge 0) and edge 0 itself cannot work
    t = _template(3, [FULL, FULL, FULL],
                  [Coupling(0, 1, 1), Coupling(0, 1, 0)])
    assert solve_template(t, limit=5) == []


def test_template_violations_reports():
    t = _template(3, [[Color.BLUE], FULL, FULL], [Coupling(1, 2, 1)])
    good = EdgeColoring.from_string(3, "BRY")
    assert template_violations(t, good) == []
    bad_domain = EdgeColoring.from_string(3, "RRY")
    assert any("outside domain" in msg for msg in template_violations(t, bad_domain))
    bad_coupling = EdgeColoring.from_string(3, "BRB")
    assert any("coupling" in msg for msg in template_violations(t, bad_coupling))


def test_open_ordinals():
    t = _template(3, [[Color.BLUE], FULL, [Color.RED]])
    assert t.open_ordinals() == [1]


def test_limit_must_be_positive():
    t = _template(3, [FULL, FULL, FULL])
    with pytest.raises(ValueError):
        solve_template(t, limit=0)


# sha256 of the concatenated colors of the first five cylinder solutions, in
# DFS order.  Pins the solver's leaf order beyond the first solution.
CYLINDER_FIRST_5_SHA256 = "f11d3b9f4c46177f1015b7ca8caa0f10bb9ba51e4e93aa1f999a1083ff64f3e9"


def test_cylinder_first_five_solutions_pinned():
    sols = solve_template(cylinder_template(), limit=5)
    assert len(sols) == 5
    digest = hashlib.sha256(b"".join(s.colors for s in sols)).hexdigest()
    assert digest == CYLINDER_FIRST_5_SHA256


def _random_template(rng):
    n = rng.randint(1, 5)
    m = comb(n, 2)
    domains = []
    for _ in range(m):
        mask = rng.randint(1, 7)
        domains.append([x for x in Color if mask >> x & 1])
    couplings = []
    if m >= 2:
        for _ in range(rng.randint(0, 3)):
            src, dst = rng.sample(range(m), 2)
            couplings.append(Coupling(src, dst, rng.randint(0, 2)))
    return _template(n, domains, couplings)


def _brute_force_solutions(t):
    """Every conforming triangle-free coloring, lexicographic over sorted domains."""
    out = []
    for colors in product(*(sorted(dom) for dom in t.domains)):
        if any(rotate_color(colors[cp.src], cp.shift) != colors[cp.dst]
               for cp in t.couplings):
            continue
        c = EdgeColoring(t.n, bytes(colors))
        if census(c).total_mono == 0:
            out.append(c)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_solver_matches_brute_force_in_dfs_order(seed):
    # lexicographic order over the sorted domains is the DFS leaf order
    rng = random.Random(seed)
    for _ in range(200):
        t = _random_template(rng)
        expected = _brute_force_solutions(t)
        assert solve_template(t, limit=10**6) == expected
        assert solve_template(t, limit=2) == expected[:2]
