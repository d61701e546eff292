"""Local search, the incremental objective, and the exhaustive oracle."""

import hashlib
import random
from math import comb
from types import SimpleNamespace

import pytest

from ramsey333 import (
    BudgetError,
    Color,
    EdgeColoring,
    SearchParams,
    census,
    exhaustive_min,
    minimize,
    move_delta,
    random_coloring,
)
from ramsey333 import search


def test_random_coloring_determinism():
    assert random_coloring(10, 3, 99) == random_coloring(10, 3, 99)
    assert random_coloring(10, 3, 99) != random_coloring(10, 3, 100)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_random_coloring_refuses_the_seeds_search_params_refuses(seed):
    # random.Random seeds with abs(seed): -5 would draw the coloring of 5
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        random_coloring(17, 3, seed)
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        SearchParams(17, 3, seed)


def test_random_coloring_edge_budget(monkeypatch):
    # C(257,2) = 32896 edges is the first n over 2^15; refused before any
    # draw (10^5 vertices would draw ~27 GB), and n is never formatted
    monkeypatch.setattr(search, "random", None)
    for n in (257, 10**5000):
        with pytest.raises(BudgetError) as refused:
            random_coloring(n, 3, 1)
        assert str(refused.value) == "C(n,2) edges exceed the budget of 32768"


def test_random_coloring_is_the_randrange_stream(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            draws[-1] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(search, "random", SimpleNamespace(Random=CountingRandom))
    refilled = 0
    cases = [(n, k) for n in range(1, 41) for k in (2, 3)] + [(64, 2), (100, 2)]
    for n, k in cases:
        for seed in (0, 1, 201, 2**32 + 7, 2**64 - 1):
            rng = random.Random(seed)
            expected = bytes(rng.randrange(k) for _ in range(comb(n, 2)))
            draws.append(0)
            assert random_coloring(n, k, seed) == EdgeColoring(n, expected), (n, k, seed)
            refilled += draws[-1] > 1
    assert refilled  # the batch-refill path ran


def test_random_coloring_respects_k():
    c = random_coloring(12, 2, 5)
    assert set(c.colors) <= {0, 1}
    with pytest.raises(ValueError):
        random_coloring(5, 4, 1)


def test_random_coloring_mono_frequency():
    # E[mono] for n=6, k=2 is C(6,3) * 2 * (1/2)^3 = 5
    total = 0
    samples = 2000
    for seed in range(samples):
        total += census(random_coloring(6, 2, seed)).total_mono
    mean = total / samples
    assert abs(mean - 5.0) < 0.3


def test_move_delta_triangle():
    k3 = EdgeColoring.from_string(3, "BBB")
    assert move_delta(k3, 0, Color.RED) == -1
    recolored = k3.recolored(0, Color.RED)
    assert move_delta(recolored, 0, Color.BLUE) == 1
    with pytest.raises(ValueError):
        move_delta(k3, 0, Color.BLUE)
    for edge in (99, 1.0, True):  # a float or a bool ordinal is refused, not taken as its int
        with pytest.raises(ValueError, match="out of range"):
            move_delta(k3, edge, Color.RED)
    for x in (1.0, True, 3):  # True was taken as red
        with pytest.raises(ValueError, match="color must be"):
            move_delta(k3, 0, x)


def test_move_delta_matches_recount():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(3, 16)
        k = rng.choice((2, 3))
        c = random_coloring(n, k, rng.getrandbits(64))
        e = rng.randrange(len(c.colors))
        x = Color((c.colors[e] + rng.choice((1, 2))) % 3)
        delta = move_delta(c, e, x)
        assert delta == census(c.recolored(e, x)).total_mono - census(c).total_mono


def test_minimize_is_deterministic():
    p = SearchParams(n=8, k=3, seed=7, restarts=6, steps_per_restart=300, sideways_limit=20)
    assert minimize(p) == minimize(p)


# sha256 of repr((trace, best.colors, best_count, evaluations)) per SearchParams:
# pins whole trajectories (tie-breaks, plateau rule, evaluation count), not just bounds.
GOLDEN_TRAJECTORIES = [
    (SearchParams(n=5, k=2, seed=1, restarts=6, steps_per_restart=2000, sideways_limit=0),
     "20fe56b6d5cb7bdda427d1ea14395634e1af00b18f85d66e841ea2a21f963995"),
    (SearchParams(n=8, k=3, seed=7, restarts=6, steps_per_restart=300, sideways_limit=50),
     "e6ef533783e3fe69508959831f2db139caf31a74941f674f333c6cf3717a2af5"),
    (SearchParams(n=16, k=3, seed=3, restarts=4, steps_per_restart=2000, sideways_limit=400),
     "3f6eea0c1c2f3e528d953e9943d41f40256cdb9845d4e618f4fe926d6f1bd36d"),
    (SearchParams(n=16, k=2, seed=5, restarts=3, steps_per_restart=2000, sideways_limit=50),
     "0a218001e96baa58e8569151b318d5cd0eb4f4169a805e7cc3c3292c468a4607"),
    (SearchParams(n=17, k=3, seed=0, restarts=4, steps_per_restart=2000, sideways_limit=50),
     "98f2fef2903c93499cc0ecf17981acf9e32bfe6b8de83c80df0286311af65518"),
    (SearchParams(n=17, k=3, seed=11, restarts=3, steps_per_restart=2, sideways_limit=400),
     "900ce61cd5420527aebb194e450baa664518a6ee426e428e0c51b99b4741b886"),
    (SearchParams(n=17, k=2, seed=2, restarts=3, steps_per_restart=2000, sideways_limit=0),
     "43a0fa34967fc26e3b1cdd53c6d6bcab19e8324828c831223ffe6a0d79b9ca35"),
    (SearchParams(n=40, k=3, seed=201, restarts=1, steps_per_restart=2000, sideways_limit=50),
     "c30138bbb25c21b6198192364efa847e6394f5f483dfe1785f39f459df187145"),
    (SearchParams(n=40, k=2, seed=9, restarts=1, steps_per_restart=2000, sideways_limit=400),
     "bcb98d34ca9399400d47196b5b15765a877447de07b10c991dd5cff36475d69d"),
    # K_1 has no edge: every restart returns at once with count 0 and no evaluation
    (SearchParams(n=1, k=3, seed=1, restarts=2),
     "23dffed843b35a22439e8d78cdf0d62b1350945646465bc3e4d8fe41052fb24f"),
]


@pytest.mark.parametrize("params,digest", GOLDEN_TRAJECTORIES,
                         ids=[f"n{p.n}-k{p.k}-s{p.sideways_limit}-cap{p.steps_per_restart}"
                              for p, _ in GOLDEN_TRAJECTORIES])
def test_minimize_golden_trajectory(params, digest):
    res = minimize(params)
    payload = repr((res.trace, res.best.colors, res.best_count, res.evaluations))
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def _plain_climb(start, k, steps_cap, sideways_limit):
    # the climb rule written out: every pass rescans every move with
    # move_delta; a decrease takes the min (delta, edge, color), a plateau
    # pass the min (last touched + 1, edge, color) over edges whose best
    # delta is 0
    c, num_edges = start, len(start.colors)
    if num_edges == 0:
        return 0, start, 0
    total = census(c).total_mono
    best_count, best = total, c
    last_touched = [-1] * num_edges
    sideways_used = passes = 0
    for step in range(steps_cap):
        passes += 1
        moves = [(move_delta(c, e, x), e, x)
                 for e in range(num_edges) for x in range(k) if x != c.colors[e]]
        d, e, x = min(moves)
        if d > 0:
            break
        if d == 0:
            if sideways_used >= sideways_limit:
                break
            sideways_used += 1
            # a decrease exists nowhere, so every edge's best delta is >= 0
            # and a zero-delta move lies on an edge whose best delta is 0
            _, e, x = min((last_touched[e] + 1, e, x) for dd, e, x in moves if dd == 0)
        c = c.recolored(e, x)
        last_touched[e] = step
        total += d
        if total < best_count:
            best_count, best = total, c
    return best_count, best, passes * num_edges * (k - 1)


# k = 3 starts whose descents tie between equally steep edges, one of them
# touched before: a climber that ranks every edge by its last touch, not only
# the zero-delta ones, leaves the plain rule on each of these
_DESCENT_TIE_STARTS = (
    [(17, s, cap, sideways) for s in (10, 23) for cap, sideways in ((300, 0), (300, 3), (300, 50))]
    + [(13, 3, 300, 50), (13, 16, 300, 50)]
)


def test_climb_follows_the_plain_rule():
    # n = 17 stays in the grid: without it the grid missed a rank kept on every edge
    rng = random.Random(22)
    cases = []
    for n in (5, 9, 13, 17):
        for k in (2, 3):
            for cap, sideways in ((1, 0), (2, 50), (300, 0), (300, 3), (300, 50)):
                for _ in range(2):
                    cases.append((random_coloring(n, k, rng.getrandbits(64)), k, cap, sideways))
    for n, seed, cap, sideways in _DESCENT_TIE_STARTS:
        cases.append((random_coloring(n, 3, seed), 3, cap, sideways))
    # the top of EDGE_BUDGET: repricing reads ordinals up to C(256, 2) - 1 from the row starts
    cases.append((random_coloring(256, 3, 1), 3, 2, 0))
    for start, k, cap, sideways in cases:
        got = search._climb(start, k, cap, sideways)
        assert got == _plain_climb(start, k, cap, sideways), (start.n, k, cap, sideways)


def test_minimize_draws_each_subseed_as_its_restart_starts(monkeypatch):
    # no list of p.restarts subseeds up front: stopped at its first climb,
    # minimize has taken one draw from the master stream
    generators = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            generators.append(self)

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    class Stop(Exception):
        pass

    def stop(start, *args):
        raise Stop(start)

    monkeypatch.setattr(search, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(search, "_climb", stop)
    with pytest.raises(Stop) as stopped:
        minimize(SearchParams(n=6, k=3, seed=5, restarts=1000))
    assert generators[0].draws == 1
    subseed = random.Random(5).getrandbits(64)
    assert stopped.value.args[0] == random_coloring(6, 3, subseed)


def test_minimize_result_is_consistent():
    p = SearchParams(n=7, k=2, seed=3, restarts=8, steps_per_restart=500, sideways_limit=30)
    res = minimize(p)
    assert census(res.best).total_mono == res.best_count
    assert len(res.trace) == 8
    assert res.best_count == min(res.trace)
    assert res.evaluations > 0


def test_minimize_reaches_known_minima():
    res = minimize(SearchParams(n=6, k=2, seed=1, restarts=5,
                                steps_per_restart=500, sideways_limit=20))
    assert res.best_count == 2
    res = minimize(SearchParams(n=5, k=2, seed=1, restarts=5,
                                steps_per_restart=500, sideways_limit=20))
    assert res.best_count == 0


def test_panel_seed_4_carries_two_triangles_per_colour():
    # The paper asks for the fewest triangles "with the same color" in K_17.  Read per
    # colour, this witness shows that 2 is reachable: six triangles, two in each colour.
    res = minimize(SearchParams(17, 3, seed=4, restarts=40, steps_per_restart=20000,
                                sideways_limit=400))
    assert res.best_count == 6
    assert census(res.best).mono == (2, 2, 2)


def _goodman(n):
    # Goodman (1959): the fewest monochromatic triangles in a 2-coloring of K_n
    return comb(n, 3) - n * ((n - 1) ** 2 // 4) // 2


def test_goodman_is_the_exhaustive_k2_minimum():
    for n in range(1, 8):
        assert exhaustive_min(n, 2)[0] == _goodman(n), n


@pytest.mark.parametrize("n", [6, 10, 17, 25, 40, 64])
def test_minimize_reaches_goodman_at_k2(n):
    assert minimize(SearchParams(n, 2, seed=1)).best_count == _goodman(n)


def test_minimize_never_beats_exhaustive():
    for n, k in ((5, 2), (6, 2), (6, 3)):
        truth, _ = exhaustive_min(n, k)
        res = minimize(SearchParams(n=n, k=k, seed=11, restarts=10,
                                    steps_per_restart=400, sideways_limit=20))
        assert res.best_count >= truth


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(n=5, k=4, seed=1)
    with pytest.raises(ValueError, match="not a bool"):  # its document would say "n: True"
        SearchParams(n=True, k=3, seed=0, restarts=1)
    with pytest.raises(ValueError):
        SearchParams(n=5, k=3, seed=-1)
    with pytest.raises(ValueError):
        SearchParams(n=5, k=3, seed=1, restarts=0)
    with pytest.raises(ValueError):
        SearchParams(n=5, k=3, seed=1, sideways_limit=-2)


@pytest.mark.parametrize("call, args, message", [
    (random_coloring, (0, 3, 1), "n must be positive"),
    (random_coloring, (3, 4, 1), "k must be 2 or 3"),
    (exhaustive_min, (0, 2), "n must be positive"),
    (exhaustive_min, (3, 4), "k must be 2 or 3"),
    # a float would fail late in comb or range, and a bool n would be written back as True
    (random_coloring, (3.0, 3, 1), "n must be positive"),
    (random_coloring, (True, 3, 1), "n must be positive"),
    (random_coloring, (3, 3.0, 1), "k must be 2 or 3"),
    (random_coloring, (3, 3, 3.0), "seed must fit in 64 bits"),
    (random_coloring, (3, 3, True), "seed must fit in 64 bits"),
    (exhaustive_min, (3.0, 2), "n must be positive"),
    (exhaustive_min, (3, 3.0), "k must be 2 or 3"),
    (exhaustive_min, (3, True), "k must be 2 or 3"),
])
def test_bad_sizes_and_color_counts_are_refused(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_exhaustive_min_small_values():
    assert exhaustive_min(5, 2)[0] == 0
    assert exhaustive_min(6, 2)[0] == 2
    assert exhaustive_min(6, 3)[0] == 0


def test_exhaustive_min_witness_matches_count():
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        count, witness = exhaustive_min(n, k)
        assert witness.n == n
        assert census(witness).total_mono == count
        assert witness.colors[0] == 0  # first edge pinned to blue


@pytest.mark.parametrize("n, k, minimum, witness", [
    (1, 2, 0, ""),
    (2, 3, 0, "B"),
    (3, 2, 0, "BBR"),
    (3, 3, 0, "BBR"),
    (4, 2, 0, "BBRRBB"),
    (4, 3, 0, "BBBRRY"),
    (5, 2, 0, "BBRRRBRRBB"),
    (5, 3, 0, "BBBBRRYYRR"),
    (6, 2, 2, "BBBRRBBRRRBRRBB"),
    (6, 3, 0, "BBBBRRRYBYRBRBB"),
    (7, 2, 4, "BBBBRRBBRRRRRBRRRBBBB"),  # the largest k=2 instance the budget admits
])
def test_exhaustive_min_first_witness_pinned(n, k, minimum, witness):
    # the docstring promises the first witness in the DFS order, in ordinal order
    count, coloring = exhaustive_min(n, k)
    assert (count, coloring.color_string()) == (minimum, witness)


def test_exhaustive_min_pentagon_witness():
    _, witness = exhaustive_min(5, 2)
    for v in range(5):
        per_color = [sum(1 for u in range(5) if u != v and witness.color(u, v) == x)
                     for x in (0, 1)]
        assert per_color == [2, 2]  # both classes are 5-cycles


def test_exhaustive_min_budget():
    # 2^28 and 3^21 states; k^C(n,2) has more than 4300 digits for the last
    # three, and n itself for the very last, so refusing must format neither
    for n, k in ((8, 2), (7, 3), (200, 2), (135, 3), (10**5000, 2)):
        with pytest.raises(BudgetError, match="exceed the budget of 33554432"):
            exhaustive_min(n, k)


def test_minimize_edge_budget():
    # C(257,2) = 32896 edges is the first n over 2^15; refused before any
    # draw, and n is never formatted
    for n in (257, 10**5000):
        with pytest.raises(BudgetError, match="exceed the budget of 32768"):
            minimize(SearchParams(n=n, k=3, seed=1))


def test_minimize_work_budget(monkeypatch):
    # 10^9 restarts at the default 2000 steps, and 10^9 one-step restarts at
    # n = 2, are refused before any climb; neither n nor the product is formatted
    monkeypatch.setattr(search, "_climb", None)
    for p in (SearchParams(n=17, k=3, seed=1, restarts=10**9),
              SearchParams(n=2, k=3, seed=1, restarts=10**9, steps_per_restart=1)):
        with pytest.raises(BudgetError) as refused:
            minimize(p)
        assert str(refused.value) == (
            "restarts * steps * max(C(n,2),256) exceed the budget of 2147483648")


def test_minimize_work_budget_admits_the_largest_callers(monkeypatch):
    # the criterion-6 n=16 panel (200 * 20000 * 256) and the CLI defaults at
    # n = 256 (20 * 2000 * C(256,2)) both reach their first climb
    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    monkeypatch.setattr(search, "_climb", stop)
    for p in (SearchParams(n=16, k=3, seed=0, restarts=200, steps_per_restart=20_000,
                           sideways_limit=200),
              SearchParams(n=256, k=3, seed=1)):
        with pytest.raises(Stop):
            minimize(p)


def test_exhaustive_min_tiny_sizes():
    assert exhaustive_min(1, 2)[0] == 0
    assert exhaustive_min(2, 3)[0] == 0
    assert exhaustive_min(3, 2)[0] == 0
