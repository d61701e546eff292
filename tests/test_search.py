"""Local search, the incremental objective, and the exhaustive oracle."""

import random
from math import comb

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
from ramsey333.search import STATE_BUDGET_ENV


def test_random_coloring_determinism():
    assert random_coloring(10, 3, 99) == random_coloring(10, 3, 99)
    assert random_coloring(10, 3, 99) != random_coloring(10, 3, 100)


def test_random_coloring_is_the_randrange_stream():
    for n in range(1, 41):
        for k in (2, 3):
            for seed in (0, 1, 201, 2**32 + 7, 2**64 - 1):
                rng = random.Random(seed)
                expected = bytes(rng.randrange(k) for _ in range(comb(n, 2)))
                assert random_coloring(n, k, seed) == EdgeColoring(n, expected), (n, k, seed)


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
    with pytest.raises(ValueError):
        move_delta(k3, 99, Color.RED)


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


def test_minimize_never_beats_exhaustive():
    for n, k in ((5, 2), (6, 2), (6, 3)):
        truth, _ = exhaustive_min(n, k)
        res = minimize(SearchParams(n=n, k=k, seed=11, restarts=10,
                                    steps_per_restart=400, sideways_limit=20))
        assert res.best_count >= truth


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(n=5, k=4, seed=1)
    with pytest.raises(ValueError):
        SearchParams(n=5, k=3, seed=-1)
    with pytest.raises(ValueError):
        SearchParams(n=5, k=3, seed=1, restarts=0)
    with pytest.raises(ValueError):
        SearchParams(n=5, k=3, seed=1, sideways_limit=-2)


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


def test_exhaustive_min_pentagon_witness():
    _, witness = exhaustive_min(5, 2)
    for v in range(5):
        per_color = [sum(1 for u in range(5) if u != v and witness.color(u, v) == x)
                     for x in (0, 1)]
        assert per_color == [2, 2]  # both classes are 5-cycles


def test_exhaustive_min_budget():
    with pytest.raises(BudgetError):
        exhaustive_min(8, 2)  # 2^28 states
    with pytest.raises(BudgetError):
        exhaustive_min(7, 3)  # 3^21 states


def test_exhaustive_budget_env_override(monkeypatch):
    monkeypatch.setenv(STATE_BUDGET_ENV, "4")
    with pytest.raises(BudgetError):
        exhaustive_min(3, 2)  # 2^3 = 8 > 4
    monkeypatch.setenv(STATE_BUDGET_ENV, "8")
    assert exhaustive_min(3, 2)[0] == 0
    monkeypatch.setenv(STATE_BUDGET_ENV, "bogus")
    with pytest.raises(BudgetError):
        exhaustive_min(3, 2)


def test_exhaustive_min_tiny_sizes():
    assert exhaustive_min(1, 2)[0] == 0
    assert exhaustive_min(2, 3)[0] == 0
    assert exhaustive_min(3, 2)[0] == 0
