"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The search consistency criterion (6) runs a 110-seed panel and
dominates the runtime (about a minute); everything else takes seconds.
"""

import random
import time
from itertools import product
from pathlib import Path

from ramsey333 import (
    COLORS,
    Color,
    SearchParams,
    assemble,
    census,
    complete_edge,
    construct_gf16,
    cylinder_template,
    delete_vertex,
    exhaustive_min,
    fast_mono_counts,
    find_extensions,
    minimize,
    move_delta,
    parse_document,
    permute_colors,
    permute_vertices,
    random_coloring,
    serialize,
    sigma,
    solve_template,
    template_violations,
    twin_k17,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_gf16_construction():
    t0 = time.perf_counter()
    mono = census(construct_gf16()).mono
    elapsed = time.perf_counter() - t0
    ok = mono == (0, 0, 0) and elapsed < 0.1
    _report(1, "GF(16) K16 triangle-free", ok, f"mono={mono}, {elapsed:.4f}s")


def test_criterion_2_cylinder_reconstruction():
    template = cylinder_template()
    t0 = time.perf_counter()
    first = solve_template(template, limit=1)
    elapsed = time.perf_counter() - t0
    solutions = solve_template(template, limit=3)
    ok = len(first) >= 1 and elapsed < 10.0
    details = [f"{len(first)} solution in {elapsed:.2f}s"]
    for s in solutions:
        if census(s).mono != (0, 0, 0):
            ok = False
            details.append("solution not triangle-free")
        if template_violations(template, s):
            ok = False
            details.append("domain or coupling violation")
        for i, j in product(range(1, 6), repeat=2):
            ab = s.color(i, 5 + j)
            if s.color(5 + i, 10 + j) != sigma(ab) or s.color(j, 10 + i) != sigma(sigma(ab)):
                ok = False
                details.append(f"sigma coupling broken at ({i},{j})")
    _report(2, "cylinder rules reconstructed", ok, "; ".join(details))


def test_criterion_3_twin_k17():
    t0 = time.perf_counter()
    rep = twin_k17(Color.BLUE)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 0.1
    details = [f"{elapsed:.4f}s per assembly"]
    for deleted in range(16):
        for x in COLORS:
            rep = twin_k17(x, deleted_vertex=deleted)
            expected = [0, 0, 0]
            expected[x] = 5
            if rep.census.mono != tuple(expected):
                ok = False
                details.append(f"vertex {deleted} color {x.char}: mono={rep.census.mono}")
            if rep.triangles_through_new_edge != 5:
                ok = False
                details.append(f"vertex {deleted} color {x.char}: not all through new edge")
            if not all({15, 16} <= {t.i, t.j, t.k} for t in rep.census.mono_list):
                ok = False
                details.append("triangle avoiding the new edge")
    _report(3, "twin K17 has exactly 5 one-color triangles, all 16 deletions", ok,
            "; ".join(details[:3]))


def test_criterion_4_overlap_law():
    k15 = delete_vertex(construct_gf16(), 0)
    extensions = find_extensions(k15)
    rng = random.Random(424242)
    pairs = [
        (rng.choice(extensions), rng.choice(extensions)) for _ in range(50)
    ]
    ok = True
    checked = 0
    for ea, eb in pairs:
        template = assemble(k15, ea, eb)
        for x in COLORS:
            rep = complete_edge(template, x)
            overlap = sum(
                1 for v in range(15) if ea[v] == eb[v] == x
            )
            expected = [0, 0, 0]
            expected[x] = overlap
            if rep.census.mono != tuple(expected):
                ok = False
            checked += 1
    _report(4, "overlap law on 50 sampled extension pairs", ok,
            f"{len(extensions)} extension(s), {checked} completions checked")


def test_criterion_5_exhaustive_oracles():
    expected = {(5, 2): 0, (6, 2): 2, (6, 3): 0}
    ok = True
    details = []
    for (n, k), want in expected.items():
        t0 = time.perf_counter()
        got, witness = exhaustive_min(n, k)
        elapsed = time.perf_counter() - t0
        if got != want or census(witness).total_mono != got or elapsed >= 60.0:
            ok = False
        details.append(f"({n},{k})={got} in {elapsed:.2f}s")
    _report(5, "exhaustive minima", ok, ", ".join(details))


def test_criterion_6_search_consistency():
    t0 = time.perf_counter()
    n16_bests = []
    for seed in range(10):
        res = minimize(SearchParams(n=16, k=3, seed=seed, restarts=200,
                                    steps_per_restart=20_000, sideways_limit=200))
        n16_bests.append(res.best_count)
    n17_bests = []
    for seed in range(100):
        res = minimize(SearchParams(n=17, k=3, seed=seed, restarts=40,
                                    steps_per_restart=20_000, sideways_limit=400))
        n17_bests.append(res.best_count)
    elapsed = time.perf_counter() - t0
    ok = (
        min(n16_bests) == 0
        and min(n17_bests) == 5
        and all(b >= 5 for b in n17_bests)  # below 5 would contradict the record
        and elapsed < 600.0
    )
    _report(6, "search reaches 0 at n=16 and 5 (never less) at n=17", ok,
            f"n16 zeros={n16_bests.count(0)}/10, n17 fives={n17_bests.count(5)}/100, "
            f"n17 min={min(n17_bests)}, {elapsed:.0f}s")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(7777)
    ok = True
    for _ in range(500):
        n = rng.randrange(3, 25)
        k = rng.choice((2, 3))
        c = random_coloring(n, k, rng.getrandbits(64))
        if fast_mono_counts(c) != census(c).mono:
            ok = False
            break
    _report(7, "bit-parallel counts equal the census oracle on 500 colorings", ok)


def test_criterion_8_delta_correctness():
    rng = random.Random(8888)
    ok = True
    for _ in range(1000):
        n = rng.randrange(3, 18)
        c = random_coloring(n, rng.choice((2, 3)), rng.getrandbits(64))
        e = rng.randrange(len(c.colors))
        x = Color((c.colors[e] + rng.choice((1, 2))) % 3)
        if move_delta(c, e, x) != census(c.recolored(e, x)).total_mono - census(c).total_mono:
            ok = False
            break
    _report(8, "move deltas equal full recounts on 1000 moves", ok)


def test_criterion_9_equivariance():
    rng = random.Random(9999)
    perms = list(product((0, 1, 2), repeat=3))
    bijections = [p for p in perms if len(set(p)) == 3]
    ok = True
    for _ in range(200):
        n = rng.randrange(3, 14)
        c = random_coloring(n, 3, rng.getrandbits(64))
        cen = census(c)
        images = rng.choice(bijections)
        pi = {Color(i): Color(images[i]) for i in range(3)}
        permuted = census(permute_colors(c, pi))
        if any(permuted.mono[pi[x]] != cen.mono[x] for x in COLORS):
            ok = False
            break
        rho = list(range(n))
        rng.shuffle(rho)
        relabeled = census(permute_vertices(c, rho))
        if (relabeled.mono, relabeled.bichromatic, relabeled.rainbow) != (
                cen.mono, cen.bichromatic, cen.rainbow):
            ok = False
            break
    _report(9, "color and vertex equivariance on 200 colorings", ok)


def test_criterion_10_round_trip_and_goldens():
    rng = random.Random(1010)
    ok = True
    for _ in range(200):
        n = rng.randrange(1, 25)
        c = random_coloring(n, rng.choice((2, 3)), rng.getrandbits(64))
        if parse_document(serialize(c)).to_coloring() != c:
            ok = False
            break
    gf16_text = serialize(construct_gf16(), k=3, meta={"method": "gf16"})
    golden_gf16 = (GOLDEN / "gf16_k16.txt").read_text()
    rep = twin_k17(Color.BLUE)
    twin_text = serialize(rep.coloring, k=3, meta={
        "method": "twin-k17", "color": "B", "deleted_vertex": "0"})
    golden_twin = (GOLDEN / "twin_k17_B.txt").read_text()
    byte_stable = gf16_text == golden_gf16 and twin_text == golden_twin
    _report(10, "serialize/parse round trip and byte-stable goldens",
            ok and byte_stable)
