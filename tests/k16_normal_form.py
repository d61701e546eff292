"""Enumerate the normal form of a triangle-free 3-coloring of K_16 on the spoke kernel.

Run from the repository root: PYTHONPATH=src python tests/k16_normal_form.py
(about 20 s; it writes no file).  pytest does not collect it: CI runs it as its own step.

The normalisation lemma.  In a triangle-free 3-coloring of K_16 every vertex has color
degrees (5, 5, 5): R(3,3) = 6 caps each at 5, and they sum to 15.  Put vertex 0's blue,
red and yellow neighbors at A = 1-5, B = 6-10 and C = 11-15.  Each block's K_5 uses the two
other colors with no monochromatic triangle, so it is a pentagon and a pentagram; relabel
inside each block so that the lower color's pentagon is (i, i+1 mod 5).  That pins 45
edges (15 spokes of vertex 0 and 10 in each block) and leaves the 75 cross edges free.

Why 600.  A coloring has 16 * 10^3 such labellings: 16 choices of vertex 0, then in each
block the 10 ways (the dihedral group of the pentagon) to lay its pentagon on (i, i+1 mod 5).
Two labellings give the same normal coloring exactly when they differ by an automorphism, so
a coloring with automorphism group Aut has 16000 / |Aut| normal images.  The two classes of
Kalbfleisch & Stanton (1968) have |Aut| = 160 and 32: 100 + 500 = 600 completions.
"""

import sys
import time
from itertools import combinations

from ramsey333 import EdgeColoring, census
from ramsey333.coloring import _spoke_dfs, toggle

EXPECTED = 16000 // 160 + 16000 // 32
BLUE, RED, YELLOW = 0, 1, 2
BLOCKS = {BLUE: range(1, 6), RED: range(6, 11), YELLOW: range(11, 16)}  # vertex 0's neighbors


def pinned_rows() -> list[list[int]]:
    """Bit rows of K_16 holding the lemma's 45 pinned edges and nothing else."""
    rows = [[0] * 16 for _ in range(3)]
    for x, block in BLOCKS.items():
        low, high = (y for y in (BLUE, RED, YELLOW) if y != x)
        for u in block:
            toggle(rows, 0, u, x)
        for i, j in combinations(range(5), 2):
            toggle(rows, block[i], block[j], low if (j - i) % 5 in (1, 4) else high)
    return rows


def completions() -> list[EdgeColoring]:
    """Every triangle-free coloring in normal form: vertices 6-15 join in turn, bound 1."""
    rows = pinned_rows()
    found = []

    def leaf(spokes: bytearray, count: int) -> int:
        v = len(spokes)
        if v + 1 < 16:
            _spoke_dfs(rows, v + 1, (BLUE, RED, YELLOW), count, 1, leaf)
        else:
            colors = bytes(next(x for x in range(3) if rows[x][i] >> j & 1)
                           for i, j in combinations(range(16), 2))
            found.append(EdgeColoring(16, colors))
        return 1

    _spoke_dfs(rows, 6, (BLUE, RED, YELLOW), 0, 1, leaf)
    return found


def main() -> int:
    start = time.perf_counter()
    rows = pinned_rows()
    assert sum(r.bit_count() for x in rows for r in x) == 2 * 45
    found = completions()
    assert len(found) == EXPECTED, f"{len(found)} completions, expected {EXPECTED}"
    assert len(set(found)) == len(found), "a completion is listed twice"
    assert all(census(c).mono == (0, 0, 0) for c in found)
    print(f"{len(found)} triangle-free normal forms of K_16 in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
