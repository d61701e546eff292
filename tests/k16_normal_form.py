"""Enumerate the normal form of a triangle-free 3-coloring of K_16 on the spoke kernel.

Run from the repository root: PYTHONPATH=src python tests/k16_normal_form.py
(18-23 s on a shared 2-vCPU Xeon under Python 3.11, about 1 s of it for the normal images; it
writes no file).  pytest does not collect it: CI runs it as its own step.

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
The second path: test_templates._normal_images relabels construct_gf16() and the cylinder
rules' first completion with permute_vertices, 16000 labellings each, and shares no code with
the spoke kernel.  The two image sets have 100 and 500 members, are disjoint, and together are
exactly the 600 completions.  So every triangle-free coloring of K_16 is a vertex
relabelling of one of the two, and the two are not relabellings of each other.
"""

import sys
import time
from itertools import combinations

from ramsey333 import EdgeColoring, census, construct_gf16, cylinder_template, solve_template
from ramsey333.coloring import _spoke_dfs, toggle
from test_templates import _normal_images  # tests/ is first on sys.path when run as a script

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
    enumerated = time.perf_counter()
    # the second path: the normal images of the two built colorings, 16000 labellings each
    images = []
    for c in (construct_gf16(), solve_template(cylinder_template())[0]):
        listed = list(_normal_images(c))
        assert len(listed) == 16000, f"{len(listed)} labellings, expected 16000"
        images.append(set(listed))
    gf16, cylinder = images
    assert (len(gf16), len(cylinder)) == (16000 // 160, 16000 // 32)
    assert gf16.isdisjoint(cylinder), "a normal image of both colorings"
    assert gf16 | cylinder == set(found), "the completions are not the two colorings' images"
    done = time.perf_counter()
    print(f"{len(found)} triangle-free normal forms of K_16 in {enumerated - start:.1f} s; "
          f"exactly the {len(gf16)} + {len(cylinder)} normal images of GF(16) and the cylinder "
          f"in {done - enumerated:.1f} s more ({done - start:.1f} s in all)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
