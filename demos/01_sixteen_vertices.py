#!/usr/bin/env python3
"""Sixteen vertices, three colors, zero monochromatic triangles.

Builds the finite-field coloring of K_16 and verifies the claim two
independent ways: sum-freeness of the residue classes, and the brute-force
triangle census.  Also shows the balanced (5,5,5) color degree at every
vertex and writes a chord-diagram SVG next to this script.
"""

from itertools import combinations
from pathlib import Path

from ramsey333 import (
    census,
    color_degree_profile,
    construct_gf16,
    cubic_classes,
    export_figure,
    fast_mono_counts,
)

print("The three cubic-residue classes of GF(16):")
for idx, cls in enumerate(cubic_classes()):
    members = sorted(cls)
    sums_inside = [
        (a, b) for a, b in combinations(members, 2) if (a ^ b) in cls
    ]
    print(f"  class {idx}: {members}  sum-free: {not sums_inside}")

print()
g = construct_gf16()
cen = census(g)
print(f"K16 edge coloring: {len(g.colors)} edges")
print(f"  census: mono={cen.mono}  bichromatic={cen.bichromatic}  rainbow={cen.rainbow}")
print(f"  bit-parallel counts agree: {fast_mono_counts(g) == cen.mono}")

profiles = {color_degree_profile(g, v) for v in range(16)}
print(f"  color degrees at every vertex: {profiles}")

out = Path(__file__).with_name("gf16_k16.svg")
out.write_text(export_figure(g, format="svg"))
print(f"\nwrote {out.name}")
