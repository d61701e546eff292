#!/usr/bin/env python3
"""Seventeen vertices: five monochromatic triangles of a single color.

With 17 vertices a monochromatic triangle is unavoidable.  This walk-through
builds a coloring that concedes as little as possible: delete a vertex from
the triangle-free K_16, find every way to re-extend the K_15 core (there is
exactly one), mount that extension twice, and close the one remaining edge.
All the damage concentrates in five triangles through the closing edge, all
in whichever color the edge takes.
"""

from pathlib import Path

from ramsey333 import (
    COLORS,
    Color,
    assemble,
    complete_edge,
    census,
    construct_gf16,
    delete_vertex,
    export_figure,
    extension_of_vertex,
    find_extensions,
)

g = construct_gf16()
k15 = delete_vertex(g, 0)
print(f"K15 core: census mono = {census(k15).mono}")

extensions = find_extensions(k15)
print(f"triangle-free extensions of the core: {len(extensions)}")
print(f"  spokes: {''.join('BRY'[x] for x in extensions[0])}")
print(f"  identical to the deleted vertex's spokes: "
      f"{extensions[0] == extension_of_vertex(g, 0)}")

ext = extensions[0]
template = assemble(k15, ext, ext)
print(f"\nassembled K17 minus one edge; open ordinals: {template.open_ordinals()}")

for x in COLORS:
    rep = complete_edge(template, x)
    tris = [(t.i, t.j, t.k) for t in rep.census.mono_list]
    print(f"  close with {x.name.lower():6s} -> mono {rep.census.mono}, "
          f"all through the new edge: {rep.triangles_through_new_edge == rep.census.total_mono}")
    if x == Color.BLUE:
        blue_triangles = tris

print(f"\nthe five blue triangles: {blue_triangles}")
print("each is {v, 15, 16} where both spokes of v carry blue")

rep = complete_edge(template, Color.BLUE)
out = Path(__file__).with_name("k17_five_triangles.svg")
out.write_text(export_figure(rep.coloring, format="svg", highlight_mono=True))
print(f"wrote {out.name} (the five triangles drawn with thick strokes)")
