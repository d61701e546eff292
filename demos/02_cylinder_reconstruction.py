#!/usr/bin/env python3
"""Completing the structural rules of the cylinder coloring of K_16.

The cylinder description pins only the shape of the coloring: a hub O with
blue/red/yellow spokes into three five-vertex blocks, each block K_5 using
two of the three colors, and the three families of cross edges locked
together by the cyclic shift sigma.  No explicit edge list is given, so we
encode the rules as a template and let the backtracking solver find the
triangle-free completions.  The rules do not fix the class: they admit 72
completions, 60 of the cylinder class and 12 of the GF(16) class.  The
solver's first completion, printed below, is the cylinder coloring, and
`construct --method cylinder` emits it.
"""

from itertools import product

from ramsey333 import (
    CYLINDER_LABELS,
    census,
    cylinder_template,
    sigma,
    solve_template,
    template_violations,
)

template = cylinder_template()
open_edges = len(template.open_ordinals())
print(f"template: 16 vertices, {open_edges} undecided edges, "
      f"{len(template.couplings)} couplings")

solutions = solve_template(template, limit=3)
print(f"solver found {len(solutions)} completions (asked for up to 3)\n")

first = solutions[0]
print("canonical (first) solution:")
print(f"  colors: {first.color_string()}")
print(f"  census mono: {census(first).mono}")
print(f"  independent checker violations: {template_violations(template, first)}")

# spot-check the sigma coupling on a few cross edges
a1b2 = first.color(CYLINDER_LABELS.index("A1"), CYLINDER_LABELS.index("B2"))
b1c2 = first.color(CYLINDER_LABELS.index("B1"), CYLINDER_LABELS.index("C2"))
c1a2 = first.color(CYLINDER_LABELS.index("C1"), CYLINDER_LABELS.index("A2"))
print(f"\n  A1B2={a1b2.char}  B1C2={b1c2.char} (= sigma)  C1A2={c1a2.char} (= sigma^2)")
assert b1c2 == sigma(a1b2) and c1a2 == sigma(sigma(a1b2))

ok = all(
    first.color(5 + i, 10 + j) == sigma(first.color(i, 5 + j))
    and first.color(j, 10 + i) == sigma(sigma(first.color(i, 5 + j)))
    for i, j in product(range(1, 6), repeat=2)
)
print(f"  sigma coupling holds on all 25 cross triples: {ok}")
