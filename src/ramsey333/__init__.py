"""Three-colorings of complete graphs with few monochromatic triangles.

A 3-edge-coloring of K_16 can avoid monochromatic triangles entirely; with
17 vertices that is impossible, and the interesting question becomes how few
such triangles a coloring can have.  This package constructs the classic
triangle-free 16-vertex colorings, assembles 17-vertex colorings with
exactly five monochromatic triangles of a single color, and searches for
low-count colorings at other sizes.

The pieces:

- `coloring`: edge colorings, the brute-force triangle census (the oracle),
  and the bit-parallel fast path.
- `constructions`: the finite-field coloring from the sum-free cubic-residue
  classes of GF(16), and the cylinder rules.
- `templates`: partial colorings and the triangle-free completion solver.
- `synthesis`: vertex deletion/extension and the 17-vertex assembly.
- `search`: restart hill climbing plus exhaustive minima for tiny instances.
- `serialization`, `figures`, `cli`: the document format, DOT/SVG export,
  and the ramsey333 command.
"""

from .coloring import (
    COLORS,
    Color,
    EdgeColoring,
    MonoTriangle,
    TriangleCensus,
    census,
    color_degree_profile,
    delete_vertex,
    edge_index,
    fast_mono_counts,
    permute_colors,
    permute_vertices,
)
from .constructions import CYLINDER_LABELS, construct_gf16, cubic_classes, cylinder_template, sigma
from .errors import BudgetError, FormatError, NotTriangleFreeError
from .figures import export_figure
from .search import (
    SearchParams,
    SearchResult,
    exhaustive_min,
    minimize,
    move_delta,
    random_coloring,
)
from .serialization import (
    ColoringDocument,
    parse_document,
    serialize,
    serialize_template,
)
from .synthesis import (
    AssemblyReport,
    assemble,
    complete_edge,
    extend_with,
    extension_of_vertex,
    find_extensions,
    twin_k17,
)
from .templates import (
    ColoringTemplate,
    Coupling,
    solve_template,
    template_violations,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyReport",
    "BudgetError",
    "COLORS",
    "CYLINDER_LABELS",
    "Color",
    "ColoringDocument",
    "ColoringTemplate",
    "Coupling",
    "EdgeColoring",
    "FormatError",
    "MonoTriangle",
    "NotTriangleFreeError",
    "SearchParams",
    "SearchResult",
    "TriangleCensus",
    "assemble",
    "census",
    "color_degree_profile",
    "complete_edge",
    "construct_gf16",
    "cubic_classes",
    "cylinder_template",
    "delete_vertex",
    "edge_index",
    "exhaustive_min",
    "export_figure",
    "extend_with",
    "extension_of_vertex",
    "fast_mono_counts",
    "find_extensions",
    "minimize",
    "move_delta",
    "parse_document",
    "permute_colors",
    "permute_vertices",
    "random_coloring",
    "serialize",
    "serialize_template",
    "sigma",
    "solve_template",
    "template_violations",
    "twin_k17",
]
