"""The public API: exactly these names, and each one resolves."""

import ramsey333

PUBLIC_NAMES = [
    "AssemblyReport", "BudgetError", "COLORS", "CYLINDER_LABELS", "Color",
    "ColoringDocument", "ColoringTemplate", "Coupling", "EdgeColoring",
    "FormatError", "MonoTriangle", "NotTriangleFreeError", "SearchParams",
    "SearchResult", "TriangleCensus", "assemble", "census",
    "color_degree_profile", "complete_edge", "construct_gf16", "cubic_classes",
    "cylinder_template", "delete_vertex", "edge_index", "exhaustive_min",
    "export_figure", "extend_with", "extension_of_vertex",
    "fast_mono_counts", "find_extensions", "minimize", "move_delta",
    "parse_document", "permute_colors", "permute_vertices",
    "random_coloring", "serialize", "serialize_template", "sigma",
    "solve_template", "template_violations", "twin_k17",
]


def test_public_names_are_pinned():
    assert sorted(ramsey333.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from ramsey333 import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(ramsey333, name)

