"""The public API: exactly these names, and each one resolves."""

import importlib

import ramsey333

PUBLIC_NAMES = [
    "AssemblyReport", "BudgetError", "COLORS", "CYLINDER_LABELS", "Color",
    "ColoringDocument", "ColoringTemplate", "Coupling", "EdgeColoring",
    "FormatError", "MonoTriangle", "NotTriangleFreeError", "SearchParams",
    "SearchResult", "TriangleCensus", "assemble", "census",
    "color_degree_profile", "complete_edge", "construct_gf16", "cubic_classes",
    "cylinder_template", "delete_vertex", "edge_index", "edge_list",
    "exhaustive_min", "export_figure", "extend_with", "extension_of_vertex",
    "fast_mono_counts", "find_extensions", "minimize", "move_delta",
    "parse", "parse_document", "permute_colors", "permute_vertices",
    "random_coloring", "rotate_color", "serialize", "serialize_template", "sigma",
    "solve_template", "template_violations", "twin_k17",
]

# Importable from their modules, not re-exported by the package.
SUBMODULE_NAMES = {
    "gf16": ["GENERATOR", "REDUCTION_POLY", "gf16_mul", "gf16_pow"],
}


def test_public_names_are_pinned():
    assert sorted(ramsey333.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from ramsey333 import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(ramsey333, name)


def test_submodule_names_stay_out_of_the_package_namespace():
    for module, names in SUBMODULE_NAMES.items():
        mod = importlib.import_module(f"ramsey333.{module}")
        for name in names:
            assert hasattr(mod, name)
            assert name not in ramsey333.__all__
