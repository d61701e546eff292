"""Exception types shared across the package."""


class BudgetError(Exception):
    """Requested work exceeds a budget constant: states, triples, edges, work or DFS nodes."""


class FormatError(ValueError):
    """Malformed or inconsistent coloring document."""


class NotTriangleFreeError(ValueError):
    """A coloring required to be triangle-free contains a monochromatic triangle."""
