"""Exception types shared across the package."""


class BudgetError(Exception):
    """The requested enumeration exceeds the configured state budget."""


class FormatError(ValueError):
    """Malformed or inconsistent coloring document."""


class NotTriangleFreeError(ValueError):
    """A coloring required to be triangle-free contains a monochromatic triangle."""
