"""The coloring document: a line-oriented text format for edge colorings.

Version 1 layout, in this exact order:

    coloring/1
    n: 16
    k: 3
    colors: BRYB...            one character per edge, ordinal order
    meta.<key>: <value>        zero or more, sorted by key

`k` is the number of colors the document admits; the colors string may only
use the first k of B, R, Y.  Meta entries are free-form provenance
(method, seed, parameters); unknown meta keys are preserved and ignored.
Serialization is byte-stable: equal inputs give equal documents.

A template variant replaces undecided edges with '?' (meaning the full
domain).  Only one-open-edge assemblies need it, but the reader accepts any
number of open edges.
"""

from __future__ import annotations

from math import comb

from .coloring import _CHARS, EdgeColoring, _check_int, _record
from .errors import FormatError
from .templates import ColoringTemplate

FORMAT_TAG = "coloring/1"
# Document character of each domain mask 0-7: a color, '?' for all three, '.' (refused) otherwise
_MASK_CHARS = b".BR.Y..?"
_TO_MASK_CHARS = bytes.maketrans(bytes(range(8)), _MASK_CHARS)
_FROM_MASK_CHARS = bytes.maketrans(_MASK_CHARS, bytes(range(8)))


def _one_line(s: str) -> bool:
    """True iff str.splitlines, which the reader uses, leaves s whole."""
    return "".join(s.splitlines()) == s


class ColoringDocument(_record("ColoringDocument", "n k colors meta")):
    """Parsed form of one document: counts, colors string, provenance map (a copy)."""

    __slots__ = ()

    def __new__(cls, n, k, colors, meta=None):
        _check_int(k, 2, 4, "k must be 2 or 3 (an int, not a bool)", FormatError)
        _check_int(n, 1, 10**18, "n must be a positive int (not a bool), with at most 18 digits",
                   FormatError)  # what the reader gives back
        if not isinstance(colors, str):  # the writer would print a list's repr
            raise FormatError(f"colors must be a string, not {type(colors).__name__}")
        expected = comb(n, 2)
        if len(colors) != expected:
            raise FormatError(
                f"colors string must have length C({n},2) = {expected}, got {len(colors)}"
            )
        allowed = _CHARS[:k] + "?"
        if bad := set(colors) - set(allowed):
            raise FormatError(f"colors string uses characters outside {allowed!r}: {sorted(bad)}")
        # A copy, or a later edit of the caller's dict would skip these checks.  Whatever
        # the reader would split or strip is refused, so every document written reads back equal.
        meta = {} if meta is None else dict(meta)
        for key, value in meta.items():
            if not isinstance(key, str) or not key or any(ch.isspace() or ch == ":" for ch in key):
                raise FormatError(f"bad meta key: {key!r}")
            if not isinstance(value, str) or value != value.strip() or not _one_line(value):
                raise FormatError(f"bad meta value for {key!r}: {value!r}")
        return super().__new__(cls, n, k, colors, meta)

    def to_coloring(self) -> EdgeColoring:
        if "?" in self.colors:
            raise FormatError("document has open edges; parse it as a template")
        return EdgeColoring.from_string(self.n, self.colors)

    def to_template(self) -> ColoringTemplate:
        return ColoringTemplate(self.n, self.colors.encode().translate(_FROM_MASK_CHARS))

    def to_text(self) -> str:
        lines = [FORMAT_TAG, f"n: {self.n}", f"k: {self.k}", f"colors: {self.colors}"]
        lines += [f"meta.{key}: {self.meta[key]}" for key in sorted(self.meta)]
        return "\n".join(lines) + "\n"


def serialize(c: EdgeColoring, k: int | None = None, meta: dict[str, str] | None = None) -> str:
    """Canonical document text for a coloring; byte-stable for equal inputs.

    k defaults to the fewest colors (at least 2) that cover the coloring.
    """
    if k is None:
        k = max(2, 1 + max(c.colors, default=0))
    return ColoringDocument(c.n, k, c.color_string(), meta).to_text()


def parse_document(text: str) -> ColoringDocument:
    """Read a document, '?' open edges included; raises FormatError on bad input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty document")
    if lines[0].strip() != FORMAT_TAG:
        raise FormatError(f"unknown format header: {lines[0]!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(":")
        if not sep:
            raise FormatError(f"line is not 'key: value': {ln!r}")
        key = key.strip()
        if not key.startswith("meta.") and key not in ("n", "k", "colors"):
            raise FormatError(f"unknown field: {key!r}")
        if key in fields:
            raise FormatError(f"duplicate field: {key}")
        fields[key] = value.strip()
    for required in ("n", "k", "colors"):
        if required not in fields:
            raise FormatError(f"missing field: {required}")
    n, k = fields["n"], fields["k"]
    if not all(v.isascii() and v.isdigit() and (v[0] != "0" or v == "0") for v in (n, k)):
        raise FormatError("n and k must be integers")  # no leading zero: 03 would write back as 3
    if max(len(n), len(k)) > 18:  # fits int64; C(n, 2) colors for a longer n never fit in memory
        raise FormatError("n and k must have at most 18 digits")
    meta = {key[len("meta.") :]: v for key, v in fields.items() if key.startswith("meta.")}
    return ColoringDocument(int(n), int(k), fields["colors"], meta)


def serialize_template(t: ColoringTemplate, meta: dict[str, str] | None = None) -> str:
    """Document text for a template whose domains are all singleton or full.

    Open edges are written as '?'; parse_document(text).to_template() reads
    them back.  Templates with two-color domains or couplings have no
    document form.
    """
    if t.couplings:
        raise FormatError("templates with couplings have no document form")
    chars = t.domains.translate(_TO_MASK_CHARS).decode()
    if (o := chars.find(".")) >= 0:
        raise FormatError(f"edge ordinal {o} has a partial domain; not serializable")
    return ColoringDocument(t.n, 3, chars, meta).to_text()
