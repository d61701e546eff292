"""Document format: round trips, validation, golden files."""

import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey333 import (
    Color,
    ColoringDocument,
    EdgeColoring,
    FormatError,
    census,
    construct_gf16,
    parse_document,
    random_coloring,
    serialize,
    serialize_template,
    twin_k17,
)
from ramsey333.templates import ColoringTemplate, Coupling

GOLDEN = Path(__file__).parent / "golden"


def test_serialize_small():
    text = serialize(EdgeColoring.from_string(3, "BBB"))
    assert "colors: BBB" in text
    assert text.startswith("coloring/1\n")
    assert text == "coloring/1\nn: 3\nk: 2\ncolors: BBB\n"


def test_round_trip_random():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randrange(1, 20)
        c = random_coloring(n, rng.choice((2, 3)), rng.getrandbits(64))
        assert parse_document(serialize(c)).to_coloring() == c


def test_serialization_is_byte_stable():
    c = construct_gf16()
    meta = {"method": "gf16", "note": "canonical"}
    assert serialize(c, k=3, meta=meta) == serialize(c, k=3, meta=meta)


def test_meta_round_trip_preserves_unknown_keys():
    c = EdgeColoring.from_string(3, "BRY")
    text = serialize(c, meta={"zeta": "last", "alpha": "first", "custom-key": "kept"})
    doc = parse_document(text)
    assert doc.meta == {"zeta": "last", "alpha": "first", "custom-key": "kept"}
    # sorted output
    assert text.index("meta.alpha") < text.index("meta.custom-key") < text.index("meta.zeta")


def test_parse_rejects_bad_documents():
    good = "coloring/1\nn: 3\nk: 3\ncolors: BRY\n"
    assert parse_document(good).to_coloring() == EdgeColoring.from_string(3, "BRY")
    bad = [
        "coloring/2\nn: 3\nk: 3\ncolors: BRY\n",  # unknown version
        "n: 3\nk: 3\ncolors: BRY\n",  # missing header
        "coloring/1\nn: 3\nk: 3\ncolors: BR\n",  # wrong length
        "coloring/1\nn: 3\nk: 3\ncolors: BRQ\n",  # bad character
        "coloring/1\nn: 3\nk: 2\ncolors: BRY\n",  # Y not allowed at k=2
        "coloring/1\nn: 3\nk: 4\ncolors: BRY\n",  # bad k
        "coloring/1\nn: x\nk: 3\ncolors: BRY\n",  # non-integer n
        "coloring/1\nn: 0_3\nk: 3\ncolors: BRY\n",  # digit grouping
        "coloring/1\nn: +3\nk: 3\ncolors: BRY\n",  # sign
        "coloring/1\nn: \u0663\nk: 3\ncolors: BRY\n",  # Arabic-Indic digit three
        "coloring/1\nn: 03\nk: 3\ncolors: BRY\n",  # leading zero: 03 would write back as 3
        "coloring/1\nn: 3\nk: 03\ncolors: BRY\n",  # leading zero in k
        "coloring/1\nn: 0\nk: 3\ncolors: \n",  # no vertices
        "coloring/1\nn: " + "1" * 5000 + "\nk: 3\ncolors: B\n",  # beyond int()'s digit limit
        "coloring/1\nn: " + "1" * 2200 + "\nk: 3\ncolors: B\n",  # C(n,2) beyond it
        "coloring/1\nn: 3\nk: " + "1" * 5000 + "\ncolors: BRY\n",
        "coloring/1\nn: 1" + "0" * 18 + "\nk: 3\ncolors: B\n",  # 19 digits
        "coloring/1\nn: 3\nk: 3\ncolors: BRY\nbogus\n",  # a line with no ':'
        "coloring/1\nn: 3\nk: 3\ncolors: BRY\nn: 3\n",  # duplicate field
        "coloring/1\nn: 3\nk: 3\ncolors: BRY\nbogus: 1\n",  # unknown field
        "coloring/1\nn: 3\nk: 3\n",  # missing colors
        "",
    ]
    for text in bad:
        with pytest.raises(FormatError):
            parse_document(text).to_coloring()
    for n in (10**2200, 10**5000):  # refused without printing n or C(n, 2)
        with pytest.raises(FormatError, match="at most 18 digits"):
            ColoringDocument(n, 3, "B")
    with pytest.raises(FormatError, match="not a bool"):  # the writer would put "n: True"
        ColoringDocument(True, 3, "")
    # a float n or k is a format error too, not a TypeError from comb or a slice
    for n, k in ((3.0, 3), (3, 3.0), (3, True)):
        with pytest.raises(FormatError, match="not a bool"):
            ColoringDocument(n, k, "BRY")
    for k in (2.0, 3.0, True):
        with pytest.raises(FormatError, match="k must be 2 or 3"):
            serialize(EdgeColoring.from_string(3, "BBB"), k=k)


@pytest.mark.parametrize("meta", [
    {"key": "a\rb"},  # every str.splitlines separator splits the line
    {"key": "a\x85b"},
    {"key": "a\u2028b"},
    {"key": "a\nb"},
    {"a\rb": "value"},
    {"key\u2028": "value"},
    {"key": " value"},  # the reader strips surrounding whitespace
    {"key": "value\t"},
    {"key\t": "value"},
    {"": "value"},
    {"a:b": "value"},
    {"a b": "value"},
    {"key": 5},
])
def test_writer_rejects_meta_the_reader_would_alter(meta):
    with pytest.raises(FormatError):
        serialize(EdgeColoring.from_string(3, "BRY"), meta=meta)


def test_duplicate_meta_key_is_rejected():
    with pytest.raises(FormatError, match="duplicate field: meta.a"):
        parse_document("coloring/1\nn: 3\nk: 3\ncolors: BRY\nmeta.a: 1\nmeta.a: 2\n")


_TRICKY = st.sampled_from(list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029:.?"))
_TEXT = st.text(st.one_of(_TRICKY, st.characters()), max_size=6)
# the same text with what the writer refuses taken out: keys lose ':' and
# whitespace and must stay non-empty, values lose line breaks and outer whitespace
_KEY = _TEXT.map(lambda s: "".join(ch for ch in s if ch != ":" and not ch.isspace())).filter(bool)
_VALUE = _TEXT.map(lambda s: "".join(s.splitlines()).strip())


@st.composite
def _document_fields(draw, key=_TEXT, value=_TEXT):
    n = draw(st.integers(1, 7))
    k = draw(st.sampled_from((2, 3)))
    m = comb(n, 2)
    colors = draw(st.text(st.sampled_from("BRY"[:k] + "?"), min_size=m, max_size=m))
    meta = draw(st.dictionaries(key, value, max_size=3))
    return n, k, colors, meta


@settings(max_examples=300, deadline=None, database=None)
@given(_document_fields(_KEY, _VALUE))
def test_every_written_document_reads_back_equal(fields):
    doc = ColoringDocument(*fields)
    assert parse_document(doc.to_text()) == doc


@settings(max_examples=300, deadline=None, database=None)
@given(_document_fields())
def test_every_drawn_document_is_refused_or_reads_back_equal(fields):
    try:
        doc = ColoringDocument(*fields)
    except FormatError:
        return
    assert parse_document(doc.to_text()) == doc


def test_k_is_inferred_when_missing():
    doc = parse_document(serialize(EdgeColoring.from_string(3, "BBB")))
    assert doc.k == 2
    doc = parse_document(serialize(EdgeColoring.from_string(3, "BRY")))
    assert doc.k == 3


def test_template_documents():
    rep_template_text = serialize_template(
        _one_open_template(), meta={"method": "assemble"}
    )
    assert "?" in rep_template_text
    t = parse_document(rep_template_text).to_template()
    assert t.open_ordinals() == [2]
    with pytest.raises(FormatError):
        parse_document(rep_template_text).to_coloring()  # a coloring has no open edges


def test_open_edges_take_all_three_colors_and_templates_write_k3():
    t = parse_document("coloring/1\nn: 3\nk: 2\ncolors: B?R\n").to_template()
    assert t.domains == b"\x01\x07\x02"  # B, all three colors, R
    assert serialize_template(t) == "coloring/1\nn: 3\nk: 3\ncolors: B?R\n"
    for ch, mask in (("B", 1), ("R", 2), ("Y", 4), ("?", 7)):  # each character to its mask and back
        text = f"coloring/1\nn: 3\nk: 3\ncolors: {ch}B?\n"
        t = parse_document(text).to_template()
        assert t.domains == bytes([mask, 1, 7])
        assert serialize_template(t) == text


def _one_open_template():
    return ColoringTemplate(3, b"\x01\x02\x07")  # B, R, open


def test_template_with_partial_domain_is_not_serializable():
    domains = b"\x01\x02\x06"  # B, R, red or yellow
    with pytest.raises(FormatError, match="edge ordinal 2 has a partial domain"):
        serialize_template(ColoringTemplate(3, domains))
    for mask in (3, 5, 6):  # every two-color domain, at the first and the last ordinal of K_5
        for o in (0, 9):
            domains = bytearray(b"\x07" * 10)
            domains[o] = mask
            with pytest.raises(FormatError, match=f"edge ordinal {o} has a partial domain"):
                serialize_template(ColoringTemplate(5, domains))
    coupled = ColoringTemplate(3, b"\x07\x07\x07", [Coupling(0, 1, 1)])
    with pytest.raises(FormatError, match="couplings"):
        serialize_template(coupled)


def test_golden_gf16():
    text = serialize(construct_gf16(), k=3, meta={"method": "gf16"})
    assert text == (GOLDEN / "gf16_k16.txt").read_text()
    assert census(parse_document(text).to_coloring()).mono == (0, 0, 0)


def test_golden_twin_k17():
    rep = twin_k17(Color.BLUE)
    text = serialize(
        rep.coloring, k=3,
        meta={"method": "twin-k17", "color": "B", "deleted_vertex": "0"},
    )
    assert text == (GOLDEN / "twin_k17_B.txt").read_text()
    assert census(parse_document(text).to_coloring()).mono == (5, 0, 0)
