"""The record types: repr text, equality and hashing, immutability, pickling, validation.

The search-panel digest hashes repr(SearchParams), and bit_rows' cache is
keyed on EdgeColoring, so repr text and field-wise hashing are pinned here.
"""

import copy
import pickle

import pytest

from ramsey333 import (
    AssemblyReport,
    Color,
    ColoringDocument,
    ColoringTemplate,
    Coupling,
    EdgeColoring,
    FormatError,
    MonoTriangle,
    SearchParams,
    SearchResult,
    census,
    parse_document,
)

B = Color.BLUE


def _coloring():
    return EdgeColoring(3, b"\x00\x00\x01")


# (build a fresh instance, its repr, a field to assign to)
RECORDS = {
    "EdgeColoring": (
        _coloring,
        r"EdgeColoring(n=3, colors=b'\x00\x00\x01')",
        "colors",
    ),
    "MonoTriangle": (
        lambda: MonoTriangle(0, 1, 2, Color.RED),
        "MonoTriangle(i=0, j=1, k=2, color=<Color.RED: 1>)",
        "color",
    ),
    "TriangleCensus": (
        lambda: census(EdgeColoring(3, b"\x00\x00\x00")),
        "TriangleCensus(mono=(1, 0, 0), bichromatic=0, rainbow=0, "
        r"coloring=EdgeColoring(n=3, colors=b'\x00\x00\x00'))",
        "mono",
    ),
    "SearchParams": (
        lambda: SearchParams(n=5, k=2, seed=1),
        "SearchParams(n=5, k=2, seed=1, restarts=20, steps_per_restart=2000, "
        "sideways_limit=50)",
        "seed",
    ),
    "SearchResult": (
        lambda: SearchResult(_coloring(), 0, (0,), 6),
        r"SearchResult(best=EdgeColoring(n=3, colors=b'\x00\x00\x01'), best_count=0, "
        "trace=(0,), evaluations=6)",
        "best_count",
    ),
    "Coupling": (
        lambda: Coupling(0, 1, 2),
        "Coupling(src=0, dst=1, shift=2)",
        "shift",
    ),
    "ColoringTemplate": (
        lambda: ColoringTemplate(2, b"\x02"),
        r"ColoringTemplate(n=2, domains=b'\x02', couplings=())",
        "domains",
    ),
    "AssemblyReport": (
        lambda: AssemblyReport(B, census(_coloring()), 0),
        "AssemblyReport(added_edge_color=<Color.BLUE: 0>, census=TriangleCensus("
        "mono=(0, 0, 0), bichromatic=1, rainbow=0, "
        r"coloring=EdgeColoring(n=3, colors=b'\x00\x00\x01')), "
        "triangles_through_new_edge=0)",
        "census",
    ),
    "ColoringDocument": (
        lambda: ColoringDocument(2, 2, "B"),
        "ColoringDocument(n=2, k=2, colors='B', meta={})",
        "colors",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_immutability(name):
    build, text, field = RECORDS[name]
    a, b = build(), build()
    assert repr(a) == text
    assert a == b and a is not b
    if name == "ColoringDocument":
        with pytest.raises(TypeError):  # meta is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_survive_pickle_and_deepcopy(name):
    a = RECORDS[name][0]()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(b) is type(a) and b == a and b is not a


def test_missing_argument_error_names_the_record():
    with pytest.raises(TypeError, match=r"^SearchParams\.__new__\(\) missing 1 required"):
        SearchParams(5, 2)


def test_color_prints_as_its_capitalised_name():
    assert str(Color.RED) == f"{Color.RED}" == "Red"


def test_report_coloring_is_its_census_coloring():
    report = AssemblyReport(B, census(_coloring()), 0)
    assert report.coloring is report.census.coloring
    assert len(report) == 3


# (record, positional arguments, the same by keyword, error, message)
BAD_INPUTS = [
    (EdgeColoring, (0, b""), {"n": 0, "colors": b""}, ValueError, "at least 1"),
    (EdgeColoring, (2, 3), {"n": 2, "colors": 3}, TypeError, "not an int"),
    (EdgeColoring, (3, b"\x00"), {"n": 3, "colors": b"\x00"}, ValueError, "need 3 edge colors"),
    (EdgeColoring, (2, b"\x03"), {"n": 2, "colors": b"\x03"}, ValueError, "must be 0"),
    (SearchParams, (5, 4, 1), {"n": 5, "k": 4, "seed": 1}, ValueError, "k must be 2 or 3"),
    (SearchParams, (5, 2, -1), {"n": 5, "k": 2, "seed": -1}, ValueError, "64 bits"),
    (SearchParams, (5, 2, 1, 0), {"n": 5, "k": 2, "seed": 1, "restarts": 0},
     ValueError, "must be positive"),
    (ColoringTemplate, (3, ()), {"n": 3, "domains": ()}, ValueError, "need 3 domains"),
    (ColoringTemplate, (2, b"\x00"), {"n": 2, "domains": b"\x00"}, ValueError, "mask 1-7, got 0"),
    (ColoringTemplate, (2, b"\x01", (Coupling(0, 0, 1),)),
     {"n": 2, "domains": b"\x01", "couplings": (Coupling(0, 0, 1),)},
     ValueError, "to itself"),
    (ColoringDocument, (2, 4, "B"), {"n": 2, "k": 4, "colors": "B"}, FormatError, "k must be"),
    (ColoringDocument, (2, 2, "Y"), {"n": 2, "k": 2, "colors": "Y"}, FormatError, "outside"),
    (ColoringDocument, (2, 2, "B", {"a b": "c"}),
     {"n": 2, "k": 2, "colors": "B", "meta": {"a b": "c"}}, FormatError, "bad meta key"),
    (SearchParams, (0, 2, 1), {"n": 0, "k": 2, "seed": 1}, ValueError, "n must be positive"),
    (ColoringTemplate, (2, 1), {"n": 2, "domains": 1}, TypeError, "not an int"),
    # C(n, 2) of such an n has more digits than str() may print
    (EdgeColoring, (10**2200, b"\0"), {"n": 10**2200, "colors": b"\0"},
     ValueError, r"below 10\*\*18"),
    (EdgeColoring, (10**5000, b"\0"), {"n": 10**5000, "colors": b"\0"},
     ValueError, r"below 10\*\*18"),
    (ColoringTemplate, (10**2200, b"\1"), {"n": 10**2200, "domains": b"\1"},
     ValueError, r"below 10\*\*18"),
    (ColoringTemplate, (10**5000, b"\1"), {"n": 10**5000, "domains": b"\1"},
     ValueError, r"below 10\*\*18"),
    # a list of characters would be written as its repr, which no reader takes back
    (ColoringDocument, (2, 2, ["B"]), {"n": 2, "k": 2, "colors": ["B"]}, FormatError, "a string"),
    # a k too long for str() is refused without printing it
    (ColoringDocument, (2, 10**5000, "B"), {"n": 2, "k": 10**5000, "colors": "B"},
     FormatError, "k must be 2 or 3"),
]
# Every int field refuses a float, which would fail late or not at all, and a bool,
# which would be written back as True: (record, valid fields in order, field, error, message)
_SEARCH = {"n": 5, "k": 2, "seed": 1, "restarts": 1, "steps_per_restart": 1, "sideways_limit": 0}
INT_FIELDS = [
    (EdgeColoring, {"n": 3, "colors": b"\0\0\0"}, "n", ValueError, "vertex count"),
    (ColoringTemplate, {"n": 3, "domains": b"\1\1\1"}, "n", ValueError, "vertex count"),
    (SearchParams, _SEARCH, "n", ValueError, "n must be positive"),
    (SearchParams, _SEARCH, "k", ValueError, "k must be 2 or 3"),
    (SearchParams, _SEARCH, "seed", ValueError, "64 bits"),
    (SearchParams, _SEARCH, "restarts", ValueError, "restarts must be positive"),
    (SearchParams, _SEARCH, "steps_per_restart", ValueError, "steps_per_restart must be positive"),
    (SearchParams, _SEARCH, "sideways_limit", ValueError, "sideways_limit must be nonnegative"),
    (ColoringDocument, {"n": 3, "k": 3, "colors": "BRY"}, "n", FormatError, "n must be a positive"),
    (ColoringDocument, {"n": 3, "k": 3, "colors": "BRY"}, "k", FormatError, "k must be 2 or 3"),
]
for record, good, field, error, message in INT_FIELDS:
    for bad in (3.0, True):
        kwargs = {**good, field: bad}
        BAD_INPUTS.append((record, tuple(kwargs.values()), kwargs, error, message))


@pytest.mark.parametrize("record, args, kwargs, error, message", BAD_INPUTS)
def test_validated_records_refuse_bad_input(record, args, kwargs, error, message):
    with pytest.raises(error, match=message):
        record(*args)
    with pytest.raises(error, match=message):
        record(**kwargs)


def test_validated_records_normalise_their_values():
    c = EdgeColoring(3, bytearray(b"\x00\x01\x02"))
    assert type(c.colors) is bytes
    assert c == EdgeColoring(3, [0, 1, 2])
    assert ColoringDocument(2, 2, "B").meta is not ColoringDocument(2, 2, "B").meta


def test_document_keeps_a_copy_of_its_meta():
    meta = {"a": "b"}
    doc = ColoringDocument(2, 2, "B", meta)
    meta["bad key"] = "x\ny"
    assert doc.meta == {"a": "b"}
    assert parse_document(doc.to_text()) == doc


def test_replace_goes_through_the_checks():
    with pytest.raises(ValueError, match="at least 1"):
        _coloring()._replace(n=0)
    assert type(_coloring()._replace(colors=bytearray(3)).colors) is bytes
    with pytest.raises(ValueError, match="k must be 2 or 3"):
        SearchParams(n=5, k=2, seed=1)._replace(k=4)
    with pytest.raises(ValueError, match="to itself"):
        ColoringTemplate(2, b"\x01")._replace(couplings=(Coupling(0, 0, 1),))
    with pytest.raises(FormatError, match="k must be"):
        ColoringDocument(2, 2, "B")._replace(k=4)
    assert SearchParams(n=5, k=2, seed=1)._replace(seed=2) == SearchParams(n=5, k=2, seed=2)


def test_records_unpack_and_equal_their_field_tuples():
    n, colors = _coloring()
    assert (n, colors) == _coloring() == (3, b"\x00\x00\x01")
    assert SearchParams(5, 2, 1) == (5, 2, 1, 20, 2000, 50)
