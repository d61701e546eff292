"""The cubic-residue classes of GF(16)."""

from itertools import combinations

from ramsey333 import COLORS, construct_gf16, cubic_classes

NONZERO = range(1, 16)


def test_cubic_classes_partition():
    classes = cubic_classes()
    assert classes[0] == frozenset({1, 8, 12, 10, 15})  # g^0, g^3, g^6, g^9, g^12
    assert all(len(cls) == 5 for cls in classes)
    assert frozenset().union(*classes) == frozenset(NONZERO)
    for a, b in combinations(range(3), 2):
        assert not classes[a] & classes[b]


def test_classes_are_sum_free():
    for cls in cubic_classes():
        for a, b in combinations(sorted(cls), 2):
            assert (a ^ b) not in cls


def test_class_of():
    g = construct_gf16()
    for j, cls in enumerate(cubic_classes()):
        for x in cls:
            assert g.color(0, x) == COLORS[j]
