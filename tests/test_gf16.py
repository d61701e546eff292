"""Field arithmetic and the cubic-residue classes."""

from itertools import combinations, product

import pytest

from ramsey333 import COLORS, construct_gf16, cubic_classes
from ramsey333.gf16 import GENERATOR, gf16_mul, gf16_pow

ELEMENTS = range(16)
NONZERO = range(1, 16)


def test_mul_examples():
    assert gf16_mul(0b0010, 0b0010) == 0b0100  # x * x = x^2
    assert gf16_mul(0b1000, 0b0010) == 0b0011  # x^3 * x = x^4 = x + 1
    for a in ELEMENTS:
        assert gf16_mul(a, 1) == a
        assert gf16_mul(a, 0) == 0


def test_mul_rejects_non_elements():
    with pytest.raises(ValueError):
        gf16_mul(16, 1)
    with pytest.raises(ValueError):
        gf16_mul(1, -1)


def test_field_axioms_exhaustive():
    for a, b in product(ELEMENTS, repeat=2):
        assert gf16_mul(a, b) == gf16_mul(b, a)
    for a, b, c in product(ELEMENTS, repeat=3):
        assert gf16_mul(gf16_mul(a, b), c) == gf16_mul(a, gf16_mul(b, c))
        assert gf16_mul(a, b ^ c) == gf16_mul(a, b) ^ gf16_mul(a, c)


def test_pow_examples():
    assert gf16_pow(GENERATOR, 15) == 1
    assert gf16_pow(GENERATOR, 1) == GENERATOR
    assert gf16_pow(GENERATOR, 4) == 0b0011
    for a in NONZERO:
        assert gf16_pow(a, 15) == 1
    assert gf16_pow(0, 5) == 0


def test_pow_domain_errors():
    with pytest.raises(ValueError):
        gf16_pow(0, 0)
    with pytest.raises(ValueError):
        gf16_pow(2, -1)


def test_generator_enumerates_nonzero_elements():
    powers = {gf16_pow(GENERATOR, e) for e in range(1, 16)}
    assert powers == set(NONZERO)


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
