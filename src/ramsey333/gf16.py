"""Arithmetic in the 16-element binary field and its cubic-residue classes.

Field elements are ints 0..15 read as polynomials over GF(2) in the basis
1, x, x^2, x^3; products are reduced modulo x^4 + x + 1.  Addition is XOR.
The element x (0b0010) generates the 15-element multiplicative group.

The three cosets of the cubic residues {g^(3k)} partition the nonzero
elements into classes of five.  Each class S is sum-free (a, b in S implies
a XOR b not in S), so coloring edge {u, w} of a 16-vertex complete graph by
the class of u XOR w yields no monochromatic triangle: the three differences
of any vertex triple XOR to zero, and a class never contains both a pair
and its sum.
"""

from __future__ import annotations

from functools import lru_cache

REDUCTION_POLY = 0b10011  # x^4 + x + 1
GENERATOR = 0b0010  # x


def _check_element(a: int) -> None:
    if not 0 <= a <= 15:
        raise ValueError(f"not a GF(16) element: {a}")


def gf16_mul(a: int, b: int) -> int:
    """Polynomial product reduced modulo x^4 + x + 1."""
    _check_element(a)
    _check_element(b)
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        if a & 0b10000:
            a ^= REDUCTION_POLY
        b >>= 1
    return prod


def gf16_pow(a: int, e: int) -> int:
    """Repeated field multiplication; a^15 = 1 for every nonzero a."""
    _check_element(a)
    if e < 0:
        raise ValueError("negative exponents are not supported")
    if a == 0:
        if e == 0:
            raise ValueError("0**0 is undefined in GF(16)")
        return 0
    result = 1
    for _ in range(e % 15):  # the multiplicative group has order 15
        result = gf16_mul(result, a)
    return result


@lru_cache(maxsize=1)
def cubic_classes() -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The 3 cubic-residue cosets: class j = {g^(3k+j) : k = 0..4} for g = x."""
    powers = [gf16_pow(GENERATOR, e) for e in range(15)]
    return tuple(
        frozenset(powers[e] for e in range(15) if e % 3 == j) for j in range(3)
    )
