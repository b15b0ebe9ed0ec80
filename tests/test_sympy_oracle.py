"""Full mode and the F_p factorizer against an independent factorizer: sympy.

The inputs have the shape that loads the F_p factorizer and its Frobenius
tables hardest: monic, degree 24-36, 20-bit coefficients, p in {10007,
65521}, and a third of them products of 2-3 factors.  sympy's factor_list
counts the irreducible factors over Z.  That count must never exceed
factor_bound, and IRREDUCIBLE must never be certified for a reducible input.
At the same degrees, fp_factorize must give sympy's factorization mod p.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from phinewton.criteria import IRREDUCIBLE, analyze
from phinewton.polyring import IntPoly
from phinewton.residue_field import FqPoly, fp_factorize

PRIMES = (10007, 65521)


def random_monic(rng, degree, bits):
    bound = 1 << bits
    return [rng.randrange(-bound, bound + 1) for _ in range(degree)] + [1]


def product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def full_large_p_inputs(count=40, seed=2024):
    """(coefficients ascending, p) pairs; every third one is a product."""
    rng = random.Random(seed)
    for i in range(count):
        degree = rng.randint(24, 36)
        if i % 3 == 2:
            k = rng.choice((2, 3))
            cuts = sorted(rng.sample(range(4, degree - 3, 4), k - 1))
            degrees = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
            coeffs = [1]
            for d in degrees:
                coeffs = product(coeffs, random_monic(rng, d, 20 // k))
        else:
            coeffs = random_monic(rng, degree, 20)
        yield coeffs, PRIMES[i % 2]


def sympy_factor_count(coeffs):
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(coeffs[::-1], x, domain="ZZ").factor_list()
    return sum(mult for g, mult in factors if g.degree() > 0)


def test_full_mode_is_sound_against_sympy():
    products = 0
    for coeffs, p in full_large_p_inputs():
        report = analyze(IntPoly(coeffs), p)
        true_count = sympy_factor_count(coeffs)
        assert true_count <= report.factor_bound, (coeffs, p)
        if report.verdict == IRREDUCIBLE:
            assert true_count == 1, (coeffs, p)
        products += true_count > 1
    assert products >= 13  # the products really are reducible


def fp_inputs(seed=2025):
    """(coefficients ascending, p): monic, degree 24-36, p in {10007, 40009,
    65521}; a third random, a third g^2 * h, a third g^3 * h^2 * k."""
    rng = random.Random(seed)
    for i in range(12):
        p = (10007, 40009, 65521)[i % 3]
        degree = rng.randint(24, 36)
        if i % 3 == 0:
            yield [c % p for c in random_monic(rng, degree, 20)], p
            continue
        g = random_monic(rng, rng.randint(3, 6), 20)
        h = random_monic(rng, rng.randint(2, 5), 20)
        coeffs = product(g, g)
        if i % 3 == 2:
            coeffs = product(product(coeffs, g), product(h, h))
        else:
            coeffs = product(coeffs, h)
        rest = degree - (len(coeffs) - 1)
        if rest > 0:
            coeffs = product(coeffs, random_monic(rng, rest, 20))
        yield [c % p for c in coeffs], p


def test_fp_factorize_matches_sympy_mod_p():
    x = sympy.Symbol("x")
    repeated = 0
    for coeffs, p in fp_inputs():
        fact = fp_factorize(FqPoly(p, coeffs))
        unit, factors = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
        expected = sorted(([int(c) % p for c in g.all_coeffs()[::-1]], mult)
                          for g, mult in factors)
        assert sorted((list(g.coeffs), mult) for g, mult in fact.factors) == expected, (
            coeffs, p)
        assert fact.unit == int(unit) % p == 1
        repeated += any(mult > 1 for _, mult in expected)
    assert repeated >= 8  # the squares and cubes really are repeated factors
