import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from oracles import height_at, slope
from phinewton.criteria import analyze
from phinewton.polygon import Side, ratio
from phinewton.polyring import IntPoly
from phinewton.residue_field import FqPoly, fp_factorize
from phinewton.valuation import (
    _MR_DETERMINISTIC_BOUND,
    INFINITY,
    _split,
    is_prime,
    valuation,
)


def naive_valuation(p, x):
    # independent oracle: repeated exact division
    if x == 0:
        return INFINITY
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class TestValuation:
    def test_examples(self):
        assert valuation(48, 2) == 4
        assert valuation(0, 5) is INFINITY
        assert valuation(45, 3) == 2

    def test_uniformizer_normalized(self):
        for p in (2, 3, 5, 101):
            assert valuation(p, p) == 1

    def test_prime_power_times_unit(self):
        for k in (0, 1, 7, 40):
            for u in (1, 2, 5, -7, 3**0 + 1):
                if u % 3 == 0:
                    continue
                assert valuation(3**k * u, 3) == k

    def test_multiplicative_and_ultrametric(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(200):
                x = rng.randint(-(10**9), 10**9)
                y = rng.randint(-(10**9), 10**9)
                if x == 0 or y == 0:
                    continue
                assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
                assert valuation(x + y, p) >= min(valuation(x, p), valuation(y, p))

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            x = rng.randint(-(10**12), 10**12)
            assert valuation(x, 7) == naive_valuation(7, x)

    def test_agrees_with_naive_across_run_lengths(self):
        # u is a unit, so nu_p(u * p^k) = k by construction; the naive loop is
        # checked as well where it is cheap enough to run
        rng = random.Random(13)
        ks = set(range(7)) | {20_000}
        for j in range(1, 15):
            ks |= {2**j - 1, 2**j, 2**j + 1}
        for p in (2, 3, 7, 10007, 65521):
            for k in sorted(ks):
                u = rng.randrange(1, p) + p * rng.getrandbits(64)
                x = (-1) ** k * u * p**k
                assert valuation(x, p) == k, (p, k)
                if k <= 2**10 + 1:
                    assert valuation(x, p) == naive_valuation(p, x)

    def test_random_signed_multiples(self):
        rng = random.Random(17)
        for p in (2, 3, 5, 7, 10007, 65521):
            for _ in range(60):
                k = rng.choice((rng.randrange(8), rng.randrange(600)))
                x = rng.choice((-1, 1)) * rng.randrange(1, 10**30) * p**k
                assert valuation(x, p) == naive_valuation(p, x)

    def test_huge_valuation_is_fast(self):
        # one division per unit of valuation would take minutes here
        for p in (2, 3):
            x = p**100_000 * (p + 1)
            start = time.perf_counter()
            assert valuation(x, p) == 100_000
            assert valuation(-x, p) == 100_000
            assert time.perf_counter() - start < 5.0


def naive_split(p, x):
    # independent oracle: the unit left after naive_valuation's divisions
    v = naive_valuation(p, x)
    for _ in range(v):
        x //= p
    return v, x % p


class TestSplit:
    """_split(x, p, ladder) is (nu_p(x), (x / p^nu) mod p) for nonzero x."""

    def test_examples(self):
        assert _split(48, 2, [2]) == (4, 1)
        assert _split(45, 3, [3]) == (2, 2)
        assert _split(-45, 3, [3]) == (2, 1)
        assert _split(7**40 * 12, 7, [7]) == (40, 5)

    def test_matches_naive_oracle(self):
        rng = random.Random(19)
        for p in (2, 3, 5, 7, 10007, 65521):
            for _ in range(200):
                k = rng.choice((rng.randrange(5), rng.randrange(80)))
                x = rng.choice((-1, 1)) * rng.randrange(1, 10**rng.randrange(1, 60)) * p**k
                assert _split(x, p, [p]) == naive_split(p, x), (p, x)

    def test_prime_power_times_unit(self):
        # x = +-p^k * u with u prime to p: the split is (k, +-u mod p)
        rng = random.Random(23)
        ks = [0, 1, 3, 4, 5, 31, 32, 35, 36, 37, 100, 1023, 1024, 1025, 5000]
        for p in (2, 3, 7, 65521):
            for k in ks:
                for bits in (1, 64, 2000):
                    u = rng.getrandbits(bits) * p + rng.randrange(1, p)
                    sign = rng.choice((-1, 1))
                    x = sign * p**k * u
                    assert _split(x, p, [p]) == naive_split(p, x) == (k, sign * u % p)

    def test_valuation_near_half_the_bits(self):
        # the descent's first and largest step divides x by P_k = p^(2^k)
        # with P_k^2 > |x|: here nu_p(x) is close to 2^k on either side
        rng = random.Random(29)
        for p in (3, 7, 65521):
            for top in (5, 8, 11):
                for k in (2**top - 1, 2**top, 2**top + 1, 2**(top + 1) - 1):
                    for j in (-2, -1, 0, 1, 2):
                        # u has about k + j factors' worth of bits, so x has
                        # about twice the bits of p^k
                        bits = max((k + j) * p.bit_length(), 1)
                        u = rng.getrandbits(bits) * p + rng.randrange(1, p)
                        sign = rng.choice((-1, 1))
                        x = sign * p**k * u
                        assert _split(x, p, [p]) == (k, sign * u % p), (p, k, j)
                        if k < 600:
                            assert _split(x, p, [p]) == naive_split(p, x)

    def test_shared_ladder(self):
        # one ladder serves numbers of any size, larger and smaller, in any order
        rng = random.Random(37)
        for p in (3, 7, 65521):
            ladder = [p]
            for _ in range(60):
                k = rng.randrange(3000)
                x = rng.choice((-1, 1)) * p**k * (rng.getrandbits(rng.randrange(1, 3000)) * p + 1)
                assert _split(x, p, ladder) == (k, x // p**k % p)
                assert all(b == p ** (2**i) for i, b in enumerate(ladder))

    def test_valuation_reads_the_split(self):
        rng = random.Random(41)
        for p in (2, 3, 65521):
            for _ in range(50):
                x = rng.choice((-1, 1)) * rng.randrange(1, 2**200) * p**rng.randrange(300)
                assert valuation(x, p) == _split(x, p, [p])[0]


class TestSideAgainstFraction:
    """A side keeps its slope as the integer pair h, e and prints it with
    `ratio`; `Fraction` is the reference for both, and for the heights that
    `Side.above` compares with."""

    def test_examples(self):
        # descending, flat and ascending: -4/6 = -2/3, 0/7 = 0, 6/4 = 3/2
        cases = [((0, 4), (6, 0), (2, 3, 2), "-2/3"), ((0, 0), (7, 0), (0, 1, 7), "0"),
                 ((0, 1), (4, 7), (3, 2, 2), "3/2"), ((2, 5), (3, 3), (2, 1, 1), "-2")]
        for start, end, hed, printed in cases:
            s = Side.from_endpoints(start, end)
            assert (s.h, s.e, s.degree) == hed
            assert ratio(end[1] - start[1], s.length) == printed == str(slope(s))

    def test_lowest_terms_positive_denominator(self):
        rng = random.Random(3)
        shapes = Counter()
        for _ in range(300):
            i0, i1 = sorted(rng.sample(range(-40, 41), 2))
            u0 = rng.randint(0, 60)
            u1 = rng.choice((u0, rng.randint(0, 60)))  # flat sides too
            s = Side.from_endpoints((i0, u0), (i1, u1))
            q = Fraction(u1 - u0, i1 - i0)
            shapes[(q > 0) - (q < 0)] += 1
            assert s.e == q.denominator > 0 and s.h == abs(q.numerator)
            assert math.gcd(s.h, s.e) == 1 and s.degree * s.e == s.length
            sign = (u1 > u0) - (u1 < u0)
            assert slope(s) == Fraction(sign * s.h, s.e) == q
            assert ratio(sign * s.h, s.e) == str(q)
            if sign < 0:  # a principal side prints -h/e, and lambda = h/e
                assert (ratio(-s.h, s.e), ratio(s.h, s.e)) == (str(q), str(-q))
            for i in range(i0, i1 + 1):
                line = height_at(s, i)
                for u in range(math.floor(line) - 1, math.ceil(line) + 2):
                    d = u - line
                    assert (s.above(i, u) > 0) == (d > 0)
                    assert (s.above(i, u) == 0) == (d == 0)
        assert min(shapes[-1], shapes[0], shapes[1]) > 30

    def test_ratio_prints_as_fraction(self):
        rng = random.Random(5)
        for _ in range(500):
            num, den = rng.randint(-500, 500), rng.randint(1, 500)
            assert ratio(num, den) == str(Fraction(num, den))


class TestPrimality:
    def test_domain_requires_prime(self):
        # both modes: full, and single-phi with phi = x
        f = IntPoly([2, 2, 1])
        phis = (None, IntPoly([0, 1]))
        for p in (2, 97, 2**61 - 1):
            for phi in phis:
                analyze(f, p, phi=phi)
        for bad in (0, 1, 4, 9, 91, 2**61 + 1):
            for phi in phis:
                with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
                    analyze(f, bad, phi=phi)

    def test_is_prime_small_range(self):
        def sieve(limit):
            flags = [True] * limit
            flags[0] = flags[1] = False
            for i in range(2, int(limit**0.5) + 1):
                if flags[i]:
                    for j in range(i * i, limit, i):
                        flags[j] = False
            return flags

        flags = sieve(2000)
        for n in range(2000):
            assert is_prime(n) == flags[n]

    def test_is_prime_carmichael(self):
        # Carmichael numbers fool Fermat tests; Miller-Rabin must reject them
        for n in (561, 1105, 1729, 2465, 41041, 825265):
            assert not is_prime(n)

    # From 3,317,044,064,679,887,385,961,981 on, is_prime runs Miller-Rabin on
    # the 25 prime bases below 100.
    M89, M107, M127 = 2**89 - 1, 2**107 - 1, 2**127 - 1

    def test_is_prime_above_the_deterministic_bound(self):
        assert 2**82 > _MR_DETERMINISTIC_BOUND
        for n in (self.M89, self.M107, self.M127):
            assert is_prime(n)
        assert not is_prime(self.M89 * self.M107)
        # 167 is above every trial-division prime
        assert 2**83 - 1 == 167 * 57912614113275649087721
        assert not is_prime(2**83 - 1)

    def test_is_prime_agrees_with_sympy_above_the_bound(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(89)
        sample = [rng.randrange(2**82 + 1, 2**100, 2) for _ in range(200)]
        primes = [n for n in sample if sympy.isprime(n)]
        assert [n for n in sample if is_prime(n)] == primes
        assert primes  # both outcomes are exercised

    def test_full_mode_at_a_prime_above_the_bound(self):
        f, p = IntPoly([5, 3, 0, 0, 1]), self.M89
        report = analyze(f, p)
        assert (report.verdict, report.factor_bound, report.min_factor_degree) == (
            "BOUNDED", 2, 2)
        factors = fp_factorize(FqPoly(p, f.coeffs)).factors
        assert [(g.degree, k) for g, k in factors] == [(2, 1), (2, 1)]
        assert factors[0][0] * factors[1][0] == FqPoly(p, f.coeffs)
