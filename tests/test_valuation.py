import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from oracles import height_at, hull_oracle, slope
from phinewton.cli import report_to_dict
from phinewton.criteria import analyze
from phinewton.polygon import Side, ratio
from phinewton.polyring import IntPoly
from phinewton.valuation import (
    _MR_BASES,
    _MR_DETERMINISTIC_BOUND,
    INFINITY,
    _miller_rabin,
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
        # nu_p(x) near half the size of x is past both the exact division
        # and the ascent, so the descent's first and largest step divides x
        # by P_k = p^(2^k) with P_k^2 > |x|: here nu_p(x) is close to 2^k
        # on either side
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


def stage1_m(y, p):
    """The exponent of the one division in `_descend`'s first stage, for the
    number y that reaches it (x / p^4 in `_split`): p^m <= |y| is proven
    from bit lengths, as (bits(y) - 1) * 64 // bits(p^64)."""
    return ((y.bit_length() - 1) << 6) // (p**64).bit_length()


class TestSplitStages:
    """Each stage of the odd-p descent against naive_split, with cases built
    to land on a given stage: the exact division by p^m, the ascent, and
    the top-down descent."""

    PRIMES = (3, 5, 7, 65521)

    def test_exact_division_at_the_guessed_m(self):
        # y is a multiple of p^(m + extra) for the m that its own size gives,
        # so stage 1 divides exactly; the quotient is a unit or holds more
        # factors of p, which take the same path
        rng = random.Random(43)
        for p in self.PRIMES:
            for bits in (60, 200, 1000, 5000, 20000):
                top = rng.getrandbits(bits) | 1 << (bits - 1)
                m = stage1_m(top, p)
                for extra in (0, 1, 2, 40):
                    y = top - top % p ** (m + extra)
                    if not y:  # p^(m + extra) > top
                        continue
                    assert stage1_m(y, p) == m
                    for sign in (-1, 1):
                        x = sign * y * p**4
                        assert _split(x, p, [p]) == naive_split(p, x), (p, bits, extra)

    def test_pure_powers(self):
        # +-p^m and +-p^m * (p - 1): a quotient of a few bits after one
        # division; the naive loop checks the smaller ones
        for p in self.PRIMES:
            for m in (36, 37, 64, 100, 127, 128, 129, 1000, 4099, 12000):
                for c in (1, -1, p - 1, 1 - p):
                    x = c * p**m
                    assert _split(x, p, [p]) == (m, c % p), (p, m, c)
                    if m <= 1000:
                        assert _split(x, p, [p]) == naive_split(p, x)
                # p^g and p^g * (p - 1) at g = stage1_m(y) for y = p^m
                g = stage1_m(p**m, p)
                for c in (1, p - 1):
                    assert _split(c * p ** (g + 4), p, [p]) == (g + 4, c)

    def test_sums_of_powers(self):
        # p^a + p^b with a < b: the division by p^m misses, and its
        # remainder p^a keeps the valuation for the ascent or the descent
        rng = random.Random(47)
        for p in self.PRIMES:
            for b in (40, 100, 700, 3000):
                for a in sorted({4, 35, 36, 37, b // 3, b // 2, b - 100, b - 2, b - 1} - {b}):
                    if a < 0:
                        continue
                    for c in (1, p - 1, rng.randrange(1, p**3)):
                        x = rng.choice((-1, 1)) * (p**a * c + p**b)
                        assert _split(x, p, [p]) == naive_split(p, x), (p, a, b)

    def test_cofactors_of_1_to_30000_bits(self):
        # p^k * u: a small u settles in stage 1, a large u with a short run
        # in the ascent, and u near p^k in size in the descent from the top
        rng = random.Random(53)
        for p in self.PRIMES:
            for k in (36, 40, 100, 500, 2000):
                for bits in (1, 10, 100, 1000, 10000, 30000):
                    u = rng.getrandbits(bits) | 1 << (bits - 1)
                    u += (1 - u) % p  # u = 1 mod p
                    x = rng.choice((-1, 1)) * p**k * u
                    assert _split(x, p, [p]) == (k, x // p**k % p), (p, k, bits)
                    if k <= 500 and bits <= 1000:
                        assert _split(x, p, [p]) == naive_split(p, x)

    def test_around_the_probe(self):
        # _descend gets y = x / p^4 and first tests P_5 = p^32: y just below,
        # at and just above p^32 in size, divisible by it or not
        rng = random.Random(59)
        for p in self.PRIMES:
            for k in range(30, 42):
                for u in (1, p - 1, p + 1, rng.randrange(1, p**2), 2 * p**3 + 1):
                    for x in (p**k * u, -(p**k) * u, p**k * u + p**35, p**k * u + p**36):
                        assert _split(x, p, [p]) == naive_split(p, x), (p, k, u)

    def test_medium_run_never_climbs_to_the_square_root(self):
        # 3^100 * u with a 60,000-bit u: the ascent stops at P_7 = 3^128, the
        # first P_i that does not divide; the descent from the top would
        # square the ladder up to P_k with P_k^2 > |x|, some 30,000 bits
        u = random.Random(61).getrandbits(60000) | 1 << 59999
        u += (1 - u) % 3
        for k, top in ((100, 7), (2000, 11)):
            x = 3**k * u
            ladder = [3]
            assert _split(x, 3, ladder) == (k, 1)
            assert len(ladder) == top + 1 and ladder[-1] == 3 ** (2**top)
            assert ladder[-1].bit_length() * 16 <= x.bit_length()

    def test_pure_power_squares_the_ladder_to_p64_only(self):
        # stage 1 needs P_6 = p^64 to read m, and nothing above it
        for p, k in ((3, 12000), (7, 19135)):
            ladder = [p]
            assert _split(p**k, p, ladder) == (k, 1)
            assert len(ladder) == 7


class TestSplitAgainstSympy:
    """_split and the JSON polygon's vertices at huge_heights sizes (p in
    {3, 7}, exponents 3,000-20,000, sums of powers), against
    sympy.multiplicity; the naive loop is too slow here."""

    def coefficients(self, rng, p):
        def power_sum():
            exps = rng.sample(range(3000, 20001), rng.randrange(1, 4))
            return sum(rng.randrange(1, 2 * p) * p**e for e in exps)
        return [power_sum() for _ in range(3)]

    def test_split_matches_sympy_multiplicity(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(67)
        for p in (3, 7):
            ladder = [p]
            for _ in range(40):
                for c in self.coefficients(rng, p):
                    x = rng.choice((-1, 1)) * c
                    v = sympy.multiplicity(p, abs(x))
                    assert _split(x, p, ladder) == (v, x // p**v % p)
                    assert _split(x, p, [p]) == (v, x // p**v % p)

    def test_json_side_vertices_match_sympy_multiplicity(self):
        # f = x^3 + a x^2 + b x + c with p | a, b, c: phi = x in both modes,
        # so the points are (i, nu_p(coefficient of x^i))
        sympy = pytest.importorskip("sympy")
        rng = random.Random(71)
        for p in (3, 7):
            for _ in range(6):
                coeffs = self.coefficients(rng, p)[::-1] + [1]
                points = [(i, sympy.multiplicity(p, c)) for i, c in enumerate(coeffs[:3])]
                hull = hull_oracle(points + [(3, 0)])
                expected = [[list(a), list(b)] for a, b in zip(hull.vertices, hull.vertices[1:])]
                for phi in (None, IntPoly([0, 1])):
                    doc = report_to_dict(analyze(IntPoly(coeffs), p, phi=phi))
                    [pr] = doc["phi_reports"]
                    assert [[s["start"], s["end"]] for s in pr["sides"]] == expected


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

    # Strong pseudoprimes to fixed bases.  SW12 = 399165290221 * 798330580441
    # passes the 12 prime bases up to 37 (Sorenson & Webster 2017), so base
    # 41 is what refuses it.  ARNAULT is a 452-bit product of three primes
    # that passes every prime base below 100 (Arnault 1995).
    SW12 = 318665857834031151167461
    P1 = 90496850231252875860102296863636773599118283
    ARNAULT = P1 * (101 * (P1 - 1) + 1) * (113 * (P1 - 1) + 1)
    M89, M107, M127 = 2**89 - 1, 2**107 - 1, 2**127 - 1

    def test_base_41_refuses_the_twelve_base_pseudoprime(self):
        n = self.SW12
        assert n == 399165290221 * 798330580441 < _MR_DETERMINISTIC_BOUND
        assert all(_miller_rabin(n, b) for b in _MR_BASES if b < 41)
        assert not _miller_rabin(n, 41)
        assert not is_prime(n)
        # the 13 bases are the 13 primes up to 41, and the bound is theirs
        assert _MR_BASES == tuple(q for q in range(42) if is_prime(q))

    def test_the_twelve_base_pseudoprime_is_refused_as_p(self):
        # f = (x^2+4x+2)(x^3-4x^2-4x+5) was certified IRREDUCIBLE at this "prime"
        f = IntPoly([10, 12, -19, -18, 0, 1])
        with pytest.raises(ValueError, match=f"^{self.SW12} is not prime$"):
            analyze(f, self.SW12)

    def test_arnault_pseudoprime_is_refused(self):
        n = self.ARNAULT
        assert n.bit_length() == 452 and n > _MR_DETERMINISTIC_BOUND
        assert all(_miller_rabin(n, q) for q in range(2, 100) if is_prime(q))
        with pytest.raises(ValueError, match="is too large"):
            is_prime(n)
        # x^4+12x-5 = (x^2-2x+5)(x^2+2x-1) was certified IRREDUCIBLE at n
        with pytest.raises(ValueError, match=f"^{n} is too large"):
            analyze(IntPoly([-5, 12, 0, 0, 1]), n)

    def test_is_prime_above_the_deterministic_bound(self):
        # at and above the bound is_prime proves nothing and refuses
        bound = _MR_DETERMINISTIC_BOUND
        assert 2**82 > bound
        for n in (bound, bound + 1, self.M89, self.M107, self.M127,
                  self.M89 * self.M107, 2**83 - 1, 2**83):
            with pytest.raises(ValueError, match=(
                    f"^{n} is too large: primality is proven only below {bound}$")):
                is_prime(n)
        # below it the test decides
        assert not is_prime(bound - 1)
        assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)

    def test_is_prime_agrees_with_sympy_above_the_bound(self):
        # below the bound is_prime matches sympy; at and above it refuses
        # every number, prime or not
        sympy = pytest.importorskip("sympy")
        rng = random.Random(89)
        below = [rng.randrange(2**64 + 1, _MR_DETERMINISTIC_BOUND, 2) for _ in range(200)]
        primes = [n for n in below if sympy.isprime(n)]
        assert [n for n in below if is_prime(n)] == primes
        assert primes  # both outcomes are exercised
        above = [rng.randrange(_MR_DETERMINISTIC_BOUND, 2**100) for _ in range(50)]
        assert any(sympy.isprime(n) for n in above)
        for n in above:
            with pytest.raises(ValueError, match="is too large"):
                is_prime(n)

    def test_full_mode_at_a_prime_above_the_bound(self):
        # M89 is prime, but no test here proves it, so the input is refused
        f, p = IntPoly([5, 3, 0, 0, 1]), self.M89
        for phi in (None, IntPoly([0, 1])):
            with pytest.raises(ValueError, match=f"^{p} is too large"):
                analyze(f, p, phi=phi)
