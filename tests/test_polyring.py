import random

import pytest

from oracles import is_power_of_phibar, recompose_expansion
from phinewton.polygon import build_polygon
from phinewton.polyring import IntPoly, phi_expand
from phinewton.valuation import INFINITY


def random_poly(rng, max_degree, bound=50, monic=False):
    deg = rng.randint(0 if not monic else 1, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = 1
    elif all(c == 0 for c in coeffs):
        coeffs[-1] = 1
    return IntPoly(coeffs)


class TestIntPoly:
    def test_zero_polynomial(self):
        z = IntPoly()
        assert z.is_zero
        assert z.degree == -1
        assert z == IntPoly([0, 0])
        assert not z

    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_arithmetic(self):
        x = IntPoly.x()
        f = x**2 + 2 * x + 3
        assert f.coeffs == (3, 2, 1)
        assert (f - f).is_zero
        assert (x + 1) * (x - 1) == x**2 - 1
        assert (x + 1) ** 2 == x**2 + 2 * x + 1

    # x^0, 0^0, (0)^5, (2x)^3, (-2)^3 and (x^3)^7; and past the monomial
    # shortcut, (1 - 2x + 3x^3)^0 and (1 - 2x + 3x^3)^5
    @pytest.mark.parametrize("base, n", [
        ((0, 1), 0), ((), 0), ((), 5), ((0, 2), 3), ((-2,), 3), ((0, 0, 0, 1), 7),
        ((1, -2, 0, 3), 0), ((1, -2, 0, 3), 5),
    ])
    def test_monomial_power_matches_repeated_product(self, base, n):
        expected = IntPoly.one()
        for _ in range(n):
            expected = expected * IntPoly(base)
        assert IntPoly(base) ** n == expected

    @pytest.mark.parametrize("base", [(0, 1), (1, -2, 0, 3), ()])
    def test_negative_exponent_refused(self, base):
        with pytest.raises(ValueError, match="negative exponent"):
            IntPoly(base) ** -1

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            IntPoly([1.5])

    def test_hash_eq(self):
        assert hash(IntPoly([1, 2])) == hash(IntPoly((1, 2)))
        assert IntPoly([5]) == 5

    def test_ne_agrees_with_eq(self):
        assert not IntPoly([3]) != 3
        assert IntPoly([3]) != IntPoly([4])
        assert IntPoly([3]) != 4

    def test_getitem_is_a_coefficient(self):
        f = IntPoly([7, 8])
        assert (f[0], f[1], f[2], f[-1]) == (7, 8, 0, 0)


class TestDivmod:
    def test_phi_equals_x_reads_off_coefficients(self):
        q, r = divmod(IntPoly([3, 2, 1]), IntPoly.x())
        assert q == IntPoly([2, 1])
        assert r == IntPoly([3])

    def test_exact_square(self):
        phi = IntPoly([1, 1, 1])
        q, r = divmod(phi * phi, phi)
        assert q == phi
        assert r.is_zero

    def test_x3_plus_5_by_x_plus_1(self):
        q, r = divmod(IntPoly([5, 0, 0, 1]), IntPoly([1, 1]))
        assert q == IntPoly([1, -1, 1])
        assert r == IntPoly([4])
        assert q * IntPoly([1, 1]) + r == IntPoly([5, 0, 0, 1])

    def test_non_monic_divisor_rejected(self):
        with pytest.raises(ValueError):
            divmod(IntPoly([1, 1]), IntPoly([1, 2]))
        with pytest.raises(ValueError):
            divmod(IntPoly([1, 1]), IntPoly())

    def test_multiply_back_random(self):
        rng = random.Random(5)
        for _ in range(300):
            den = random_poly(rng, 6, monic=True)
            num = random_poly(rng, 12)
            q, r = divmod(num, den)
            assert q * den + r == num
            assert r.degree < den.degree


class TestPhiExpand:
    def test_degree12_expansion(self):
        phi = IntPoly([1, 1, 1])
        x = IntPoly.x()
        f = (
            phi**6
            + 24 * x * phi**3
            + 9 * IntPoly([32, 16]) * phi
            + 3 * IntPoly([16, 16])
        )
        exp = phi_expand(f, phi, 2)
        assert exp.coeffs == (
            IntPoly([48, 48]),
            IntPoly([288, 144]),
            IntPoly(),
            IntPoly([0, 24]),
            IntPoly(),
            IntPoly(),
            IntPoly([1]),
        )
        assert exp.valuations == (4, 4, INFINITY, 3, INFINITY, INFINITY, 0)
        assert recompose_expansion(exp) == f

    def test_exact_power(self):
        phi = IntPoly([3, 1, 1])
        exp = phi_expand(phi**2, phi, 2)
        assert exp.coeffs == (IntPoly(), IntPoly(), IntPoly.one())
        assert exp.valuations == (INFINITY, INFINITY, 0)

    def test_x4_plus_4(self):
        # x^4 + 4 = phi^2 - 4*phi + 8 for phi = x^2 + 2
        phi = IntPoly([2, 0, 1])
        f = IntPoly([4, 0, 0, 0, 1])
        exp = phi_expand(f, phi, 2)
        assert exp.coeffs == (IntPoly([8]), IntPoly([-4]), IntPoly([1]))
        assert exp.valuations == (3, 2, 0)
        assert recompose_expansion(exp) == f

    def test_recomposition_random(self):
        rng = random.Random(17)
        for _ in range(200):
            phi = random_poly(rng, 4, bound=8, monic=True)
            if phi.degree < 1:
                continue
            f = random_poly(rng, 40, bound=1000, monic=True)
            exp = phi_expand(f, phi, 2)
            assert recompose_expansion(exp) == f
            assert all(a.degree < phi.degree for a in exp.coeffs)
            assert exp.length == f.degree // phi.degree == len(exp.coeffs) - 1
            assert not exp.is_truncated

    def test_uniqueness(self):
        # any coefficient list with deg a_i < deg phi recomposes and re-expands
        # to itself
        rng = random.Random(23)
        phi = IntPoly([2, 3, 1])
        for _ in range(100):
            coeffs = [
                IntPoly([rng.randint(-9, 9), rng.randint(-9, 9)])
                for _ in range(rng.randint(1, 6))
            ]
            coeffs.append(IntPoly.one())
            f = IntPoly.zero()
            for i, a in enumerate(coeffs):
                f = f + a * phi**i
            exp = phi_expand(f, phi, 2)
            assert list(exp.coeffs) == coeffs

    def test_truncated_expansion(self):
        # f = x^5 + x^2 + 2x + 4: f mod 2 = x^2 (x^3 + 1), so w = 2 for phi = x
        f, phi = IntPoly([4, 2, 1, 0, 0, 1]), IntPoly.x()
        full = phi_expand(f, phi, 2)
        exp = phi_expand(f, phi, 2, upto=2)
        assert exp.coeffs == full.coeffs[:3]
        assert exp.valuations == (2, 1, 0)
        assert exp.splits == full.splits[:3]
        assert exp.is_truncated and exp.length == full.length == 5
        assert exp.points() == [(0, 2), (1, 1), (2, 0), (5, 0)]
        assert build_polygon(exp.points()) == build_polygon(full.points())
        for upto in (5, 9):
            assert phi_expand(f, phi, 2, upto=upto) == full
        with pytest.raises(ValueError, match="below the multiplicity"):
            phi_expand(f, phi, 2, upto=1)

    def test_truncated_length_is_the_full_length(self):
        rng = random.Random(29)
        for _ in range(100):
            phi = random_poly(rng, 3, bound=8, monic=True)
            if phi.degree < 1:
                continue
            f = random_poly(rng, 30, bound=1000, monic=True)
            full = phi_expand(f, phi, 3)
            w = full.valuations.index(0)
            exp = phi_expand(f, phi, 3, upto=w)
            assert exp.length == full.length == f.degree // phi.degree
            assert exp.coeffs == full.coeffs[:w + 1]
            assert exp.points()[-1] == (full.length, 0)
            assert exp.is_truncated == (w < full.length)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            phi_expand(IntPoly(), IntPoly.x(), 2)
        with pytest.raises(ValueError):
            phi_expand(IntPoly.one(), IntPoly([2, 2]), 2)
        with pytest.raises(ValueError):
            phi_expand(IntPoly.one(), IntPoly([5]), 2)


class TestIsPowerOfPhibar:
    def test_difference_divisible(self):
        assert is_power_of_phibar(IntPoly([3, 1, 1]), IntPoly([1, 1, 1]), 2)

    def test_nonzero_constant(self):
        assert not is_power_of_phibar(IntPoly([1, 0, 1]), IntPoly.x(), 3)

    def test_degree12_case(self):
        phi = IntPoly([1, 1, 1])
        x = IntPoly.x()
        f = (
            phi**6
            + 24 * x * phi**3
            + 9 * IntPoly([32, 16]) * phi
            + 3 * IntPoly([16, 16])
        )
        assert is_power_of_phibar(f, phi, 2)

    def test_degree_mismatch(self):
        assert not is_power_of_phibar(IntPoly([1, 0, 0, 1]), IntPoly([1, 1, 1]), 2)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_power_of_phibar(IntPoly([1, 2]), IntPoly.x(), 2)
