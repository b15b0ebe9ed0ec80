import random
import sys
from pathlib import Path

import pytest

from oracles import (
    divided_residual_coefficient,
    divided_residual_polynomial,
    family_inputs,
    gen,
    gen_power_family,
    height_at,
    residual_coefficient,
    side_at_slope,
    slope,
)
from phinewton.polygon import Side, build_polygon
from phinewton.polyring import IntPoly, phi_expand
from phinewton.residual import residual_polynomial
from phinewton.residue_field import ExtField, FqPoly, fp_factorize
from phinewton.valuation import INFINITY


def expansion_polygon(f, phi, p):
    exp = phi_expand(f, phi, p)
    return exp, build_polygon(exp.points())


class TestResidualCoefficient:
    def test_point_strictly_above_is_zero(self):
        phi = IntPoly([1, 1, 1])
        x = IntPoly.x()
        f = (
            phi**6
            + 24 * x * phi**3
            + 9 * IntPoly([32, 16]) * phi
            + 3 * IntPoly([16, 16])
        )
        exp, np_ = expansion_polygon(f, phi, 2)
        side = np_.sides[0]
        phibar = FqPoly(2, [1, 1, 1])
        # (3, 3) sits strictly above the line, whose height at 3 is 2
        assert height_at(side, 3) == 2
        assert residual_coefficient(exp, side, 3).is_zero
        # vanished expansion coefficient also gives zero
        assert residual_coefficient(exp, side, 2).is_zero
        # start vertex: class of (48x+48)/2^4 = 3x+3 = x+1 mod (2, phibar)
        field = ExtField(phibar)
        assert residual_coefficient(exp, side, 0) == gen(field) + field.one

    def test_index_out_of_range(self):
        exp, np_ = expansion_polygon(IntPoly([2, 2, 1]), IntPoly.x(), 2)
        with pytest.raises(ValueError):
            residual_coefficient(exp, np_.sides[0], 3)
        with pytest.raises(ValueError):
            residual_coefficient(exp, np_.sides[0], -1)

    def test_inexact_division_rejected(self):
        # an expansion claiming nu(a_0) = 2 for a_0 = 2: the side from (0, 2)
        # to (2, 0) passes through that point, and 2 / 2^2 is not exact
        exp = phi_expand(IntPoly([2, 2, 1]), IntPoly.x(), 2)
        wrong = exp._replace(valuations=(2,) + exp.valuations[1:])
        side = build_polygon(wrong.points()).sides[0]
        assert side.start == (0, 2)
        with pytest.raises(ValueError, match="not divisible"):
            residual_coefficient(wrong, side, 0)


class TestResidualPolynomial:
    def test_eisenstein_linear(self):
        # x^2 + 2x + 2: side (0,1)->(2,0), e=2, d=1, residual y + 1
        exp, np_ = expansion_polygon(IntPoly([2, 2, 1]), IntPoly.x(), 2)
        field = ExtField(FqPoly.x(2))
        rp = residual_polynomial(exp, np_.sides[0], field)
        assert rp.degree == 1
        assert rp.coeffs[::-1] == (field.one, field.one)

    def test_height4_length6_zero_middle_coefficient(self):
        # the quadratic residual of the single (0,4)->(6,0) side has a zero
        # y-coefficient because (3,3) lies strictly above the side
        x = IntPoly.x()
        for phi in (IntPoly.x(), IntPoly([1, 1])):
            f = (
                phi**6
                + 24 * x * phi**4
                + 24 * phi**3
                + 15 * IntPoly([32, 16]) * phi
                + IntPoly([48])
            )
            exp, np_ = expansion_polygon(f, phi, 2)
            assert len(np_.sides) == 1
            phibar = phi.reduce_mod(2)
            field = ExtField(phibar)
            rp = residual_polynomial(exp, np_.sides[0], field)
            assert rp.coeffs[::-1] == (field.one, field.zero, field.one)
            assert rp == FqPoly(field, [1, 0, 1])  # y^2 + 1
            assert rp != FqPoly(field, [1, 1, 1])  # not y^2+y+1
            assert str(rp) == "y^2 + 1"

    def test_degree12_extension_residual(self):
        phi = IntPoly([1, 1, 1])
        x = IntPoly.x()
        f = (
            phi**6
            + 24 * x * phi**3
            + 9 * IntPoly([32, 16]) * phi
            + 3 * IntPoly([16, 16])
        )
        exp, np_ = expansion_polygon(f, phi, 2)
        phibar = FqPoly(2, [1, 1, 1])
        field = ExtField(phibar)
        rp = residual_polynomial(exp, np_.sides[0], field)
        b = gen(field)
        assert rp.coeffs[::-1] == (b + field.one, field.zero, field.one)
        assert str(rp) == "(x + 1)*y^2 + 1"

    def test_slope_zero_side_is_reduction_mod_p(self):
        # unit coefficients, phi = x: the slope-0 residual coefficients match
        # the plain mod-p reduction of f coefficient by coefficient
        rng = random.Random(61)
        for p in (2, 3, 5):
            for _ in range(30):
                n = rng.randint(2, 9)
                coeffs = [rng.randrange(1, p) for _ in range(n)] + [1]
                f = IntPoly(coeffs)
                exp, np_ = expansion_polygon(f, IntPoly.x(), p)
                assert len(np_.sides) == 1 and slope(np_.sides[0]) == 0
                rp = residual_polynomial(exp, np_.sides[0], ExtField(FqPoly.x(p)))
                got = [t.coeffs[0] if t.coeffs else 0 for t in rp.coeffs[::-1]]
                assert got == [c % p for c in coeffs]

    def test_positive_slope_rejected(self):
        exp, _ = expansion_polygon(IntPoly([2, 2, 1]), IntPoly.x(), 2)
        rising = Side.from_endpoints((0, 0), (2, 2))
        with pytest.raises(ValueError):
            residual_polynomial(exp, rising, ExtField(FqPoly.x(2)))

    def test_endpoints_nonzero_random(self):
        rng = random.Random(67)
        for p in (2, 3):
            phi = IntPoly([1, 1])
            field = ExtField(phi.reduce_mod(p))
            for f in gen_power_family(p, phi, 40, seed=rng.randrange(2**30)):
                exp, np_ = expansion_polygon(f, phi, p)
                for side in np_.principal_part().sides:
                    rp = residual_polynomial(exp, side, field)
                    assert not rp.coeffs[-1].is_zero  # t_0
                    assert not rp.coeffs[0].is_zero  # t_d
                    assert rp.degree == side.degree


class TestResidualMultiplicativity:
    def test_product_residuals_match_up_to_scalar(self):
        rng = random.Random(71)
        for p in (2, 3, 5):
            for phi in (IntPoly.x(), IntPoly([1, 1, 1])):
                if p == 3 and phi.degree == 2:
                    continue
                phibar = phi.reduce_mod(p)
                gs = gen_power_family(p, phi, 20, seed=rng.randrange(2**30))
                for g, h in zip(gs[::2], gs[1::2]):
                    self._check_pair(p, phi, phibar, g, h)

    @staticmethod
    def _check_pair(p, phi, phibar, g, h):
        field = ExtField(phibar)
        exp_g = phi_expand(g, phi, p)
        exp_h = phi_expand(h, phi, p)
        exp_gh = phi_expand(g * h, phi, p)
        np_g = build_polygon(exp_g.points())
        np_h = build_polygon(exp_h.points())
        np_gh = build_polygon(exp_gh.points())
        for side in np_gh.sides:
            expected = FqPoly(field, [field.one])
            for exp_f, np_f in ((exp_g, np_g), (exp_h, np_h)):
                s = side_at_slope(np_f, slope(side))
                if s is not None:
                    expected = expected * residual_polynomial(exp_f, s, field)
            got = residual_polynomial(exp_gh, side, field)
            assert got.degree == expected.degree
            # equality up to a nonzero scalar of F_phi
            assert got.scale(expected.lead) == expected.scale(got.lead)


def huge_heights_inputs():
    """(f, p) for the seed-1 huge_heights pool of the benchmark, 36 inputs
    whose coefficients are sums of p^k, k 3000-9000, at p = 2, 3 and 7."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for op in workloads.generate("huge_heights", 1, 36):
        yield IntPoly(op.coeffs), int(op.argv[op.argv.index("-p") + 1])


class TestAgainstDivision:
    """The residual read off the expansion's kept units equals the one that
    divides every coefficient by p^u (`oracles.divided_residual_*`)."""

    @staticmethod
    def check(f, p, phi):
        exp = phi_expand(f, phi, p)
        if sum(u is not INFINITY for u in exp.valuations) < 2:
            return 0  # f = phi^n: no polygon side
        polygon = build_polygon(exp.points())
        field = ExtField(phi.reduce_mod(p))
        sides = [side for side in polygon.sides if slope(side) <= 0]
        for side in sides:
            for i in range(side.length + 1):
                assert (residual_coefficient(exp, side, i)
                        == divided_residual_coefficient(exp, side, i, field)), (f, p, phi, i)
        for side in polygon.principal_part().sides:
            assert (residual_polynomial(exp, side, field)
                    == divided_residual_polynomial(exp, side))
        return len(sides)

    def phis(self, f, p, phi=None):
        lifts = [IntPoly(g.coeffs) for g, _ in fp_factorize(f.reduce_mod(p)).factors]
        return ([phi] if phi is not None else []) + lifts

    def test_generator_families(self):
        sides = 0
        for f, p, phi in family_inputs():
            for psi in self.phis(f, p, phi):
                sides += self.check(f, p, psi)
        assert sides > 1000

    def test_huge_heights_pool(self):
        sides = 0
        for f, p in huge_heights_inputs():
            for psi in self.phis(f, p, IntPoly.x()):
                sides += self.check(f, p, psi)
        assert sides >= 36
