import random

import pytest

from oracles import (
    check_single_side_hypothesis,
    enumerate_monic_fp,
    exhaustive_ext_factor_degrees,
    exhaustive_fp_factor,
    gen,
    gen_eisenstein_family,
    gen_factor_witness,
    gauss_valuation,
    gen_power_family,
    hull_oracle,
    is_power_of_phibar,
    recompose_factorization,
    validate_polygon,
)
from phinewton.polygon import build_polygon
from phinewton.polyring import IntPoly, phi_expand
from phinewton.residue_field import ExtField, FqPoly
from phinewton.valuation import INFINITY, valuation


class TestHullOracle:
    def test_degree12_point_set(self):
        np_ = hull_oracle([(0, 4), (1, 4), (3, 3), (6, 0)])
        assert len(np_.sides) == 1
        assert np_.sides[0].length == 6

    def test_two_points(self):
        np_ = hull_oracle([(0, 1), (2, 0)])
        assert len(np_.sides) == 1

    def test_collinear_merged(self):
        np_ = hull_oracle([(0, 4), (3, 2), (6, 0)])
        assert len(np_.sides) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            hull_oracle([(0, 1)])

    def test_validator_rejects_wrong_polygons(self):
        pts = [(0, 3), (1, 1), (3, 0)]
        good = build_polygon(pts)
        validate_polygon(good, pts)
        # a polygon missing the middle vertex is not the lower envelope
        bad = build_polygon([(0, 3), (3, 0)])
        with pytest.raises(ValueError):
            validate_polygon(bad, pts)


class TestExhaustiveFpFactor:
    def test_irreducible(self):
        fact = exhaustive_fp_factor(FqPoly(2, [1, 1, 1]))
        assert fact.factors == ((FqPoly(2, [1, 1, 1]), 1),)

    def test_fermat(self):
        # x^3 - x = x(x-1)(x-2) over F_3
        fact = exhaustive_fp_factor(FqPoly(3, [0, -1, 0, 1]))
        assert [g.coeffs for g, _ in fact.factors] == [(0, 1), (1, 1), (2, 1)]

    def test_multiplicities(self):
        f = FqPoly(2, [1, 1]) ** 3 * FqPoly.x(2)
        fact = exhaustive_fp_factor(f)
        assert dict((g, k) for g, k in fact.factors) == {
            FqPoly.x(2): 1,
            FqPoly(2, [1, 1]): 3,
        }

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            exhaustive_fp_factor(FqPoly(11, [1, 1]))
        with pytest.raises(ValueError):
            exhaustive_fp_factor(FqPoly.x(2) ** 9)

    def test_recompose(self):
        rng = random.Random(5)
        for p in (2, 5):
            for _ in range(40):
                coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 7))]
                coeffs[-1] = rng.randrange(1, p)
                f = FqPoly(p, coeffs)
                if f.degree < 1:
                    continue
                assert recompose_factorization(exhaustive_fp_factor(f)) == f


class TestExhaustiveExtCount:
    def test_bounds(self):
        field = ExtField(FqPoly(5, [2, 0, 1]))  # F_25 too big
        with pytest.raises(ValueError):
            exhaustive_ext_factor_degrees(FqPoly(field, [1, 1]))

    def test_linear(self):
        field = ExtField(FqPoly(2, [1, 1, 1]))
        assert exhaustive_ext_factor_degrees(FqPoly(field, [gen(field), field.one])) == [1]


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_monic_fp(2, 3))) == 8
        assert len(list(enumerate_monic_fp(5, 2))) == 25
        assert all(f.is_monic for f in enumerate_monic_fp(3, 2))


class TestGenerators:
    def test_eisenstein_family_reproducible(self):
        a = gen_eisenstein_family(2, IntPoly.x(), 10, seed=7)
        b = gen_eisenstein_family(2, IntPoly.x(), 10, seed=7)
        assert a == b
        assert a != gen_eisenstein_family(2, IntPoly.x(), 10, seed=8)

    def test_eisenstein_family_shape(self):
        import math

        phi = IntPoly([1, 1, 1])
        targets = (1, 2, 3)
        fam = gen_eisenstein_family(2, phi, 12, seed=11, gcd_targets=targets)
        seen = set()
        for j, f in enumerate(fam):
            assert f.is_monic
            exp = phi_expand(f, phi, 2)
            hyp = check_single_side_hypothesis(exp)
            assert hyp.holds
            g = math.gcd(exp.valuations[0], exp.length)
            assert g == targets[j % len(targets)]
            seen.add(g)
        assert seen == {1, 2, 3}

    def test_eisenstein_family_requires_irreducible_phibar(self):
        with pytest.raises(ValueError):
            gen_eisenstein_family(2, IntPoly([1, 0, 1]), 3, seed=0)

    def test_power_family_shape(self):
        phi = IntPoly([1, 1])
        for f in gen_power_family(3, phi, 30, seed=13):
            assert f.is_monic
            assert is_power_of_phibar(f, phi, 3)

    def test_factor_witness(self):
        w = gen_factor_witness(2, 3, seed=17)
        assert w.k == 3
        prod = IntPoly.one()
        for f in w.factors:
            prod = prod * f
        assert prod == w.product
        assert len(w.polygons) == 3
        # per-factor residual data exists for every principal side
        for polygon, sides in zip(w.polygons, w.residuals):
            assert len(sides) == len(polygon.principal_part().sides)
        assert gen_factor_witness(2, 3, seed=17).product == w.product


def random_int_poly(rng, max_degree, bound=50):
    coeffs = [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree) + 1)]
    if not any(coeffs):
        coeffs[-1] = 1
    return IntPoly(coeffs)


class TestGaussValuation:
    def test_examples(self):
        assert gauss_valuation(IntPoly([480, 240]), 2) == 4
        assert gauss_valuation(IntPoly(), 2) is INFINITY
        assert gauss_valuation(IntPoly([27, 9]), 3) == 2

    def test_per_coefficient_oracle(self):
        rng = random.Random(29)
        for _ in range(100):
            a = random_int_poly(rng, 8, bound=10**6)
            expected = min(
                valuation(c, 3) for c in a.coeffs if c != 0
            )
            assert gauss_valuation(a, 3) == expected

    def test_gauss_lemma_multiplicativity(self):
        rng = random.Random(31)
        for p in (2, 3):
            for _ in range(200):
                a = random_int_poly(rng, 6)
                b = random_int_poly(rng, 6)
                assert gauss_valuation(a * b, p) == gauss_valuation(
                    a, p
                ) + gauss_valuation(b, p)
