import random
from fractions import Fraction

import pytest

from oracles import (
    gen_power_family,
    height_at,
    hull_oracle,
    minkowski_sum,
    slope,
    validate_polygon,
)
from phinewton.polygon import NewtonPolygon, Side, build_polygon
from phinewton.polyring import IntPoly, phi_expand
from phinewton.valuation import INFINITY


def random_points(rng, max_n=30, max_height=50):
    n = rng.randint(2, max_n)
    indices = sorted(rng.sample(range(max_n + 1), n))
    pts = []
    for i in indices:
        if rng.random() < 0.15:
            pts.append((i, INFINITY))
        else:
            pts.append((i, rng.randint(0, max_height)))
    # ensure at least two finite points
    finite = [q for q in pts if q[1] is not INFINITY]
    while len(finite) < 2:
        i = rng.choice(range(len(pts)))
        pts[i] = (pts[i][0], rng.randint(0, max_height))
        finite = [q for q in pts if q[1] is not INFINITY]
    return pts


class TestBuildPolygon:
    def test_single_side_degree12_points(self):
        np_ = build_polygon([(0, 4), (1, 4), (3, 3), (6, 0)])
        assert len(np_.sides) == 1
        s = np_.sides[0]
        assert (s.start, s.end) == ((0, 4), (6, 0))
        assert slope(s) == Fraction(-2, 3)
        assert (s.length, s.start[1] - s.end[1], s.degree, s.h, s.e) == (6, 4, 2, 2, 3)

    def test_two_points(self):
        np_ = build_polygon([(0, 1), (2, 0)])
        s = np_.sides[0]
        assert slope(s) == Fraction(-1, 2)
        assert (s.e, s.h, s.degree) == (2, 1, 1)

    def test_two_sides(self):
        np_ = build_polygon([(0, 3), (1, 1), (3, 0)])
        assert [slope(s) for s in np_.sides] == [Fraction(-2), Fraction(-1, 2)]
        assert np_.vertices == ((0, 3), (1, 1), (3, 0))

    def test_collinear_points_merge(self):
        np_ = build_polygon([(0, 4), (3, 2), (6, 0)])
        assert len(np_.sides) == 1
        assert np_.sides[0].degree == 2

    def test_infinity_points_never_vertices(self):
        np_ = build_polygon([(0, 2), (1, INFINITY), (2, 0)])
        assert np_.vertices == ((0, 2), (2, 0))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_polygon([(0, 1)])
        with pytest.raises(ValueError):
            build_polygon([(0, INFINITY), (1, 2)])
        with pytest.raises(ValueError):
            build_polygon([(0, 1), (0, 2), (1, 0)])

    def test_lattice_property_random(self):
        rng = random.Random(41)
        for _ in range(200):
            np_ = build_polygon(random_points(rng))
            for s in np_.sides:
                assert s.length % s.e == 0
                assert s.degree >= 1
                assert s.degree * s.e == s.length
                assert abs(s.end[1] - s.start[1]) == s.degree * s.h

    def test_equals_hull_oracle_random(self):
        rng = random.Random(43)
        for _ in range(300):
            pts = random_points(rng)
            mine = build_polygon(pts)
            ref = hull_oracle(pts)
            assert mine == ref
            validate_polygon(mine, pts)


class TestPrincipalPart:
    def test_all_negative_is_identity(self):
        np_ = build_polygon([(0, 4), (1, 4), (3, 3), (6, 0)])
        assert np_.principal_part() == np_

    def test_slope_zero_dropped(self):
        np_ = build_polygon([(0, 0), (3, 0)])
        pp = np_.principal_part()
        assert pp.sides == ()
        assert pp.vertices == ((0, 0),)

    def test_mixed_polygon_negative_prefix(self):
        pts = [(0, 3), (1, 1), (3, 0), (5, 0), (6, 2)]
        pp = build_polygon(pts).principal_part()
        assert [slope(s) for s in pp.sides] == [Fraction(-2), Fraction(-1, 2)]
        assert pp.vertices[-1] == (3, 0)


class TestMinkowskiSum:
    def test_two_single_sides_order_by_slope(self):
        a = build_polygon([(0, 3), (5, 0)])
        b = build_polygon([(0, 3), (4, 0)])
        total = minkowski_sum(a, b)
        assert [slope(s) for s in total.sides] == [Fraction(-3, 4), Fraction(-3, 5)]
        assert total.vertices == ((0, 6), (4, 3), (9, 0))

    def test_identity_element(self):
        a = build_polygon([(0, 3), (1, 1), (3, 0)])
        e = NewtonPolygon(((0, 0),), ())
        assert minkowski_sum(a, e) == a
        assert minkowski_sum(e, a) == a

    def test_same_slope_sides_merge(self):
        a = build_polygon([(0, 1), (2, 0)])
        b = build_polygon([(0, 2), (4, 0)])
        total = minkowski_sum(a, b)
        assert len(total.sides) == 1
        assert total.sides[0].length == 6
        assert total.sides[0].start[1] - total.sides[0].end[1] == 3

    def test_product_rule_random(self):
        rng = random.Random(47)
        for p in (2, 3, 5):
            for phi in (IntPoly.x(), IntPoly([1, 1]), IntPoly([1, 1, 1])):
                if p != 2 and phi.degree == 2:
                    continue
                gs = gen_power_family(p, phi, 20, seed=rng.randrange(2**30))
                for g, h in zip(gs[::2], gs[1::2]):
                    pg = build_polygon(phi_expand(g, phi, p).points())
                    ph = build_polygon(phi_expand(h, phi, p).points())
                    pgh = build_polygon(phi_expand(g * h, phi, p).points())
                    assert pgh == minkowski_sum(pg, ph)


class TestPolygonEquality:
    def test_eq_ignores_all_points(self):
        a = build_polygon([(0, 2), (2, 0)])
        b = build_polygon([(0, 2), (1, 5), (2, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_neq(self):
        a = build_polygon([(0, 2), (2, 0)])
        b = build_polygon([(0, 3), (2, 0)])
        assert a != b


class TestSide:
    def test_from_endpoints_validates(self):
        with pytest.raises(ValueError):
            Side.from_endpoints((2, 0), (0, 1))
        s = Side.from_endpoints((1, 5), (4, 2))
        assert slope(s) == Fraction(-1)
        assert (s.h, s.e, s.degree) == (1, 1, 3)

    def test_height_at(self):
        s = Side.from_endpoints((0, 4), (6, 0))
        assert height_at(s, 3) == Fraction(2)
        assert height_at(s, 1) == Fraction(10, 3)
        # the package's integer test: length times the height over the line
        assert (s.above(3, 2), s.above(1, 4), s.above(1, 3)) == (0, 4, -2)
