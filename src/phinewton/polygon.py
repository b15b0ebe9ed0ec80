"""Lower convex envelopes of valuation points: sides, slopes, and degrees.

All geometry is exact integer arithmetic: points are lattice points (index,
valuation), hull comparisons are integer cross products, and a side keeps its
slope as the coprime pair h, e.  Points at INFINITY never become vertices.
Side and NewtonPolygon subclass collections.namedtuple with no instance
dict, so they are immutable and compare as tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .valuation import INFINITY


class Side(namedtuple("Side", "start end length h e degree")):
    """One edge of a Newton polygon, from the lattice point `start` to `end`
    (pairs of ints), with the int fields below.

    For a side of slope -h/e in lowest terms (h >= 0, e >= 1), the degree is
    d = gcd(rise, length) = length/e, where rise = end[1] - start[1] = -h*d
    and length = end[0] - start[0].  An ascending side keeps its slope h/e
    as the same pair; its endpoints give the sign.
    """

    __slots__ = ()

    @classmethod
    def from_endpoints(cls, start, end) -> "Side":
        start = (int(start[0]), int(start[1]))
        end = (int(end[0]), int(end[1]))
        length = end[0] - start[0]
        if length <= 0:
            raise ValueError("side endpoints must have increasing indices")
        rise = end[1] - start[1]
        d = math.gcd(rise, length)
        return cls(start, end, length, abs(rise) // d, length // d, d)

    def above(self, index: int, u: int) -> int:
        """length times the height of the point (index, u) over the side's
        line: positive above it, zero on it, negative below."""
        (i0, u0), (_, u1) = self.start, self.end
        return (u - u0) * self.length - (u1 - u0) * (index - i0)


class NewtonPolygon(namedtuple("NewtonPolygon", "vertices sides")):
    """Lower convex envelope: the tuple of hull vertices and the tuple of
    merged sides.

    Sides have strictly increasing slopes (collinear segments are merged),
    so two polygons are equal when their vertex chains coincide.
    """

    __slots__ = ()

    def principal_part(self) -> "NewtonPolygon":
        """The sub-polygon of sides with strictly negative slope."""
        kept = [s for s in self.sides if s.end[1] < s.start[1]]
        return NewtonPolygon(self.vertices[: len(kept) + 1], tuple(kept))


def ratio(num: int, den: int) -> str:
    """num/den (den >= 1) in lowest terms: "-1/3", or "-2" when it is an
    integer."""
    d = math.gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def _normalize_points(points) -> list[tuple]:
    pts = [(int(i), u if u is INFINITY else int(u)) for i, u in points]
    pts.sort(key=lambda q: q[0])
    for a, b in zip(pts, pts[1:]):
        if a[0] == b[0]:
            raise ValueError(f"duplicate abscissa {a[0]}")
    return pts


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def build_polygon(points) -> NewtonPolygon:
    """Lower convex hull of the finite points, via Andrew's monotone chain.

    Consecutive collinear segments are merged into a single side, so slopes
    strictly increase.  Requires at least two finite points.
    """
    pts = _normalize_points(points)
    finite = [q for q in pts if q[1] is not INFINITY]
    if len(finite) < 2:
        raise ValueError("degenerate input: need at least two finite points")
    hull: list[tuple[int, int]] = []
    for pt in finite:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    sides = tuple(
        Side.from_endpoints(hull[k], hull[k + 1]) for k in range(len(hull) - 1)
    )
    return NewtonPolygon(tuple(hull), sides)

