"""Lower convex envelopes of valuation points: sides, slopes, and degrees.

All geometry is exact: points are lattice points (index, valuation), hull
comparisons are integer cross products, and slopes are `Fraction`s.  Points
at INFINITY never become vertices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .valuation import INFINITY


class Side(NamedTuple):
    """One edge of a Newton polygon.

    For a side of slope -h/e in lowest terms (h >= 0, e >= 1), the degree is
    d = length/e; the endpoints are lattice points so e always divides the
    length.  Ascending sides store the same data with a positive slope and h
    equal to the absolute numerator.
    """

    start: tuple[int, int]
    end: tuple[int, int]
    length: int
    slope: Fraction
    h: int
    e: int
    degree: int

    @classmethod
    def from_endpoints(cls, start, end) -> "Side":
        start = (int(start[0]), int(start[1]))
        end = (int(end[0]), int(end[1]))
        length = end[0] - start[0]
        if length <= 0:
            raise ValueError("side endpoints must have increasing indices")
        slope = Fraction(end[1] - start[1], length)
        e = slope.denominator
        h = abs(slope.numerator)
        if length % e != 0:
            raise ValueError("side endpoints are not lattice points")
        return cls(start, end, length, slope, h, e, length // e)

    def height_at(self, index: int) -> Fraction:
        """Exact height of the supporting line at the given abscissa."""
        return self.start[1] + self.slope * (index - self.start[0])


class NewtonPolygon(NamedTuple):
    """Lower convex envelope: hull vertices and merged sides.

    Sides have strictly increasing slopes (collinear segments are merged),
    so two polygons are equal when their vertex chains coincide.
    """

    vertices: tuple
    sides: tuple

    def principal_part(self) -> "NewtonPolygon":
        """The sub-polygon of sides with strictly negative slope."""
        kept = [s for s in self.sides if s.slope < 0]
        return NewtonPolygon(self.vertices[: len(kept) + 1], tuple(kept))


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

