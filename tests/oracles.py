"""Brute-force oracles and structured random generators used by the tests.

Every oracle here reimplements its target with a different algorithm so the
two can only agree by being right: the hull oracle walks supporting lines
instead of running a monotone chain, the factorization oracle trial-divides
against an exhaustive enumeration instead of running Cantor-Zassenhaus, the
polygon validator checks the defining inequalities directly, the
single-side check tests the paper's inequality point by point instead of
reading it off the polygon, the power test raises phibar to the n-th power
over F_p instead of reading the phi-expansion, and Rabin's irreducibility
test checks the package's factor degrees.  pow_mod here is square-and-multiply
on FqPoly's schoolbook `*` and `%`, and plain_gcd is Euclid on its `divmod`,
so Rabin's test and the plain distinct-degree split (one gcd per degree) run
neither the package's packed product kernel, which FqPoly.pow_mod uses over
F_p, nor its gcd, which runs on plain coefficient lists over F_p.  The
residual oracle divides each expansion coefficient by p^u, where the package
reads the valuation and unit that the phi-expansion kept.  gauss_valuation
and residual_coefficient are test-only helpers: the Gauss valuation of an
integer polynomial, and the package's residual coefficient at one point.
slope and height_at give a side's slope and the heights of its line as
`Fraction`s built from its endpoints, the reference for the package's
integer h and e.
The recompose helpers multiply an expansion or a factorization back out.
build_parser is an argparse parser with the CLI's options.  The CLI's own
argv reader reads a smaller grammar, so build_parser is a reference only
where both accept an argv: there they must read the same fields.

The generators build polynomials whose factor structure is known by
construction, which turns the product rule and the factor-count bounds into
checkable statements.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from phinewton.polygon import NewtonPolygon, Side, build_polygon
from phinewton.polyring import IntPoly, PhiExpansion, phi_expand
from phinewton.residual import _coefficient, residual_polynomial
from phinewton.residue_field import ExtField, FactorizationFp, FqPoly, _poly
from phinewton.valuation import INFINITY, ExtInt, valuation


def is_power_of_phibar(f: IntPoly, phi: IntPoly, p: int) -> bool:
    """True iff the reduction of f mod p equals (phi mod p)^(deg f / deg phi)."""
    if not f.is_monic or not phi.is_monic:
        raise ValueError("monic polynomials required")
    m = phi.degree
    if m < 1 or f.degree % m != 0:
        return False
    return f.reduce_mod(p) == phi.reduce_mod(p) ** (f.degree // m)


def gauss_valuation(a: IntPoly, p: int) -> ExtInt:
    """Minimum p-adic valuation over the coefficients; INFINITY for zero."""
    if a.is_zero:
        return INFINITY
    return min(valuation(c, p) for c in a.coeffs if c != 0)


def plain_gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic gcd by Euclid on FqPoly's `divmod`."""
    while b:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def pow_mod(a: FqPoly, n: int, f: FqPoly) -> FqPoly:
    """a^n mod f by square-and-multiply on schoolbook `*` and `%`."""
    result = FqPoly(a.field, [a.field.one]) % f
    base = a % f
    while n:
        if n & 1:
            result = result * base % f
        base = base * base % f
        n >>= 1
    return result


def rabin_is_irreducible(f: FqPoly) -> bool:
    """Rabin's irreducibility test over F_q, q = p^m.

    f of degree n >= 1 is irreducible iff x^(q^n) = x mod f and
    gcd(x^(q^(n/ell)) - x, f) = 1 for every prime ell dividing n.  Each
    x^(q^k) comes from the last by this module's pow_mod, not from a
    Frobenius table.
    Constants are not irreducible.
    """
    n = f.degree
    if n <= 0:
        return False
    f = f.monic()
    x = FqPoly.x(f.field)
    powers = [x % f]
    for _ in range(n):
        powers.append(pow_mod(powers[-1], f.field.q, f))
    if powers[n] != powers[0]:
        return False
    ells = [ell for ell in range(2, n + 1)
            if n % ell == 0 and all(ell % d for d in range(2, ell))]
    return all(plain_gcd(f, powers[n // ell] - x).degree == 0 for ell in ells)


def side_degree_bound(report) -> int:
    """The factor bound from side degrees alone: w + the sum of the side
    degrees over every phi report.  The residual factor counts never exceed
    it, since a residual of degree d has at most d factors."""
    return sum(pr.exact_power_exponent + sum(rec.side.degree for rec in pr.sides)
               for pr in report.phi_reports)


def slope(side: Side) -> Fraction:
    """The side's slope as a `Fraction`, from its endpoints: the reference
    for the integer pair h, e that the package keeps."""
    return Fraction(side.end[1] - side.start[1], side.length)


def height_at(side: Side, index: int) -> Fraction:
    """Exact height of the side's supporting line at the given abscissa."""
    return side.start[1] + slope(side) * (index - side.start[0])


def residual_coefficient(exp: PhiExpansion, side: Side, i: int) -> FqPoly:
    """The package's residual coefficient c_i of the side, an element of
    F_phi, read off the expansion's kept units."""
    if not 0 <= i <= side.length:
        raise ValueError(f"index {i} outside side of length {side.length}")
    return _coefficient(exp, side, i, ExtField(exp.phi.reduce_mod(exp.p)))


def divided_residual_coefficient(exp: PhiExpansion, side: Side, i: int,
                                 field: ExtField) -> FqPoly:
    """The residual coefficient c_i of the side, by dividing a_{s+i} by p^u."""
    s = side.start[0]
    u = exp.valuations[s + i]
    if u is INFINITY:
        return field.zero
    line = height_at(side, s + i)
    if u > line:
        return field.zero
    if u < line:
        raise RuntimeError(
            f"point ({s + i}, {u}) lies below its own polygon side"
        )
    pu = exp.p**u
    quotients = []
    for c in exp.coeffs[s + i].coeffs:
        q, r = divmod(c, pu)
        if r:
            raise ValueError(f"{c} is not divisible by {exp.p}^{u}")
        quotients.append(q)
    return field.elem(quotients)


def divided_residual_polynomial(exp: PhiExpansion, side: Side) -> FqPoly:
    """f_S(y) = t_0 y^d + ... + t_d from the dividing residual coefficients."""
    field = ExtField(exp.phi.reduce_mod(exp.p))
    ts = [divided_residual_coefficient(exp, side, j * side.e, field)
          for j in range(side.degree + 1)]
    return _poly(field, ts[::-1])


def recompose_expansion(exp: PhiExpansion) -> IntPoly:
    """sum a_i * phi^i for the expansion's coefficients a_i."""
    out = IntPoly.zero()
    power = IntPoly.one()
    for a in exp.coeffs:
        out = out + a * power
        power = power * exp.phi
    return out


def recompose_factorization(fact: FactorizationFp) -> FqPoly:
    """unit * prod(factor^multiplicity) over F_p."""
    out = FqPoly(fact.p, [fact.unit])
    for g, k in fact.factors:
        out = out * g**k
    return out


def hull_oracle(points) -> NewtonPolygon:
    """Lower envelope by supporting-line search (gift wrapping).

    From each vertex, scan every remaining point for the minimum outgoing
    slope, breaking ties toward the farthest point so collinear runs merge.
    Same contract as build_polygon, different algorithm.
    """
    pts = [(int(i), u if u is INFINITY else int(u)) for i, u in points]
    pts.sort(key=lambda q: q[0])
    finite = [q for q in pts if q[1] is not INFINITY]
    if len(finite) < 2:
        raise ValueError("degenerate input: need at least two finite points")
    vertices = [finite[0]]
    last = finite[-1]
    while vertices[-1] != last:
        cur = vertices[-1]
        best = None
        for q in finite:
            if q[0] <= cur[0]:
                continue
            if best is None:
                best = q
                continue
            # q below the cur->best ray, or collinear but farther?
            lhs = (q[1] - cur[1]) * (best[0] - cur[0])
            rhs = (best[1] - cur[1]) * (q[0] - cur[0])
            if lhs < rhs or (lhs == rhs and q[0] > best[0]):
                best = q
        vertices.append(best)
    sides = tuple(
        Side.from_endpoints(vertices[k], vertices[k + 1])
        for k in range(len(vertices) - 1)
    )
    return NewtonPolygon(tuple(vertices), sides)


def validate_polygon(np: NewtonPolygon, points) -> bool:
    """Third check: verify the defining properties of a lower envelope.

    Raises ValueError when the polygon is not the lower convex envelope of
    the finite input points with strictly increasing slopes.
    """
    finite = sorted((int(i), int(u)) for i, u in points if u is not INFINITY)
    finite_set = set(finite)
    for v in np.vertices:
        if v not in finite_set:
            raise ValueError(f"vertex {v} is not an input point")
    if np.vertices[0] != finite[0]:
        raise ValueError("polygon does not start at the lowest finite index")
    if np.vertices[-1][0] != finite[-1][0]:
        raise ValueError("polygon does not end at the highest finite index")
    slopes = [slope(s) for s in np.sides]
    for a, b in zip(slopes, slopes[1:]):
        if not a < b:
            raise ValueError("side slopes are not strictly increasing")
    for s in np.sides:
        for i, u in finite:
            if s.start[0] <= i <= s.end[0] and u < height_at(s, i):
                raise ValueError(f"point ({i}, {u}) lies below side {s}")
    for prev, cur in zip(np.sides, np.sides[1:]):
        if prev.end != cur.start:
            raise ValueError("sides are not contiguous")
    return True


def side_at_slope(np: NewtonPolygon, q: Fraction):
    """The side of slope q, or None."""
    for s in np.sides:
        if slope(s) == q:
            return s
    return None


def minkowski_sum(a: NewtonPolygon, b: NewtonPolygon) -> NewtonPolygon:
    """Slope-ordered concatenation of the two polygons' sides.

    Sides with equal slope merge (lengths and drops add); the start vertex is
    the componentwise sum of the operands' start vertices.  This realizes the
    product rule N(f*g) = N(f) + N(g) and serves as its test oracle.
    """
    if not a.vertices or not b.vertices:
        raise ValueError("minkowski_sum requires nonempty polygons")
    segs = [[slope(s), s.length, s.end[1] - s.start[1]] for s in a.sides + b.sides]
    segs.sort(key=lambda t: t[0])
    merged: list[list] = []
    for q, length, dy in segs:
        if merged and merged[-1][0] == q:
            merged[-1][1] += length
            merged[-1][2] += dy
        else:
            merged.append([q, length, dy])
    i = a.vertices[0][0] + b.vertices[0][0]
    u = a.vertices[0][1] + b.vertices[0][1]
    verts = [(i, u)]
    for _, length, dy in merged:
        i += length
        u += dy
        verts.append((i, u))
    sides = tuple(
        Side.from_endpoints(verts[k], verts[k + 1]) for k in range(len(verts) - 1)
    )
    return NewtonPolygon(tuple(verts), sides)


@dataclass(frozen=True)
class SingleSideHypothesis:
    """Result of the single-side check n*u_i >= (n-i)*u_0 > 0.

    `violations` lists (index, required height, actual valuation) for every
    finite valuation falling strictly below the line; infinite valuations can
    never violate the inequality.  `applicable` is False when f mod p is not
    a power of phi mod p, in which case nothing else is meaningful.
    """

    applicable: bool
    holds: bool
    lam: Fraction | None
    violations: tuple
    a0_is_zero: bool = False


def check_single_side_hypothesis(exp: PhiExpansion) -> SingleSideHypothesis:
    """Reference for the single-side hypothesis: test the paper's inequality
    point by point, without building a polygon.

    Every point (i, u_i) must lie on or above the single candidate side from
    (0, u_0) to (n, 0), with u_0 > 0.  The package reads the same fact off
    N_phi(f) (`PhiReport.is_single_side`).
    """
    f, phi = exp.f, exp.phi
    if not f.is_monic or not is_power_of_phibar(f, phi, exp.p):
        return SingleSideHypothesis(False, False, None, ())
    n = exp.length
    u0 = exp.valuations[0]
    if u0 is INFINITY:
        return SingleSideHypothesis(True, False, None, (), a0_is_zero=True)
    lam = Fraction(u0, n)
    violations = []
    if u0 <= 0:
        violations.append((0, Fraction(1), u0))
    for i in range(1, n):
        u = exp.valuations[i]
        if u is INFINITY:
            continue
        if n * u < (n - i) * u0:
            violations.append((i, Fraction((n - i) * u0, n), u))
    return SingleSideHypothesis(True, not violations, lam, tuple(violations))


def gen(field: ExtField) -> FqPoly:
    """The class of x in F_p[x]/(phibar), a root of the modulus."""
    return field.elem(FqPoly.x(field.p))


def enumerate_monic_fp(p: int, degree: int):
    """All monic polynomials over F_p of the given degree, lexicographically."""
    for tail in itertools.product(range(p), repeat=degree):
        yield FqPoly(p, tail + (1,))


def exhaustive_fp_factor(f: FqPoly) -> FactorizationFp:
    """Factorization by trial division over all monic candidates.

    The smallest-degree nontrivial divisor is necessarily irreducible, so
    dividing it out repeatedly yields the complete factorization.  Refuses
    inputs beyond the enumeration bound (p <= 7, degree <= 8).
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.p > 7 or f.degree > 8:
        raise ValueError("enumeration bounds exceeded (p <= 7, degree <= 8)")
    unit = f.lead
    g = f.monic()
    counts: dict[FqPoly, int] = {}
    while g.degree > 0:
        divisor = None
        for d in range(1, g.degree // 2 + 1):
            for cand in enumerate_monic_fp(g.p, d):
                if (g % cand).is_zero:
                    divisor = cand
                    break
            if divisor is not None:
                break
        if divisor is None:
            divisor = g
        counts[divisor] = counts.get(divisor, 0) + 1
        g = g // divisor
    factors = tuple(sorted(counts.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    return FactorizationFp(factors, unit, f.p)


def exhaustive_ext_factor_degrees(g: FqPoly) -> list[int]:
    """Sorted degrees of the irreducible factors (with multiplicity) by trial
    division over F_q, q <= 9."""
    field = g.field
    if field.q > 9 or g.degree > 6:
        raise ValueError("enumeration bounds exceeded (q <= 9, degree <= 6)")
    if g.degree < 1:
        raise ValueError("factor counting requires degree >= 1")
    elems = [
        field.elem(list(tup))
        for tup in itertools.product(range(field.p), repeat=field.m)
    ]
    g = g.monic()
    degrees = []
    while g.degree > 0:
        divisor = None
        for d in range(1, g.degree // 2 + 1):
            for tail in itertools.product(elems, repeat=d):
                cand = FqPoly(field, list(tail) + [field.one])
                if (g % cand).is_zero:
                    divisor = cand
                    break
            if divisor is not None:
                break
        if divisor is None:
            divisor = g
        degrees.append(divisor.degree)
        g = g // divisor
    return sorted(degrees)


def plain_distinct_degree(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Distinct-degree split of monic squarefree f with one pow_mod and one
    gcd per degree.

    h = x^(q^e) is raised to the q-th power by this module's pow_mod, not
    FqPoly.pow_mod, and kept reduced modulo the shrinking f, where the
    library applies a Frobenius table modulo the undivided f and takes one
    gcd per block of degrees.  The gcd is plain_gcd, not FqPoly.gcd.
    """
    q = f.field.q
    x = FqPoly.x(f.field)
    out = []
    h = x % f
    e = 1
    while f.degree >= 2 * e:
        h = pow_mod(h, q, f)
        g = plain_gcd(f, h - x)
        if g.degree > 0:
            out.append((g, e))
            f = f // g
            h = h % f
        e += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _random_unit_poly(rng: random.Random, p: int, max_degree: int) -> IntPoly:
    """Random nonzero polynomial of degree < max_degree with unit content."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(max_degree)]
        if any(coeffs):
            return IntPoly(coeffs)


def gen_eisenstein_family(
    p: int,
    phi: IntPoly,
    count: int,
    seed: int,
    gcd_targets=(1, 2, 3),
) -> list[IntPoly]:
    """Random monic polynomials satisfying the single-side hypothesis.

    Each output f = phi^n + sum a_i phi^i has nu(a_0) = H exactly and every
    (i, u_i) on or above the line to (n, 0), with gcd(H, n) cycling through
    the requested targets.
    """
    if not rabin_is_irreducible(phi.reduce_mod(p)):
        raise ValueError("phi must reduce to an irreducible polynomial")
    rng = random.Random(seed)
    m = phi.degree
    out = []
    for j in range(count):
        target = gcd_targets[j % len(gcd_targets)]
        while True:
            e = rng.randint(1, 4)
            hq = rng.randint(1, 5)
            if math.gcd(e, hq) == 1:
                break
        n = target * e
        height = target * hq
        f = phi**n + _random_unit_poly(rng, p, m) * p**height
        for i in range(1, n):
            if rng.random() < 0.4:
                continue
            floor = -((-height * (n - i)) // n)  # ceil(H*(n-i)/n)
            u = floor + rng.randint(0, 2)
            f = f + _random_unit_poly(rng, p, m) * p**u * phi**i
        out.append(f)
    return out


def gen_power_family(
    p: int,
    phi: IntPoly,
    count: int,
    seed: int,
    max_n: int = 8,
    max_height: int = 10,
    zero_a0_prob: float = 0.0,
) -> list[IntPoly]:
    """Random monic f with f mod p an exact power of phi mod p.

    Valuations of the lower expansion coefficients are free in
    [1, max_height], so the resulting polygons have arbitrary shapes.
    """
    rng = random.Random(seed)
    m = phi.degree
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        f = phi**n
        start = 1 if rng.random() < zero_a0_prob else 0
        for i in range(start, n):
            if i != start and rng.random() < 0.35:
                continue
            u = rng.randint(1, max_height)
            f = f + _random_unit_poly(rng, p, m) * p**u * phi**i
        out.append(f)
    return out


@dataclass(frozen=True)
class FactorWitness:
    """A product with known factor structure: the true count is at least k.

    Per-factor polygon and residual data (relative to each factor's own phi)
    ride along so product-rule checks can replay the construction.
    """

    factors: tuple
    phis: tuple
    product: IntPoly
    polygons: tuple
    residuals: tuple

    @property
    def k(self) -> int:
        return len(self.factors)


def _phi_pool(p: int) -> list[IntPoly]:
    pool = [IntPoly((0, 1)), IntPoly((1, 1))]
    for tail in itertools.product(range(p), repeat=2):
        cand = FqPoly(p, tail + (1,))
        if rabin_is_irreducible(cand):
            pool.append(IntPoly(cand.coeffs))
            if len(pool) >= 5:
                break
    return pool


def gen_factor_witness(p: int, k: int, seed: int) -> FactorWitness:
    """Product of k analyzable monic polynomials with per-factor polygon data."""
    rng = random.Random(seed)
    pool = _phi_pool(p)
    factors = []
    phis = []
    polygons = []
    residuals = []
    for j in range(k):
        phi = pool[rng.randrange(len(pool))]
        f = gen_eisenstein_family(
            p, phi, 1, rng.randrange(2**30), gcd_targets=(1, 2, 3)
        )[0]
        exp = phi_expand(f, phi, p)
        polygon = build_polygon(exp.points())
        field = ExtField(phi.reduce_mod(p))
        side_data = tuple(
            residual_polynomial(exp, side, field)
            for side in polygon.principal_part().sides
        )
        factors.append(f)
        phis.append(phi)
        polygons.append(polygon)
        residuals.append(side_data)
    product = IntPoly.one()
    for f in factors:
        product = product * f
    return FactorWitness(
        tuple(factors), tuple(phis), product, tuple(polygons), tuple(residuals)
    )


FAMILY_PHIS = {
    2: (IntPoly((0, 1)), IntPoly((1, 1)), IntPoly((1, 1, 1))),
    3: (IntPoly((0, 1)), IntPoly((2, 1)), IntPoly((1, 0, 1))),
    5: (IntPoly((1, 1)), IntPoly((2, 0, 1))),
}


def family_inputs():
    """(f, p, phi) triples of the Eisenstein, power and factor-witness
    families at p = 2, 3 and 5; phi is the one the family was built on."""
    rng = random.Random(314159)
    for p, phis in FAMILY_PHIS.items():
        for phi in phis:
            max_n = 6 if phi.degree == 1 else 3
            for f in gen_eisenstein_family(p, phi, 20, rng.randrange(2**30)):
                yield f, p, phi
            for f in gen_power_family(p, phi, 40, rng.randrange(2**30), max_n=max_n,
                                      max_height=6, zero_a0_prob=0.1):
                yield f, p, phi
        for j in range(24):
            witness = gen_factor_witness(p, 2 + j % 2, rng.randrange(2**30))
            yield witness.product, p, witness.phis[0]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the code for bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="phinewton",
        description="phi-adic Newton polygons, residual polynomials, and "
                    "irreducibility bounds for monic integer polynomials.",
    )
    parser.add_argument("expression", nargs="?", help="polynomial in x")
    parser.add_argument("--input", help="file containing one expression (UTF-8)")
    parser.add_argument("-p", "--prime", type=int, required=True,
                        help="prime for the p-adic valuation")
    parser.add_argument("--phi", help="monic phi for single-phi mode")
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "svg"),
                        default="text")
    parser.add_argument("--check-only", action="store_true",
                        help="validate input and hypothesis, print one line")
    parser.add_argument("--output",
                        help="write the report (or the --check-only line) to this path")
    return parser
