"""Applies the Newton-polygon irreducibility criteria and factor-count bounds.

Two modes are supported for a monic f in Z[x] and a prime p:

* single-phi: the caller fixes a monic phi whose reduction is irreducible
  and with f congruent to a power of it mod p.  When the polygon is a single
  side from (0, nu(a_0)) to (n, 0), of degree gcd(nu(a_0), n), f has at most
  as many irreducible factors over the henselization (hence over Q) as the
  residual polynomial of that side has over F_phi, each of degree at least
  e * deg(phi) * deg(psi) for an irreducible factor psi of the residual; a
  count of 1 (a gcd of 1, or an irreducible residual) means f itself is
  irreducible.
* full: f mod p is factored completely, a polygon is built for every
  irreducible factor phibar_i, and the residual factor counts of all
  principal sides are summed into a factor-count bound.

`analyze` is the one entry point and `_validate_input` the one statement
of the input policy: p prime, f monic of degree >= 1, phi (when given)
monic of degree >= 1.  Both modes send each phi-expansion through
`_analyze_phi`, which gives one list of factor groups (q, a) per phi: at
most a factors over Z_p, whose degrees are multiples of q and sum to q * a.
`AnalysisReport.certify` reads factor_bound = sum(a) and min_factor_degree
= min(q) off the groups, and answers IRREDUCIBLE exactly when the sum is 1.
Single-phi mode only adds its gate and the single-side hypothesis, which
can make the verdict INAPPLICABLE.  The gate, f mod p = phibar^n, is read
off the phi-expansion (`PhiExpansion.is_phibar_power`) before any polygon
is built; the hypothesis n*u_i >= (n-i)*u_0 > 0 is read off N_phi(f)
(`PhiReport.is_single_side`), and the inequalities are only re-evaluated
to word the notes when it fails.

Verdicts are one-directional: the tool certifies IRREDUCIBLE or a BOUNDED
factor count, never reducibility.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .expr import render_poly
from .polygon import NewtonPolygon, Side, build_polygon
from .polyring import IntPoly, PhiExpansion, phi_expand
from .residual import residual_polynomial
from .residue_field import FqPoly, ext_field
# The traced benchmark run hooks these two names where criteria looks them up;
# ext_count_irreducible_factors is the one factor_degrees call per side.
from .residue_field import factor_degrees as ext_count_irreducible_factors
from .residue_field import fp_factorize
from .valuation import INFINITY, is_prime

IRREDUCIBLE = "IRREDUCIBLE"
BOUNDED = "BOUNDED"
INAPPLICABLE = "INAPPLICABLE"

MODE_SINGLE_PHI = "single-phi"
MODE_FULL = "full"

_NUM_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
    6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
}


def _count_word(n: int) -> str:
    return _NUM_WORDS.get(n, str(n))


class SideAnalysis(NamedTuple):
    """One principal side with its residual polynomial over F_phi (ascending
    in y) and the factor groups (q, a) it gives: a residual factor pair
    (d, a) of `factor_degrees` gives q = e * deg(phi) * d."""

    side: Side
    residual: FqPoly
    groups: tuple

    @property
    def factor_count(self) -> int:
        """The residual's factor count; 1 means the residual is irreducible."""
        return sum(a for _, a in self.groups)


class PhiReport(NamedTuple):
    """Per-phi polygon data: N_phi(f), its principal sides, and residuals.

    `exact_power_exponent` is the exact multiplicity w with phi^w | f in
    Z[x] (leading run of INFINITY valuations); it contributes the group
    (deg phi, w) of w certified irreducible factors on top of the sides'.
    """

    multiplicity: int
    expansion: PhiExpansion
    polygon: NewtonPolygon
    sides: tuple
    exact_power_exponent: int

    @property
    def phi(self) -> IntPoly:
        return self.expansion.phi

    @property
    def groups(self) -> tuple:
        """The factor groups (q, a) of the factors of f that belong to phi."""
        w = self.exact_power_exponent
        power = ((self.phi.degree, w),) if w else ()
        return power + tuple(g for r in self.sides for g in r.groups)

    @property
    def is_exact_power(self) -> bool:
        """f = phi^n exactly: the polygon is one vertex with no side."""
        return self.exact_power_exponent == self.expansion.length

    @property
    def is_single_side(self) -> bool:
        """The principal part is one side from (0, u_0) to (multiplicity, 0):
        the single-side hypothesis n*u_i >= (n-i)*u_0 > 0, read off N_phi(f)."""
        return (self.exact_power_exponent == 0 and len(self.sides) == 1
                and self.sides[0].side.start[0] == 0
                and self.sides[0].side.end == (self.multiplicity, 0))


class AnalysisReport:
    """Everything the criteria certify about one input polynomial.  It starts
    INAPPLICABLE with the trivial bound deg f and no degree, which a failed
    single-phi gate keeps, until `certify` reads the groups."""

    def __init__(self, input: str, prime: int, mode: str, verdict: str,
                 factor_bound: int, min_factor_degree: int | None = None,
                 notes: list = (), phi_reports: list = ()):
        self.input, self.prime, self.mode = input, prime, mode
        self.verdict, self.factor_bound = verdict, factor_bound
        self.min_factor_degree = min_factor_degree
        self.notes, self.phi_reports = list(notes), list(phi_reports)

    def certify(self, phi_reports: list) -> None:
        """Read the certificate off the groups (q, a) of every phi:
        factor_bound = sum(a), min_factor_degree = min(q), and IRREDUCIBLE
        iff the sum is 1.

        Proof that these bound the factors of f over Z_p, and so over Q.
        Each factor of f over Z_p reduces to a power of one phibar, so it
        belongs to exactly one phi.  An exact power phi^w accounts for w
        factors, each equal to phi: the group (deg phi, w).  By the theorem
        of the residual polynomial (Ore; Guardia, Montes & Nart, Trans. AMS
        2012, section 1), the other factors that belong to phi split along
        the principal sides of N_phi(f): a side S with ramification index e
        and residual R_S = prod psi^a gives Z_p factors whose residuals are
        powers psi^b, b >= 1, with the b for one psi summing to its a, and a
        factor with residual psi^b has degree e * deg(phi) * deg(psi) * b.
        So the psi of degree d, counted with multiplicity, give at most a
        factors, whose degrees are multiples of q = e * deg(phi) * d and sum
        to q * a: the group (q, a).  Hence f has at most sum(a) factors over
        Z_p, each of degree at least min(q).  A factor of f over Q is a
        product of factors over Z_p, so the same two bounds hold over Q.  A
        sum of 1 therefore means that f is irreducible over Z_p, and so over
        Q; its one group is then (deg f, 1).
        """
        groups = [g for pr in phi_reports for g in pr.groups]
        self.phi_reports = phi_reports
        self.factor_bound = sum(a for _, a in groups)
        self.min_factor_degree = min(q for q, _ in groups)
        self.verdict = IRREDUCIBLE if self.factor_bound == 1 else BOUNDED


def _analyze_phi(exp: PhiExpansion, multiplicity: int) -> PhiReport:
    """From the phi-expansion of f, split off the exact power phi^w dividing
    f and build N_phi(f) with the residual and groups of each principal side.

    `multiplicity` is the exponent of phi mod p in f mod p, recorded as given.
    """
    w = 0
    while w < len(exp.valuations) and exp.valuations[w] is INFINITY:
        w += 1
    if w == exp.length:
        # f = phi^n exactly: phi is irreducible over the henselization, so
        # the factor count is exactly n.
        polygon = NewtonPolygon(((exp.length, 0),), ())
        return PhiReport(multiplicity, exp, polygon, (), w)
    polygon = build_polygon(exp.points())
    sides = []
    for side in polygon.principal_part().sides:
        g = residual_polynomial(exp, side)
        q = side.e * exp.phi.degree
        groups = tuple((q * d, a) for d, a in ext_count_irreducible_factors(g))
        sides.append(SideAnalysis(side, g, groups))
    return PhiReport(multiplicity, exp, polygon, tuple(sides), w)


def _zero_interior_notes(pr: PhiReport) -> list[str]:
    """Explain vanishing interior residual coefficients of the sides: the
    expansion has no point on the side at that abscissa."""
    notes = []
    for rec in pr.sides:
        g, side = rec.residual, rec.side
        for j in range(1, g.degree):
            if g.coeffs[g.degree - j].is_zero:  # t_j
                notes.append(
                    f"side ({side.start[0]},{side.start[1]})->"
                    f"({side.end[0]},{side.end[1]}): "
                    f"residual coefficient at y^{g.degree - j} is zero "
                    f"(no point on the side at abscissa {side.start[0] + j * side.e})"
                )
    return notes


def _validate_input(f: IntPoly, p: int, phi: IntPoly | None = None) -> None:
    """The input policy, stated once: p prime, f monic of degree >= 1, and
    phi, when given, monic of degree >= 1.  Raises ValueError for the first
    fault in that order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.degree < 1 or not f.is_monic:
        raise ValueError("input polynomial must be monic of degree >= 1")
    if phi is not None and (phi.degree < 1 or not phi.is_monic):
        raise ValueError("phi must be monic of degree >= 1")


def analyze(
    f: IntPoly,
    p: int,
    phi: IntPoly | None = None,
    input_str: str | None = None,
) -> AnalysisReport:
    """Run the single-phi criteria when phi is given, the full bound otherwise.

    Raises ValueError when the input breaks the policy of `_validate_input`.
    """
    _validate_input(f, p, phi)
    report = AnalysisReport(render_poly(f) if input_str is None else input_str,
                            p, MODE_FULL if phi is None else MODE_SINGLE_PHI,
                            INAPPLICABLE, f.degree)
    if phi is None:
        _full(report, f)
    else:
        _single_phi(report, f, phi)
    report.notes.append(
        f"if f is irreducible over the base field, at most {report.factor_bound} "
        f"valuation(s) extend nu to the root field, equivalently at most "
        f"{report.factor_bound} prime ideal(s) lie above {p}"
    )
    return report


def _gate_failed(report: AnalysisReport, reason: str) -> None:
    report.notes += [reason, f"factor bound falls back to the trivial degree "
                             f"bound {report.factor_bound}"]


def _single_phi(report: AnalysisReport, f: IntPoly, phi: IntPoly) -> None:
    """The single-phi criteria need phi mod p irreducible and f mod p a power
    of it; otherwise the verdict stays INAPPLICABLE with the reason as first
    note.  The field F_phi is built here, so phibar's irreducibility is
    checked once, and the power test reads the one phi-expansion before any
    polygon is built."""
    p = report.prime
    phibar = phi.reduce_mod(p)
    try:
        ext_field(phibar)
    except ValueError:
        return _gate_failed(report, f"phi mod {p} = {phibar} is reducible over F_{p}")
    exp = phi_expand(f, phi, p)
    if not exp.is_phibar_power:
        return _gate_failed(report, f"f mod {p} is not a power of {phibar}")
    pr = _analyze_phi(exp, exp.length)

    report.certify([pr])
    notes = report.notes
    n, w = pr.multiplicity, pr.exact_power_exponent
    if pr.is_exact_power:
        notes.append(f"f equals phi^{n} exactly: exactly {_count_word(n)} "
                     f"irreducible factor(s) over the henselization")
        return

    u0 = pr.expansion.valuations[0]
    if not pr.is_single_side:
        if u0 is INFINITY:
            notes.append(f"a_0 = 0: f is divisible by phi (phi^{w} divides f)")
        else:
            notes.extend(
                f"single-side hypothesis fails at index {i}: "
                f"need nu(a_{i}) >= {Fraction((n - i) * u0, n)}, got {u}"
                for i, u in enumerate(pr.expansion.valuations[1:n], 1)
                if u is not INFINITY and n * u < (n - i) * u0
            )
        notes.extend(_zero_interior_notes(pr))
        notes.append(
            f"polygon has {len(pr.sides)} principal side(s); the residual factor "
            f"counts still apply: at most {report.factor_bound} irreducible factor(s)"
        )
        report.verdict = INAPPLICABLE
        return

    # Single side from (0, u_0) to (n, 0): its degree is gcd(u_0, n).
    rec = pr.sides[0]
    d = math.gcd(u0, n)
    assert rec.side.degree == d, "single-side gcd identity violated"
    notes.append(f"single side from (0, {u0}) to ({n}, 0): slope {rec.side.slope}, "
                 f"gcd({u0}, {n}) = {d}")
    notes.extend(_zero_interior_notes(pr))
    if d == 1:
        notes.append(f"gcd({u0}, {n}) = 1: f is irreducible (Eisenstein/Dumas shape)")
    elif report.verdict == IRREDUCIBLE:
        notes.append(
            f"residual polynomial {rec.residual} is irreducible over F_phi: "
            f"f is irreducible over the henselization"
        )
    else:
        notes.append(
            f"residual polynomial {rec.residual} factors over F_phi "
            f"({rec.factor_count} factor(s) with multiplicity): "
            f"at most {rec.factor_count} irreducible factor(s)"
        )


def _full(report: AnalysisReport, f: IntPoly) -> None:
    """Sum of residual factor counts over every irreducible factor of f mod p.

    Factors f mod p completely, builds each phi_i-polygon from the canonical
    lift of phibar_i, and certifies the groups of the principal sides (plus
    the exact power of phi_i dividing f, when positive).
    """
    p = report.prime
    factorization = fp_factorize(f.reduce_mod(p))
    phi_reports = [
        _analyze_phi(phi_expand(f, IntPoly(phibar.coeffs), p), n_i)
        for phibar, n_i in factorization.factors
    ]
    report.certify(phi_reports)
    notes = report.notes
    for pr in phi_reports:
        name = render_poly(pr.phi)
        if pr.exact_power_exponent:
            notes.append(
                f"phi = {name} divides f exactly {pr.exact_power_exponent} time(s)"
            )
        notes.extend(_zero_interior_notes(pr))
        notes.append(
            f"phi = {name}: multiplicity {pr.multiplicity}, "
            f"{len(pr.sides)} principal side(s), at most "
            f"{sum(a for _, a in pr.groups)} irreducible factor(s)"
        )

    if report.factor_bound == 1:
        notes.append("factor bound is 1: f is irreducible")
    elif report.factor_bound == len(phi_reports):
        notes.append(
            f"coprime-factor lower bound matches the polygon bound: exactly "
            f"{_count_word(report.factor_bound)} irreducible factor(s) over the "
            f"henselization"
        )
