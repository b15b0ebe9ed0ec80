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
  principal sides are summed into a factor-count bound.  Each phi is
  expanded only through a_w, w the multiplicity of phibar_i that the
  factorization gives: the principal part ends at (w, 0), and past it the
  polygon is one flat side to (deg f // deg phi, 0).  The SVG renderer,
  which draws every point, expands f again in full.

`analyze` is the one entry point and `_validate_input` the one statement
of the input policy: p prime, f monic of degree >= 1, phi (when given)
monic of degree >= 1.  Single-phi mode first passes a gate: phibar is
irreducible and f mod p = phibar^n, read off the phi-expansion
(`PhiExpansion.is_phibar_power`) before any polygon is built.  Both modes
send each phi-expansion and its field F_phi through `_analyze_phi`, which
gives one list of factor groups (q, a) per phi: at most a factors over Z_p,
whose degrees are multiples of q and sum to q * a.  `analyze` then builds
one `AnalysisReport` from these facts.  It, `PhiReport` and `SideAnalysis`
subclass collections.namedtuple, so nothing changes them; the report's
__new__ reads the bounds and the verdict, and its `notes` word the facts.

Verdicts are one-directional: the tool certifies IRREDUCIBLE or a BOUNDED
factor count, never reducibility.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .expr import render_poly
from .polygon import NewtonPolygon, build_polygon, ratio
from .polyring import IntPoly, PhiExpansion, phi_expand
from .residual import residual_polynomial
from .residue_field import ExtField
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

# The single-phi gate that failed, when one did (AnalysisReport.gate).
GATE_PHIBAR_REDUCIBLE = "phibar-reducible"
GATE_NOT_PHIBAR_POWER = "not-phibar-power"

_NUM_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
    6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
}


def _count_word(n: int) -> str:
    return _NUM_WORDS.get(n, str(n))


class SideAnalysis(namedtuple("SideAnalysis", "side residual groups")):
    """One principal Side with its residual polynomial over F_phi (an FqPoly
    ascending in y) and the tuple of factor groups (q, a) it gives: a
    residual factor pair (d, a) of `factor_degrees` gives
    q = e * deg(phi) * d."""

    __slots__ = ()

    @property
    def factor_count(self) -> int:
        """The residual's factor count; 1 means the residual is irreducible."""
        return sum(a for _, a in self.groups)


class PhiReport(namedtuple("PhiReport", "expansion polygon sides exact_power_exponent")):
    """Per-phi polygon data: the PhiExpansion, N_phi(f) as a NewtonPolygon,
    and the tuple of SideAnalysis of its principal sides.

    `exact_power_exponent` is the exact multiplicity w with phi^w | f in
    Z[x] (leading run of INFINITY valuations), an int; it contributes the
    group (deg phi, w) of w certified irreducible factors on top of the
    sides'.
    """

    __slots__ = ()

    @property
    def phi(self) -> IntPoly:
        return self.expansion.phi

    @property
    def multiplicity(self) -> int:
        """The exponent of phibar in f mod p: the least i with u_i = 0.  f mod
        p = sum (a_i mod p) phibar^i, and a nonzero a_i mod p has degree below
        deg phibar, so it is prime to phibar."""
        return self.expansion.valuations.index(0)

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


class AnalysisReport(namedtuple("AnalysisReport", "input prime degree phi gate phi_reports "
                                                  "factor_bound min_factor_degree verdict")):
    """Everything the criteria certify about one input polynomial, built
    once from the facts that `analyze` found; phi_reports is kept as a tuple,
    so no field can change."""

    __slots__ = ()

    def __new__(cls, input: str, prime: int, degree: int, phi: IntPoly | None,
                gate: str | None, phi_reports):
        """Read the certificate off the groups (q, a) of every phi:
        factor_bound = sum(a), min_factor_degree = min(q), and IRREDUCIBLE
        iff the sum is 1.  A failed gate gives deg f, no degree and
        INAPPLICABLE, as does a single-phi polygon that is neither one side
        nor an exact power.

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
        factor_bound = degree if gate else sum(a for _, a in groups)
        min_factor_degree = None if gate else min(q for q, _ in groups)
        if gate or phi is not None and not any(
                pr.is_single_side or pr.is_exact_power for pr in phi_reports):
            verdict = INAPPLICABLE
        else:
            verdict = IRREDUCIBLE if factor_bound == 1 else BOUNDED
        return tuple.__new__(cls, (input, prime, degree, phi, gate, tuple(phi_reports),
                                   factor_bound, min_factor_degree, verdict))

    def __getnewargs__(self):  # a copy is rebuilt from the facts by __new__
        return self[:6]

    @property
    def mode(self) -> str:
        return MODE_FULL if self.phi is None else MODE_SINGLE_PHI

    @property
    def notes(self) -> list[str]:
        """The facts in words, then the bound restated as valuations and as
        prime ideals."""
        p, bound = self.prime, self.factor_bound
        if self.gate:
            phibar = self.phi.reduce_mod(p)
            notes = [f"phi mod {p} = {phibar} is reducible over F_{p}"
                     if self.gate == GATE_PHIBAR_REDUCIBLE
                     else f"f mod {p} is not a power of {phibar}",
                     f"factor bound falls back to the trivial degree bound {bound}"]
        elif self.phi is not None:
            notes = _single_phi_notes(self.phi_reports[0], self.verdict, bound)
        else:
            notes = []
            for pr in self.phi_reports:
                name = render_poly(pr.phi)
                if pr.exact_power_exponent:
                    notes.append(f"phi = {name} divides f exactly "
                                 f"{pr.exact_power_exponent} time(s)")
                notes.extend(_zero_interior_notes(pr))
                notes.append(
                    f"phi = {name}: multiplicity {pr.multiplicity}, "
                    f"{len(pr.sides)} principal side(s), at most "
                    f"{sum(a for _, a in pr.groups)} irreducible factor(s)"
                )
            if bound == 1:
                notes.append("factor bound is 1: f is irreducible")
            elif bound == len(self.phi_reports):
                notes.append(
                    f"coprime-factor lower bound matches the polygon bound: exactly "
                    f"{_count_word(bound)} irreducible factor(s) over the "
                    f"henselization"
                )
        notes.append(
            f"if f is irreducible over the base field, at most {bound} "
            f"valuation(s) extend nu to the root field, equivalently at most "
            f"{bound} prime ideal(s) lie above {p}"
        )
        return notes


def _analyze_phi(exp: PhiExpansion, field: ExtField) -> PhiReport:
    """From the phi-expansion of f, split off the exact power phi^w dividing
    f and build N_phi(f) with the residual over field = F_phi and the groups
    of each principal side."""
    w = 0
    while w < len(exp.valuations) and exp.valuations[w] is INFINITY:
        w += 1
    if w == exp.length:
        # f = phi^n exactly: phi is irreducible over the henselization, so
        # the factor count is exactly n.
        polygon = NewtonPolygon(((exp.length, 0),), ())
        return PhiReport(exp, polygon, (), w)
    polygon = build_polygon(exp.points())
    sides = []
    for side in polygon.principal_part().sides:
        g = residual_polynomial(exp, side, field)
        q = side.e * exp.phi.degree
        groups = tuple((q * d, a) for d, a in ext_count_irreducible_factors(g))
        sides.append(SideAnalysis(side, g, groups))
    return PhiReport(exp, polygon, tuple(sides), w)


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


def _single_phi_notes(pr: PhiReport, verdict: str, bound: int) -> list[str]:
    """The notes of a single phi past the gate: the exact power, the single
    side with its gcd and residual, or the failed hypothesis with the
    polygon's bound."""
    n, u0 = pr.multiplicity, pr.expansion.valuations[0]
    if pr.is_exact_power:
        return [f"f equals phi^{n} exactly: exactly {_count_word(n)} "
                f"irreducible factor(s) over the henselization"]
    if pr.is_single_side:
        # One side from (0, u_0) to (n, 0): its degree is gcd(u_0, n).
        rec = pr.sides[0]
        d = math.gcd(u0, n)
        assert rec.side.degree == d, "single-side gcd identity violated"
        first = [f"single side from (0, {u0}) to ({n}, 0): slope {ratio(-u0, n)}, "
                 f"gcd({u0}, {n}) = {d}"]
        if d == 1:
            last = f"gcd({u0}, {n}) = 1: f is irreducible (Eisenstein/Dumas shape)"
        elif verdict == IRREDUCIBLE:
            last = (f"residual polynomial {rec.residual} is irreducible over F_phi: "
                    f"f is irreducible over the henselization")
        else:
            last = (f"residual polynomial {rec.residual} factors over F_phi "
                    f"({rec.factor_count} factor(s) with multiplicity): "
                    f"at most {rec.factor_count} irreducible factor(s)")
    else:
        if u0 is INFINITY:
            first = [f"a_0 = 0: f is divisible by phi "
                     f"(phi^{pr.exact_power_exponent} divides f)"]
        else:
            first = [f"single-side hypothesis fails at index {i}: "
                     f"need nu(a_{i}) >= {ratio((n - i) * u0, n)}, got {u}"
                     for i, u in enumerate(pr.expansion.valuations[1:n], 1)
                     if u is not INFINITY and n * u < (n - i) * u0]
        last = (f"polygon has {len(pr.sides)} principal side(s); the residual factor "
                f"counts still apply: at most {bound} irreducible factor(s)")
    return first + _zero_interior_notes(pr) + [last]


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

    Full mode analyzes the canonical lift of every irreducible factor of
    f mod p, expanded through its multiplicity, over the field that the
    factorization proved.  Single-phi mode builds F_phi, which checks phibar
    once, and reads the power gate off the one phi-expansion; a failed gate
    leaves no phi report.  Each field is built once per call, and none is
    cached.

    Raises ValueError when the input breaks the policy of `_validate_input`.
    """
    _validate_input(f, p, phi)
    gate, phi_reports = None, []
    if phi is None:
        fact = fp_factorize(f.reduce_mod(p))
        phi_reports = [_analyze_phi(phi_expand(f, IntPoly(phibar.coeffs), p, w), field)
                       for (phibar, w), field in zip(fact.factors, fact.fields)]
    else:
        try:
            field = ExtField(phi.reduce_mod(p))
        except ValueError:
            gate = GATE_PHIBAR_REDUCIBLE
        else:
            exp = phi_expand(f, phi, p)
            if exp.is_phibar_power:
                phi_reports = [_analyze_phi(exp, field)]
            else:
                gate = GATE_NOT_PHIBAR_POWER
    return AnalysisReport(render_poly(f) if input_str is None else input_str,
                          p, f.degree, phi, gate, phi_reports)
