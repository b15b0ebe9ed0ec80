"""Residual coefficients and residual polynomials of Newton polygon sides.

For a side S with initial point (s, u_s) and 0 <= i <= length, the residual
coefficient c_i in F_phi = F_p[x]/(phibar) is zero when the point
(s+i, u_{s+i}) lies strictly above S (or the expansion coefficient
vanishes), and otherwise is the class of a_{s+i} / p^(u_{s+i}) modulo
(p, phibar).  Only the lattice points of S, at abscissas s, s+e, ..., s+de,
can contribute nonzero values.

The residual polynomial is stored in the display convention
f_S(y) = t_0 y^d + t_1 y^(d-1) + ... + t_d with t_i = c_{i*e}: the side's
start anchors the highest power of y.  Irreducibility and factor counts are
invariant under this reversal, and keeping the displayed order makes
certificates auditable term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygon import Side
from .polyring import PhiExpansion
from .residue_field import ExtField, FqPoly, ext_field
from .valuation import INFINITY


@dataclass(frozen=True)
class ResidualPolynomial:
    """f_S(y) for one side: coefficients t_0..t_d in `field`, t_i attached
    to y^(d-i)."""

    side: Side
    anchor: int
    ts: tuple
    field: ExtField

    @property
    def degree(self) -> int:
        return len(self.ts) - 1

    def as_poly(self) -> FqPoly:
        """The same polynomial over F_phi, in ascending powers of y."""
        return FqPoly(self.field, tuple(reversed(self.ts)))

    def __str__(self):
        return str(self.as_poly())


def _coefficient(exp: PhiExpansion, side: Side, i: int, field: ExtField) -> FqPoly:
    s = side.start[0]
    u = exp.valuations[s + i]
    if u is INFINITY:
        return field.zero
    line = side.height_at(s + i)
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


def residual_coefficient(exp: PhiExpansion, side: Side, i: int) -> FqPoly:
    """The residual coefficient c_i of the side, an element of F_phi."""
    if not 0 <= i <= side.length:
        raise ValueError(f"index {i} outside side of length {side.length}")
    return _coefficient(exp, side, i, ext_field(exp.phi.reduce_mod(exp.p)))


def residual_polynomial(exp: PhiExpansion, side: Side) -> ResidualPolynomial:
    """Assemble f_S(y) = t_0 y^d + ... + t_d from the side's lattice points.

    Defined for sides of non-positive slope; on a slope-zero side with phi = x
    this reproduces the plain reduction of f modulo p.
    """
    if side.slope > 0:
        raise ValueError("residual polynomials are attached to sides of slope <= 0")
    field = ext_field(exp.phi.reduce_mod(exp.p))
    ts = tuple(
        _coefficient(exp, side, j * side.e, field) for j in range(side.degree + 1)
    )
    if ts[0].is_zero or ts[-1].is_zero:
        raise RuntimeError("side endpoints must carry nonzero residual coefficients")
    return ResidualPolynomial(side, side.start[0], ts, field)
