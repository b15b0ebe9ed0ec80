"""Residual coefficients and residual polynomials of Newton polygon sides.

For a side S with initial point (s, u_s) and 0 <= i <= length, the residual
coefficient c_i in F_phi = F_p[x]/(phibar) is zero when the point
(s+i, u_{s+i}) lies strictly above S (or the expansion coefficient
vanishes), and otherwise is the class of a_{s+i} / p^(u_{s+i}) modulo
(p, phibar).  Only the lattice points of S, at abscissas s, s+e, ..., s+de,
can contribute nonzero values.  That class is read off the phi-expansion,
which keeps each integer coefficient's valuation and its unit mod p: a
coefficient c of a_{s+i} maps to its unit where nu_p(c) = u_{s+i} and to 0
where nu_p(c) is larger, so no power of p is formed and nothing is divided.

The residual polynomial f_S(y) = t_0 y^d + t_1 y^(d-1) + ... + t_d has
t_i = c_{i*e}: the side's start anchors the highest power of y.  It is an
`FqPoly` over F_phi, stored like every polynomial in ascending powers of y,
so its coefficient list is t_d..t_0; certificates display t_0..t_d,
`reversed(g.coeffs)`, so they read term by term from the side's start.
"""

from __future__ import annotations

from .polygon import Side
from .polyring import PhiExpansion
from .residue_field import ExtField, FqPoly, _poly
from .valuation import INFINITY


def _coefficient(exp: PhiExpansion, side: Side, i: int, field: ExtField) -> FqPoly:
    s = side.start[0]
    u = exp.valuations[s + i]
    if u is INFINITY:
        return field.zero
    above = side.above(s + i, u)
    if above > 0:
        return field.zero
    if above < 0:
        raise RuntimeError(f"point ({s + i}, {u}) lies below its own polygon side")
    units = []
    for c, (nu, unit) in zip(exp.coeffs[s + i].coeffs, exp.splits[s + i]):
        if nu is INFINITY or nu > u:
            units.append(0)  # c / p^u is divisible by p
        elif nu == u:
            units.append(unit)
        else:
            raise ValueError(f"{c} is not divisible by {exp.p}^{u}")
    return field.elem(units)


def residual_polynomial(exp: PhiExpansion, side: Side, field: ExtField) -> FqPoly:
    """Assemble f_S(y) = t_0 y^d + ... + t_d over field = F_phi, the field of
    phibar = phi mod p, from the side's lattice points.

    Defined for sides of non-positive slope; on a slope-zero side with phi = x
    this reproduces the plain reduction of f modulo p.
    """
    if side.end[1] > side.start[1]:
        raise ValueError("residual polynomials are attached to sides of slope <= 0")
    ts = [_coefficient(exp, side, j * side.e, field) for j in range(side.degree + 1)]
    if ts[0].is_zero or ts[-1].is_zero:
        raise RuntimeError("side endpoints must carry nonzero residual coefficients")
    return _poly(field, ts[::-1])
