"""Dense univariate polynomials over Z: Euclidean division by monic divisors,
phi-expansion, and Gauss valuations of the expansion coefficients.

IntPoly and PhiExpansion subclass collections.namedtuple.  IntPoly has one
field, `coeffs`: arbitrary-precision Python integers in ascending degree
order with no trailing zeros.  Arithmetic is exact throughout; products and
divisions run on residue_field's _product and _divide, the kernels of
FqPoly's too.

phi_expand reads every integer coefficient of every a_i once, in one pass
that yields both its valuation nu and its unit (c / p^nu) mod p.  The
expansion keeps both, so the residual coefficients are read off it with no
further big-integer division.  Given `upto`, it stops after a_0 .. a_upto:
full mode expands each phi only through its multiplicity w, since the
principal polygon reads no point past (w, 0).
"""

from __future__ import annotations

from collections import namedtuple

from .residue_field import FqPoly, _divide, _power, _product
from .valuation import INFINITY, ExtInt, _split


class IntPoly(namedtuple("IntPoly", "coeffs")):
    """Dense polynomial over Z.

    The zero polynomial is the empty coefficient list and reports degree -1,
    which stands in for "minus infinity" in the degree guards used here.
    The constructor checks that every coefficient is an int; arithmetic
    builds its results through _intpoly, with no check.  A product with a
    monomial c*x^k, and a power of one, is a shift and a scale, with no
    schoolbook loop.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        return _intpoly(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return _intpoly([0, 1])

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return _intpoly([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:  # a_i, not the tuple's own item i
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @staticmethod
    def _coerce(value) -> "IntPoly":
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly((value,))
        return NotImplemented

    def __add__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _intpoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return _intpoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        if len(a) > len(b):
            a, b = b, a
        for mono, g in ((b, a), (a, b)):
            if not any(mono[:-1]):  # mono = c*x^k: g shifted by k, scaled by c
                c = mono[-1]
                return _intpoly([0] * (len(mono) - 1) + [c * v for v in g])
        return _intpoly(_product(a, b, 0))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative exponent")
        cs = self.coeffs
        if cs and not any(cs[:-1]):  # (c*x^k)^n = c^n * x^(k*n)
            return _intpoly([0] * ((len(cs) - 1) * n) + [cs[-1] ** n])
        return _power(self, n, IntPoly.__mul__, IntPoly.one())

    def __divmod__(self, other: "IntPoly"):
        """Euclidean division by a monic divisor, exact over Z."""
        if not isinstance(other, IntPoly):
            return NotImplemented
        if other.is_zero:
            raise ValueError("division by the zero polynomial")
        if not other.is_monic:
            raise ValueError("divisor must be monic for division over Z")
        rem = list(self.coeffs)
        quo = _divide(rem, other.coeffs[:-1], 0)
        return _intpoly(quo), _intpoly(rem[:other.degree])

    def reduce_mod(self, p: int) -> FqPoly:
        """Image in F_p[x]."""
        return FqPoly(p, self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __ne__(self, other):  # tuple's own __ne__ would skip the int case
        return not self == other

    __hash__ = tuple.__hash__

    def __bool__(self):  # a tuple of one is always true
        return bool(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


def _intpoly(cs: list) -> IntPoly:
    """IntPoly from a list of ints, which it consumes, trailing zeros
    stripped; no type check."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple.__new__(IntPoly, (tuple(cs),))


class PhiExpansion(namedtuple("PhiExpansion", "f phi coeffs valuations splits p")):
    """The unique writing f = sum a_i * phi^i with deg a_i < deg phi, for
    IntPolys f and phi and the int prime p; the other fields are tuples.

    `coeffs[i]` is a_i (zero coefficients kept in place) and `valuations[i]`
    is its Gauss valuation u_i, INFINITY when a_i = 0.  `splits[i][j]` is
    (nu, unit) for the integer c = coeffs[i].coeffs[j]: nu = nu_p(c) and
    unit = (c / p^nu) mod p, or (INFINITY, 0) when c = 0; u_i is the least
    nu over a_i.  A truncated expansion (`phi_expand(..., upto)`) keeps
    a_0 .. a_upto only, with upto < `length`.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        """Index n = deg f // deg phi of the leading expansion coefficient,
        also when the expansion is truncated before it."""
        return self.f.degree // self.phi.degree

    @property
    def is_truncated(self) -> bool:
        """The expansion stops before a_n, n = `length`."""
        return len(self.coeffs) <= self.length

    @property
    def is_phibar_power(self) -> bool:
        """f mod p = phibar^n with n = `length`.  The expansion is unique, and
        so is its reduction in phibar, so this holds exactly when
        deg f = n * deg phi (the monic leading a_n is 1) and p divides a_i,
        u_i > 0 or INFINITY, for every i < n.  A truncated expansion raises
        ValueError rather than answer from a prefix."""
        if self.is_truncated:
            raise ValueError("a truncated expansion cannot decide f mod p = phibar^n")
        n = self.length
        return (self.f.degree == n * self.phi.degree
                and all(u is INFINITY or u > 0 for u in self.valuations[:n]))

    def points(self) -> list[tuple[int, ExtInt]]:
        """The valuation points (i, u_i) feeding the Newton polygon.  A
        truncated expansion ends with (n, 0), n = `length`: the monic a_n
        has u_n = 0, every u_i >= 0, and it keeps a_w with u_w = 0, so the
        hull is one flat side from (w, 0) to (n, 0) with or without the
        points in between."""
        points = list(enumerate(self.valuations))
        if self.is_truncated:
            points.append((self.length, 0))
        return points


_ZERO_SPLIT = (INFINITY, 0)


def phi_expand(f: IntPoly, phi: IntPoly, p: int, upto: int | None = None) -> PhiExpansion:
    """Expand f in powers of phi by repeated Euclidean division; given
    `upto`, divide at most upto + 1 times and keep a_0 .. a_upto.  An `upto`
    below the multiplicity w of phibar in f mod p (the least i with
    u_i = 0) raises ValueError: the points past it would be missing."""
    if f.is_zero:
        raise ValueError("cannot expand the zero polynomial")
    if not phi.is_monic or phi.degree < 1:
        raise ValueError("phi must be monic of degree >= 1")
    coeffs = []
    rest = f
    while not rest.is_zero and (upto is None or len(coeffs) <= upto):
        rest, a = divmod(rest, phi)
        coeffs.append(a)
    ladder = [p]  # p^(2^i), shared by the coefficients of this expansion
    splits, valuations = [], []
    for a in coeffs:
        split = tuple([_split(c, p, ladder) if c else _ZERO_SPLIT for c in a.coeffs])
        nus = [nu for nu, _ in split if nu is not INFINITY]
        splits.append(split)
        valuations.append(min(nus) if nus else INFINITY)
    exp = PhiExpansion(f, phi, tuple(coeffs), tuple(valuations), tuple(splits), p)
    if exp.is_truncated and 0 not in valuations:
        raise ValueError(f"upto = {upto} is below the multiplicity of phibar in f mod p")
    return exp

