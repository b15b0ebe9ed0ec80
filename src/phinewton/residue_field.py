"""Arithmetic and factorization over F_p and its simple extensions F_p[x]/(phibar).

Polynomials over F_p are dense coefficient lists in ascending degree order,
entries reduced to [0, p), no trailing zeros.  Extension fields are taken in
the presentation the caller fixes (a monic irreducible modulus), with no
canonical-model normalization, so residue classes stay auditable against the
inputs that produced them.

Factorization over F_p runs squarefree decomposition, then distinct-degree
splitting, then seeded Cantor-Zassenhaus equal-degree splitting; the result
is deterministic for a given (polynomial, seed).  Over an extension only
irreducibility (Rabin's test) and factor counting (squarefree + distinct
degree) are provided.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _term_str(coeff: str, power: int, var: str) -> str:
    if power == 0:
        return coeff
    xpow = var if power == 1 else f"{var}^{power}"
    return xpow if coeff == "1" else f"{coeff}{xpow}"


class FpPoly:
    """Dense polynomial over F_p."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        if p < 2:
            raise ValueError("modulus must be >= 2")
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def x(cls, p: int) -> "FpPoly":
        return cls(p, (0, 1))

    @classmethod
    def constant(cls, p: int, c: int) -> "FpPoly":
        return cls(p, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "FpPoly"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FpPoly(self.p, out)

    def __neg__(self) -> "FpPoly":
        return FpPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return FpPoly(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FpPoly(self.p, out)

    def scale(self, c: int) -> "FpPoly":
        return FpPoly(self.p, [c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "FpPoly":
        if n < 0:
            raise ValueError("negative exponent")
        result = FpPoly.constant(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "FpPoly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        inv = pow(other.lead, -1, p)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FpPoly(p), self
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv % p
            if c:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % p
        return FpPoly(p, quo), FpPoly(p, rem[: other.degree])

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FpPoly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(pow(self.lead, -1, self.p))

    def gcd(self, other: "FpPoly") -> "FpPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "FpPoly"):
        """Extended gcd: returns monic (g, s, t) with s*self + t*other = g."""
        p = self.p
        r0, r1 = self, other
        s0, s1 = FpPoly.constant(p, 1), FpPoly(p)
        t0, t1 = FpPoly(p), FpPoly.constant(p, 1)
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero:
            return r0, s0, t0
        inv = pow(r0.lead, -1, p)
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, n: int, modulus: "FpPoly") -> "FpPoly":
        if n < 0:
            raise ValueError("negative exponent")
        result = FpPoly.constant(self.p, 1) % modulus
        base = self % modulus
        while n:
            if n & 1:
                result = result * base % modulus
            base = base * base % modulus
            n >>= 1
        return result

    def evaluate(self, x: int) -> int:
        y = 0
        for c in reversed(self.coeffs):
            y = (y * x + c) % self.p
        return y

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"FpPoly({self.p}, {list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c:
                terms.append(_term_str(str(c), i, "x"))
        return " + ".join(terms)


def fp_is_irreducible(f: FpPoly) -> bool:
    """Rabin's irreducibility test over F_p."""
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    p = f.p
    f = f.monic()
    x = FpPoly.x(p)
    powers = [x % f]
    for _ in range(n):
        powers.append(powers[-1].pow_mod(p, f))
    if powers[n] != x % f:
        return False
    for ell in _prime_factors(n):
        if f.gcd(powers[n // ell] - x).degree != 0:
            return False
    return True


@dataclass(frozen=True)
class FactorizationFp:
    """Complete factorization over F_p: unit * prod(factor^multiplicity)."""

    factors: tuple  # ((FpPoly, int), ...), monic irreducible, canonically sorted
    unit: int

    def recompose(self) -> FpPoly:
        if not self.factors:
            p = 2
        else:
            p = self.factors[0][0].p
        out = FpPoly.constant(p, self.unit)
        for g, k in self.factors:
            out = out * g**k
        return out

    @property
    def factor_count(self) -> int:
        """Number of irreducible factors counted with multiplicity."""
        return sum(k for _, k in self.factors)


def _squarefree_parts(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Split monic f into (monic squarefree part, multiplicity) pairs."""
    p = f.p
    parts = []
    n = 1
    while f.degree > 0:
        deriv = f.derivative()
        if not deriv.is_zero:
            g = f.gcd(deriv)
            h = f // g
            i = 1
            while h.degree > 0:
                step = g.gcd(h)
                quotient = h // step
                if quotient.degree > 0:
                    parts.append((quotient, i * n))
                g, h, i = g // step, step, i + 1
            if g.degree == 0:
                return parts
            f = g
        # f is now a perfect p-th power; over F_p the root keeps coefficients
        f = FpPoly(p, f.coeffs[::p])
        n *= p
    return parts


def _distinct_degree(f: FpPoly, q: int) -> list[tuple[FpPoly, int]]:
    """Split monic squarefree f into (product of degree-e irreducibles, e)."""
    p = f.p
    x = FpPoly.x(p)
    out = []
    h = x % f
    e = 1
    while f.degree >= 2 * e:
        h = h.pow_mod(q, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            out.append((g, e))
            f = f // g
            h = h % f
        e += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree(f: FpPoly, e: int, rng: random.Random) -> list[FpPoly]:
    """Cantor-Zassenhaus split of a monic product of degree-e irreducibles."""
    n = f.degree
    if n == e:
        return [f]
    p = f.p
    one = FpPoly.constant(p, 1)
    while True:
        r = FpPoly(p, [rng.randrange(p) for _ in range(2 * e)])
        if r.degree < 1:
            continue
        if p == 2:
            # trace map r + r^2 + ... + r^(2^(e-1)) mod f
            t = r % f
            s = t
            for _ in range(e - 1):
                s = s * s % f
                t = t + s
            g = f.gcd(t)
        else:
            g = f.gcd(r)
            if not 0 < g.degree < n:
                s = r.pow_mod((p**e - 1) // 2, f)
                g = f.gcd(s - one)
        if 0 < g.degree < n:
            return _equal_degree(g, e, rng) + _equal_degree(f // g, e, rng)


def fp_factorize(f: FpPoly, seed: int = 0) -> FactorizationFp:
    """Complete factorization of a nonzero polynomial over F_p.

    Deterministic for fixed (f, seed): the equal-degree stage draws from a
    PRNG seeded by the caller, and factors are returned in a canonical order
    (degree, then coefficient tuple).
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    unit = f.lead
    factors = []
    for part, mult in _squarefree_parts(f.monic()):
        for prod, e in _distinct_degree(part, f.p):
            for irr in _equal_degree(prod, e, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return FactorizationFp(tuple(factors), unit)


class ExtField:
    """The extension field F_p[x]/(phibar) for a monic irreducible phibar."""

    __slots__ = ("p", "modulus", "m", "q")

    def __init__(self, modulus: FpPoly):
        if not modulus.is_monic or modulus.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if not fp_is_irreducible(modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{modulus.p}")
        object.__setattr__(self, "p", modulus.p)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "m", modulus.degree)
        object.__setattr__(self, "q", modulus.p**modulus.degree)

    def __setattr__(self, *args):
        raise AttributeError("ExtField is immutable")

    def elem(self, value) -> "ExtFieldElem":
        if isinstance(value, ExtFieldElem):
            if value.field is not self and value.field != self:
                raise ValueError("element of a different field")
            return value
        if isinstance(value, int):
            value = FpPoly.constant(self.p, value)
        elif not isinstance(value, FpPoly):
            value = FpPoly(self.p, value)
        return ExtFieldElem(self, value % self.modulus)

    @property
    def zero(self) -> "ExtFieldElem":
        return self.elem(0)

    @property
    def one(self) -> "ExtFieldElem":
        return self.elem(1)

    @property
    def gen(self) -> "ExtFieldElem":
        """The class of x, a root of the modulus."""
        return self.elem(FpPoly.x(self.p))

    def __eq__(self, other):
        return isinstance(other, ExtField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"ExtField(F_{self.p}[x]/({self.modulus}))"


@functools.lru_cache(maxsize=None)
def _cached_field(modulus: FpPoly) -> ExtField:
    return ExtField(modulus)


def ext_field(modulus: FpPoly) -> ExtField:
    """Shared-instance constructor for F_p[x]/(modulus)."""
    return _cached_field(modulus)


class ExtFieldElem:
    """An element of an ExtField, stored as its reduced representative."""

    __slots__ = ("field", "value")

    def __init__(self, field: ExtField, value: FpPoly):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *args):
        raise AttributeError("ExtFieldElem is immutable")

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def _check(self, other: "ExtFieldElem"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "ExtFieldElem") -> "ExtFieldElem":
        self._check(other)
        return ExtFieldElem(self.field, (self.value + other.value) % self.field.modulus)

    def __sub__(self, other: "ExtFieldElem") -> "ExtFieldElem":
        self._check(other)
        return ExtFieldElem(self.field, (self.value - other.value) % self.field.modulus)

    def __neg__(self) -> "ExtFieldElem":
        return ExtFieldElem(self.field, (-self.value) % self.field.modulus)

    def __mul__(self, other: "ExtFieldElem") -> "ExtFieldElem":
        self._check(other)
        return ExtFieldElem(self.field, self.value * other.value % self.field.modulus)

    def inverse(self) -> "ExtFieldElem":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = self.value.xgcd(self.field.modulus)
        if g.degree != 0:
            raise ValueError("modulus is not irreducible")
        return ExtFieldElem(self.field, s % self.field.modulus)

    def __pow__(self, n: int) -> "ExtFieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        return ExtFieldElem(self.field, self.value.pow_mod(n, self.field.modulus))

    def frobenius_inv(self) -> "ExtFieldElem":
        """The unique p-th root: c^(p^(m-1))."""
        return self ** (self.field.p ** (self.field.m - 1))

    def __eq__(self, other):
        return (
            isinstance(other, ExtFieldElem)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __repr__(self):
        return f"ExtFieldElem({self.value!r} mod {self.field.modulus!r})"

    def __str__(self):
        return str(self.value)


class ExtPoly:
    """Dense polynomial in y over an ExtField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs=()):
        cs = [field.elem(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("ExtPoly is immutable")

    @classmethod
    def y(cls, field: ExtField) -> "ExtPoly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> ExtFieldElem:
        return self.coeffs[-1] if self.coeffs else self.field.zero

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def _check(self, other: "ExtPoly"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "ExtPoly") -> "ExtPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ExtPoly(self.field, out)

    def __neg__(self) -> "ExtPoly":
        return ExtPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "ExtPoly") -> "ExtPoly":
        return self + (-other)

    def __mul__(self, other: "ExtPoly") -> "ExtPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return ExtPoly(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return ExtPoly(self.field, out)

    def scale(self, c: ExtFieldElem) -> "ExtPoly":
        c = self.field.elem(c)
        return ExtPoly(self.field, [c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "ExtPoly":
        if n < 0:
            raise ValueError("negative exponent")
        result = ExtPoly(self.field, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "ExtPoly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        inv = other.lead.inverse()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ExtPoly(self.field), self
        zero = self.field.zero
        quo = [zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv
            if not c.is_zero:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return ExtPoly(self.field, quo), ExtPoly(self.field, rem[: other.degree])

    def __floordiv__(self, other: "ExtPoly") -> "ExtPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "ExtPoly") -> "ExtPoly":
        return divmod(self, other)[1]

    def monic(self) -> "ExtPoly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.lead.inverse())

    def gcd(self, other: "ExtPoly") -> "ExtPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "ExtPoly":
        p = self.field.p
        out = []
        for i, c in enumerate(self.coeffs):
            if i:
                out.append(c * self.field.elem(i % p))
        return ExtPoly(self.field, out)

    def pow_mod(self, n: int, modulus: "ExtPoly") -> "ExtPoly":
        if n < 0:
            raise ValueError("negative exponent")
        result = ExtPoly(self.field, (1,)) % modulus
        base = self % modulus
        while n:
            if n & 1:
                result = result * base % modulus
            base = base * base % modulus
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, ExtPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self):
        return f"ExtPoly({self.field!r}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs)
                continue
            ypow = "y" if i == 1 else f"y^{i}"
            if cs == "1":
                terms.append(ypow)
            elif c.value.degree > 0:
                terms.append(f"({cs})*{ypow}")
            else:
                terms.append(f"{cs}{ypow}")
        return " + ".join(terms)


def ext_is_irreducible(g: ExtPoly) -> bool:
    """Rabin's irreducibility test over F_q, q = p^m.

    Checks y^(q^n) = y mod g and gcd(y^(q^(n/ell)) - y, g) = 1 for every
    prime ell dividing n = deg g.
    """
    n = g.degree
    if n < 1:
        raise ValueError("irreducibility requires degree >= 1")
    if n == 1:
        return True
    field = g.field
    g = g.monic()
    y = ExtPoly.y(field)
    powers = [y % g]
    for _ in range(n):
        powers.append(powers[-1].pow_mod(field.q, g))
    if powers[n] != y % g:
        return False
    for ell in _prime_factors(n):
        if g.gcd(powers[n // ell] - y).degree != 0:
            return False
    return True


def _ext_squarefree_parts(g: ExtPoly) -> list[tuple[ExtPoly, int]]:
    """(monic squarefree part, multiplicity) pairs over F_q, characteristic p."""
    field = g.field
    p = field.p
    parts = []
    n = 1
    while g.degree > 0:
        deriv = g.derivative()
        if not deriv.is_zero:
            w = g.gcd(deriv)
            h = g // w
            i = 1
            while h.degree > 0:
                step = w.gcd(h)
                quotient = h // step
                if quotient.degree > 0:
                    parts.append((quotient, i * n))
                w, h, i = w // step, step, i + 1
            if w.degree == 0:
                return parts
            g = w
        # g is a perfect p-th power; invert Frobenius on each kept coefficient
        g = ExtPoly(field, [c.frobenius_inv() for c in g.coeffs[::p]])
        n *= p
    return parts


def _ext_distinct_degree(g: ExtPoly) -> list[tuple[ExtPoly, int]]:
    field = g.field
    y = ExtPoly.y(field)
    out = []
    h = y % g
    e = 1
    while g.degree >= 2 * e:
        h = h.pow_mod(field.q, g)
        w = g.gcd(h - y)
        if w.degree > 0:
            out.append((w, e))
            g = g // w
            h = h % g
        e += 1
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def ext_count_irreducible_factors(g: ExtPoly) -> int:
    """Number of monic irreducible factors of g over F_q, with multiplicity.

    The count comes from squarefree decomposition plus distinct-degree
    splitting, so it is fully deterministic.
    """
    if g.degree < 1:
        raise ValueError("factor counting requires degree >= 1")
    total = 0
    for part, mult in _ext_squarefree_parts(g.monic()):
        for prod, e in _ext_distinct_degree(part):
            total += mult * (prod.degree // e)
    return total
