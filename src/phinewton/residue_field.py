"""Dense polynomials over F_p and its simple extensions F_p[x]/(phibar).

One class, FqPoly, serves every finite field.  Its field is either a
PrimeField (built from a prime p) or an ExtField F_p[x]/(phibar) for a
monic irreducible phibar.  All three, and the FactorizationFp record,
subclass collections.namedtuple, and so are immutable, equal and hashed as
tuples; each of the three checks its arguments in __new__ as a
constructor would.  Both field types offer the same small interface: p,
m, q = p^m, a `modulus` that reduces an element with `%`, `zero`, `one`,
`elem(value)`, `inv(a)` and `pth_root(a)`.

* Over F_p the modulus is the int p, and elements are plain ints in [0, p).
* Over F_phi the modulus is phibar, an FqPoly over F_p, and elements are
  FqPolys over F_p of degree < deg phibar.

Every coefficient loop therefore uses native operators only: products
accumulate unreduced and each output coefficient is reduced once with
`% modulus`.  Polynomials are coefficient tuples in ascending degree order
with no trailing zeros.  Extension fields are taken in the presentation the
caller fixes, with no canonical-model normalization, so residue classes stay
auditable against the inputs that produced them.

Factor degrees (squarefree decomposition plus distinct-degree splitting)
come out over any of these fields and are also the irreducibility test: a
polynomial of degree >= 1 is irreducible iff it has one factor.  Complete
factorization adds Cantor-Zassenhaus equal-degree splitting over F_p only;
it draws from a fixed PRNG, and its result is sorted canonically.

Arithmetic modulo a polynomial f goes through one _Modulus(f), which
decides once whether its products are packed into int multiplies or run
through the coefficient loops, and which owns x^q mod f (`xq`) and the
q-power (Frobenius) map (`qmap`), each computed on first use.  The map
applies the table T[i] = x^(i*q) mod f: h^q = sum h_i T[i], because every
coefficient h_i of h is fixed by Frobenius.  Packed, the table comes from
the linear map T[i] = sum_j T[i-1]_j x^j x^q mod f, one multiply-add sum
per row; otherwise from xq and deg f - 2 products.  fp_factorize builds one
_Modulus per squarefree part, and both splits share it: the distinct-degree
split reads xq and qmap and takes its block products there, and
Cantor-Zassenhaus sums its traces T = r + r^p + ... + r^(p^(e-1)) through
the same qmap, for every p.  Modulo each factor f_i of degree e, T is the
constant c_i = Tr(r mod f_i) in F_p: at p = 2, gcd(f, T) splits f; on two
factors f1 f2, T^2 = (c1 + c2) T - c1 c2 mod f, and gcd(f, T - c1) splits f
at a root of that quadratic with no power at all (Berlekamp, 1970).  Each
product that Cantor-Zassenhaus splits gets a _Modulus of its own for its
products (the square of T on two factors, and T^((p-1)/2) on more); the
public pow_mod builds its own.  ExtField.pth_root, a power mod phibar, keeps
the loops product and builds none.  Every power, IntPoly's included, is the
one left-to-right square-and-multiply _power, every schoolbook product
the one _product, and every long division, over Z, F_p and F_phi alike,
the one _divide.  gcd is Euclid on `%`: a division by a divisor that is
not monic scales only its quotient terms by the inverse of the leading
coefficient, and the last nonzero remainder is made monic once;
ExtField.inv runs Euclid on (phibar, a) and keeps only a's cofactor.

Where the products are packed, the distinct-degree split takes one gcd
per block of l = isqrt(deg f // 2) consecutive degrees e: the gcd of the
rest of f with prod (h_e - x) over the block holds every factor whose degree
lies in the block, and only a nontrivial block gcd is split again, degree by
degree; a part of degree below 2e is one irreducible and needs no gcd.
Where they run through the loops, a block product costs more than the gcds
it saves, so each degree keeps its own.

No field is cached: fields are built per request and passed to the code
that uses them.  ExtField(phibar) checks phibar in full, its factor degrees
included; the factors of fp_factorize, which are irreducible by
construction, get their fields from FactorizationFp.fields without a test.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import struct
from collections import namedtuple
from itertools import zip_longest


def _term_str(coeff: str, power: int, var: str) -> str:
    if power == 0:
        return coeff
    xpow = var if power == 1 else f"{var}^{power}"
    return xpow if coeff == "1" else f"{coeff}{xpow}"


class PrimeField(namedtuple("PrimeField", "p m q modulus zero one")):
    """F_p with elements the ints 0..p-1."""

    __slots__ = ()

    def __new__(cls, p: int):
        if p < 2:
            raise ValueError("modulus must be >= 2")
        return tuple.__new__(cls, (p, 1, p, p, 0, 1))

    def __getnewargs__(self):  # a copy is rebuilt through __new__
        return (self.p,)

    def elem(self, value: int) -> int:
        return value % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def pth_root(self, a: int) -> int:
        return a

    def __repr__(self):
        return f"PrimeField({self.p})"


class FqPoly(namedtuple("FqPoly", "field coeffs")):
    """Dense polynomial over a PrimeField or an ExtField.

    `FqPoly(p, coeffs)` builds a polynomial over F_p; `FqPoly(field, coeffs)`
    one over an ExtField, whose coefficients may be ints, F_p coefficient
    lists or FqPolys over F_p.
    """

    __slots__ = ()

    def __new__(cls, field, coeffs=()):
        if isinstance(field, int):
            field = PrimeField(field)
        return _poly(field, [field.elem(c) for c in coeffs])

    @classmethod
    def x(cls, field) -> "FqPoly":
        """The polynomial variable (printed x over F_p, y over F_phi)."""
        return cls(field, (0, 1))

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):  # a tuple of two is always true
        return bool(self.coeffs)

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def _check(self, other: "FqPoly"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        mod, zero = self.field.modulus, self.field.zero
        return _poly(self.field, [(a + b) % mod for a, b in
                                  zip_longest(self.coeffs, other.coeffs, fillvalue=zero)])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        mod, zero = self.field.modulus, self.field.zero
        return _poly(self.field, [(a - b) % mod for a, b in
                                  zip_longest(self.coeffs, other.coeffs, fillvalue=zero)])

    def __neg__(self) -> "FqPoly":
        mod = self.field.modulus
        return _poly(self.field, [-c % mod for c in self.coeffs])

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        field = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(field, [])
        mod = field.modulus
        return _poly(field, [c % mod for c in _product(a, b, field.zero)])

    def __rmul__(self, other):
        # Returning NotImplemented would let `2 * f` repeat the tuple.
        raise TypeError(f"unsupported operand type(s) for *: "
                        f"'{type(other).__name__}' and 'FqPoly'")

    def scale(self, c) -> "FqPoly":
        """Multiply by the field element c."""
        mod = self.field.modulus
        return _poly(self.field, [c * a % mod for a in self.coeffs])

    def __pow__(self, n: int) -> "FqPoly":
        return _power(self, n, FqPoly.__mul__, _poly(self.field, [self.field.one]))

    def __divmod__(self, other: "FqPoly"):
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        field, bs = self.field, other.coeffs
        if len(self.coeffs) < len(bs):
            return _poly(field, []), self
        mod = field.modulus
        inv = None if bs[-1] == field.one else field.inv(bs[-1])
        rem = list(self.coeffs)
        quo = _divide(rem, bs[:-1], field.zero, mod, inv)
        return _poly(field, quo), _poly(field, [c % mod for c in rem[:len(bs) - 1]])

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FqPoly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.lead))

    def gcd(self, other: "FqPoly") -> "FqPoly":
        """The monic gcd, by Euclid on `%`: each step divides by the last
        remainder as it stands, scaling only the quotient terms by the
        inverse of its leading coefficient, and the last nonzero remainder
        is made monic once."""
        self._check(other)
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "FqPoly":
        field = self.field
        mod = field.modulus
        return _poly(field, [c * field.elem(i) % mod
                             for i, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, n: int, modulus: "FqPoly") -> "FqPoly":
        """self^n mod modulus by square-and-multiply, with the products of
        one _Modulus(modulus)."""
        one = _poly(self.field, [self.field.one])
        return _power(self % modulus, n, _Modulus(modulus).mulmod, one % modulus)

    def __repr__(self):
        return f"FqPoly({self.field!r}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        var = "x" if isinstance(self.field, PrimeField) else "y"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c:
                cs = str(c)
                if i and not isinstance(c, int) and c.degree > 0:
                    cs = f"({cs})*"
                terms.append(_term_str(cs, i, var))
        return " + ".join(terms)


def _poly(field, cs: list) -> FqPoly:
    """FqPoly from already reduced coefficients, trailing zeros stripped."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple.__new__(FqPoly, (field, tuple(cs)))


def _product(a, b, zero) -> list:
    """The schoolbook product of the nonempty coefficient sequences a and b,
    unreduced, with zero the ring's zero."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _divide(rem: list, low, zero, mod=None, inv=None) -> list:
    """Long division of the coefficient list rem by a divisor whose
    coefficients below the leading one are low: returns the quotient and
    leaves the remainder in rem[:len(low)], unreduced.

    Over Z (mod None) the divisor is monic and each quotient term is the
    top coefficient itself.  Over a field, the top coefficient is reduced
    by mod, once, when it is read, and, for a divisor that is not monic,
    scaled by inv, the inverse of its leading coefficient.  A rem shorter
    than the divisor gives the empty quotient and stays as it is.
    """
    db = len(low)
    quo = [zero] * (len(rem) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if mod is not None:
            c %= mod
            if inv is not None:
                c = c * inv % mod
        if c:
            quo[k] = c
            for j, b in enumerate(low):
                rem[k + j] -= c * b
    return quo


def _power(base, n: int, mul, one):
    """base^n by left-to-right square-and-multiply, for the product mul with
    unit one.

    base and one come already reduced for mul (mod f, say).  After the
    leading bit of n, each further bit costs one square and, when it is set,
    one product by base itself: bit_length(n) - 1 squares and popcount(n) - 1
    products, and one is returned only for n = 0.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if not n:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def _pack(coeffs) -> int:
    return int.from_bytes(struct.pack(f"<{len(coeffs)}Q", *coeffs), "little")


def _unpack(slots: struct.Struct, p: int, packed: int) -> list:
    """The coefficients in the slots of packed, each reduced mod p."""
    return [c % p for c in slots.unpack(packed.to_bytes(slots.size, "little"))]


class _Modulus:
    """Arithmetic modulo a polynomial f: products of reduced polynomials,
    x^q mod f (`xq`) and the q-power (Frobenius) map (`qmap`).  It owns
    both: each is computed on first use and kept, so no caller has to build
    them, or know whether another caller has.  The map refers to its table
    and not to the _Modulus, which is freed, with no cycle, once dropped.

    The constructor alone decides whether the products are `packed`: they
    are exactly when f is monic of degree n >= 1 over a PrimeField and
    2 n (p-1)^2 < 2^64, which holds for every p up to 65521 at every degree
    up to 10,000.  Otherwise (over an ExtField, for a constant or non-monic
    f, and past that slot bound) a product is __mul__ then __divmod__, and
    the Frobenius map runs through the coefficient loops.

    Packed, a reduced polynomial is one int with one 64-bit slot per
    coefficient, little-endian through struct, so the packing does not
    depend on the host's byte order, and one int multiply forms every
    coefficient of a product at once (Kronecker substitution).  Each high
    coefficient c_i, i >= n, is reduced mod p and folded back in as one
    multiply-add c_i * R[i] over the packed rows R[i] = x^i mod f,
    n <= i <= 2n - 2, each x times the last (_x_multiples, which also gives
    the rows of the Frobenius table's linear map).  The result is unpacked
    once and each slot reduced mod p.  A slot of the folded sum is at most
    n (p-1)^2 + (n-1) (p-1)^2, so the bound keeps every slot from carrying
    into the next.
    """

    def __init__(self, f: FqPoly):
        field, n = f.field, f.degree
        self.f, self.field, self.n = f, field, n
        self.packed = (isinstance(field, PrimeField) and n >= 1 and f.is_monic
                       and 2 * n * (field.p - 1) ** 2 < 1 << 64)
        if self.packed:
            self.low = [-c % field.p for c in f.coeffs[:n]]  # x^n mod f
            self.rows = self._x_multiples(self.low, n - 2)
            self._slots = struct.Struct(f"<{n}Q")

    def _x_multiples(self, row: list, count: int) -> list[int]:
        """The packed x^i * row mod f, 0 <= i <= count, for a coefficient
        list row of length n: each is x times the last, its top coefficient
        folded back in as a multiple of x^n mod f."""
        p, low, rows = self.field.p, self.low, [row]
        for _ in range(count):
            top, shifted = rows[-1][-1], [0, *rows[-1][:-1]]
            rows.append([(a + top * b) % p for a, b in zip(shifted, low)]
                        if top else shifted)
        return [_pack(r) for r in rows]

    def mulmod(self, a: FqPoly, b: FqPoly) -> FqPoly:
        """a * b mod f for a and b reduced mod f."""
        if not self.packed:
            return a * b % self.f
        a_packed = _pack(a.coeffs)
        product = a_packed * (a_packed if a is b else _pack(b.coeffs))
        n, high = self.n, len(a.coeffs) + len(b.coeffs) - 1 - self.n
        if high > 0:
            p = self.field.p
            top = (product >> 64 * n).to_bytes(8 * high, "little")
            product &= (1 << 64 * n) - 1
            for c, row in zip(struct.unpack(f"<{high}Q", top), self.rows):
                c %= p
                if c:
                    product += c * row
        return _poly(self.field, _unpack(self._slots, self.field.p, product))

    @functools.cached_property
    def xq(self) -> FqPoly:
        """x^q mod f, by one power of x mod f."""
        field = self.field
        return _power(FqPoly.x(field) % self.f, field.q, self.mulmod,
                      _poly(field, [field.one]))

    @functools.cached_property
    def qmap(self):
        """The q-power map h -> h^q mod f on h reduced mod f.

        Every coefficient c of h lies in F_q, so c^q = c and h^q = sum c_i T[i]
        over the table T[i] = x^(i*q) mod f, 0 <= i < deg f: the rows of
        Berlekamp's Q-matrix.  Unpacked, the table comes from self.xq and
        deg f - 2 products.  Packed, it comes from the linear map
        T[i] = sum_j T[i-1]_j W[j] over the packed rows W[j] = x^j * x^q mod f,
        one multiply-add sum per row, and the map is one multiply-add sum per
        coefficient over the packed table; each slot stays below n (p-1)^2.
        The map holds no reference to self, so no cycle keeps self alive.
        """
        field, n, xq = self.field, self.n, self.xq
        if self.packed:
            p, slots = field.p, self._slots
            row = list(xq.coeffs) + [0] * (n - len(xq.coeffs))
            shifts = self._x_multiples(row, n - 1)
            table = [1, shifts[0]][:n]  # T[0] = 1 and T[1] = x^q, packed
            for _ in range(n - 2):
                row = _unpack(slots, p, sum(map(operator.mul, row, shifts)))
                table.append(_pack(row))
            return lambda h: _poly(
                field, _unpack(slots, p, sum(map(operator.mul, h.coeffs, table))))
        table = [_poly(field, [field.one]), xq]
        while len(table) < n:
            table.append(self.mulmod(table[-1], xq))
        table = table[:n]
        mod = field.modulus

        def qmap(h: FqPoly) -> FqPoly:
            out = [field.zero] * n
            for c, row in zip(h.coeffs, table):
                if c:
                    for j, d in enumerate(row.coeffs):
                        out[j] += c * d
            return _poly(field, [c % mod for c in out])
        return qmap


class ExtField(namedtuple("ExtField", "p m q modulus zero one")):
    """The extension field F_p[x]/(phibar) for a monic irreducible phibar.

    Elements are FqPolys over F_p reduced modulo phibar.
    """

    __slots__ = ()

    def __new__(cls, modulus: FqPoly):
        if not isinstance(modulus.field, PrimeField):
            raise ValueError("modulus must be a polynomial over a prime field")
        if not modulus.is_monic or modulus.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if factor_degrees(modulus) != ((modulus.degree, 1),):
            raise ValueError(f"modulus {modulus} is reducible over F_{modulus.p}")
        return cls._proven(modulus)

    def __getnewargs__(self):  # a copy is rebuilt, and checked, by __new__
        return (self.modulus,)

    @classmethod
    def _proven(cls, modulus: FqPoly) -> "ExtField":
        """The field of a modulus already proven monic irreducible; no test."""
        p, m = modulus.p, modulus.degree
        return tuple.__new__(cls, (p, m, p**m, modulus, _poly(modulus.field, []),
                                   _poly(modulus.field, [1])))

    def elem(self, value) -> FqPoly:
        """The reduced element for an int, an F_p coefficient list or an FqPoly."""
        if isinstance(value, int):
            value = FqPoly(self.modulus.field, (value,))
        elif not isinstance(value, FqPoly):
            value = FqPoly(self.modulus.field, value)
        return value % self.modulus

    def inv(self, a: FqPoly) -> FqPoly:
        """1/a for a reduced a, by Euclid on (phibar, a) keeping only a's
        cofactor t: t a = r mod phibar for each remainder r, and the last
        nonzero r is a constant c, so 1/a = t / c, of degree < deg phibar."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        r0, r1, t0, t1 = self.modulus, a, self.zero, self.one
        while r1:
            q, r = divmod(r0, r1)
            r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
        return t0.scale(self.modulus.field.inv(r0.lead))

    def pth_root(self, a: FqPoly) -> FqPoly:
        """The unique p-th root: a^(p^(m-1)), by the loops product, so no
        packed _Modulus of the modulus is built per call."""
        modulus = self.modulus
        return _power(a, self.p ** (self.m - 1), lambda b, c: b * c % modulus, self.one)

    def __repr__(self):
        return f"ExtField(F_{self.p}[x]/({self.modulus}))"


def _squarefree_parts(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Split monic f into (monic squarefree part, multiplicity) pairs."""
    field = f.field
    parts = []
    n = 1
    while f.degree > 0:
        deriv = f.derivative()
        if deriv:
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
        # f is a perfect p-th power; take the p-th root of each kept coefficient
        f = _poly(field, [field.pth_root(c) for c in f.coeffs[::field.p]])
        n *= field.p
    return parts


def _distinct_degree(f: FqPoly, mod: _Modulus | None = None) -> list[tuple[FqPoly, int]]:
    """Split monic squarefree f into (product of degree-e irreducibles, e),
    e ascending, with mod = _Modulus(f) (built here if not given).

    h_e = x^(q^e) stays reduced modulo the undivided f, so mod's own x^q
    (mod.xq) is h_1 and mod's q-power map (mod.qmap) takes each h_e to the
    next; mod builds both on first use.  The degrees go in blocks, of
    isqrt(deg f // 2) where products mod f are packed and of 1 where they
    are not: one gcd with prod (h_e - x) over the block takes out every
    factor of a degree in the block, and only a nontrivial gcd is split
    again, degree by degree.
    """
    if f.degree < 2:
        return [(f, 1)] if f.degree == 1 else []
    x = FqPoly.x(f.field)
    mod = mod or _Modulus(f)
    size = math.isqrt(f.degree // 2) if mod.packed else 1
    out = []
    e = 1
    while f.degree >= 2 * e:
        block = range(e, min(e + size, f.degree // 2 + 1))
        diffs = []
        for d in block:
            h = mod.xq if d == 1 else mod.qmap(h)
            diffs.append(h - x)
        g = f.gcd(functools.reduce(mod.mulmod, diffs))
        if g.degree > 0:
            f = f // g
            # every factor of g has its degree in the block and none below d
            for d, diff in zip(block, diffs):
                if g.degree < 2 * d:  # at most one irreducible, of degree deg g
                    if g.degree > 0:
                        out.append((g, g.degree))
                    break
                if d == block[-1]:  # every factor left has degree d
                    out.append((g, d))
                    break
                split = g.gcd(diff)
                if split.degree > 0:
                    out.append((split, d))
                    g = g // split
        e = block[-1] + 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def factor_degrees(g: FqPoly) -> tuple[tuple[int, int], ...]:
    """The degrees of the monic irreducible factors of g, as pairs (d, a):
    a factors of degree d, counted with multiplicity, one pair per
    squarefree part and degree; g is irreducible iff they are ((deg g, 1),).

    The pairs come from squarefree decomposition plus distinct-degree
    splitting, so they are fully deterministic.  A linear g is ((1, 1),),
    with no split and no field inversion.  Over a degree-1 field
    F_p[x]/(x - a), which is F_p, each element is its constant term, and g
    is split as that image over F_p, where products can be packed.
    """
    if g.degree < 1:
        raise ValueError("factor counting requires degree >= 1")
    if g.degree == 1:
        return ((1, 1),)
    field = g.field
    if isinstance(field, ExtField) and field.m == 1:
        g = _poly(field.modulus.field, [c.coeffs[0] if c else 0 for c in g.coeffs])
    return tuple((e, mult * (prod.degree // e))
                 for part, mult in _squarefree_parts(g.monic())
                 for prod, e in _distinct_degree(part))


class FactorizationFp(namedtuple("FactorizationFp", "factors unit p")):
    """Complete factorization over F_p: unit * prod(factor^multiplicity),
    with `factors` the pairs ((FqPoly, int), ...), monic irreducible and
    canonically sorted, and the ints `unit` and `p`."""

    __slots__ = ()

    @property
    def factor_count(self) -> int:
        """Number of irreducible factors counted with multiplicity."""
        return sum(k for _, k in self.factors)

    @property
    def fields(self) -> tuple:
        """F_p[x]/(g) for each factor g, in order, built anew on each access
        and without a test: each factor is irreducible by construction."""
        return tuple(ExtField._proven(g) for g, _ in self.factors)


# A product of degree-e irreducibles splits with probability about 1/2 per
# draw, so 64 draws that all fail mean f is not such a product.
_MAX_DRAWS = 64


def _equal_degree(f: FqPoly, e: int, rng: random.Random, part: _Modulus) -> list[FqPoly]:
    """Cantor-Zassenhaus split of a monic product f of degree-e irreducibles,
    for part the _Modulus of any multiple of f.

    Each draw r gives the trace T = r + r^p + ... + r^(p^(e-1)), a sum of
    e - 1 applications of part.qmap, the q-power map that part builds on
    first use (von zur Gathen & Shoup, 1992), reduced mod f once.  Modulo
    each factor f_i, T is the constant c_i = Tr(r mod f_i) in F_p, so the
    draw needs no product mod f to form it.  At p = 2, gcd(f, T) splits the
    factors with c_i = 0 from those with c_i = 1.  For odd p, two factors
    (deg f = 2e) split at a root of T's quadratic with one square and no
    power (_quadratic_split), and three or more by gcd(f, T^((p-1)/2) - 1),
    which holds the factors whose c_i is a nonzero square.  Raises
    RuntimeError when _MAX_DRAWS draws in a row fail to split f.
    """
    n = f.degree
    if n == e:
        return [f]
    field, p = f.field, f.p
    one = _poly(field, [1])
    mul = _Modulus(f).mulmod
    for _ in range(_MAX_DRAWS):
        # deg r < 2e <= n, so r is reduced mod f and mod part
        t = trace = _poly(field, [rng.randrange(p) for _ in range(2 * e)])
        for _ in range(e - 1):
            t = part.qmap(t)
            trace = trace + t
        trace = trace % f
        if p == 2:
            g = f.gcd(trace)
        elif n == 2 * e:
            g = _quadratic_split(f, trace, mul(trace, trace))
        else:
            g = f.gcd(_power(trace, (p - 1) // 2, mul, one) - one)
        if 0 < g.degree < n:
            return _equal_degree(g, e, rng, part) + _equal_degree(f // g, e, rng, part)
    raise RuntimeError(f"no split of degree {n} into degree-{e} factors "
                       f"in {_MAX_DRAWS} draws")


def _quadratic_split(f: FqPoly, trace: FqPoly, square: FqPoly) -> FqPoly:
    """gcd(f, T - c1) for f = f1 f2, the trace T = trace mod f and square =
    T^2 mod f, with c1 a root of T's quadratic; f itself when there is none.

    T is c_i mod f_i, so (T - c1)(T - c2) = 0 mod f: T^2 = s T - t with
    s = c1 + c2 and t = c1 c2, read off the top (degree d = deg T) and the
    constant coefficients, and c1 = (s + sqrt(s^2 - 4t)) / 2.  A constant T
    (c1 = c2) or a discriminant that is zero or no square refuses the draw.
    """
    p, cs, d = f.p, trace.coeffs, trace.degree
    if d < 1:
        return f
    sq = square.coeffs + (0,) * (d + 1 - len(square.coeffs))
    s = sq[d] * pow(cs[d], -1, p) % p
    root = _sqrt_mod(s * s - 4 * (s * cs[0] - sq[0]), p)
    if not root:
        return f
    c1 = (s + root) * ((p + 1) // 2)
    return f.gcd(_poly(f.field, [(cs[0] - c1) % p, *cs[1:]]))


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, None when a is no square, by
    Tonelli-Shanks.  For p = 3 mod 4 (s = 1) the loop never runs and the
    root is a^((p+1)/4)."""
    a %= p
    if pow(a, (p - 1) // 2, p) > 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s, q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:  # t has order 2^i, 0 < i < s
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


def fp_factorize(f: FqPoly) -> FactorizationFp:
    """Complete factorization of a nonzero polynomial over F_p.

    Deterministic: the equal-degree stage draws from random.Random(0), and
    factors are returned in a canonical order (degree, then coefficient
    tuple), which no other draw would change.

    Each factor is irreducible by construction: the distinct-degree split and
    Cantor-Zassenhaus stop only at degree e.  So the result's `fields` are
    built without a second test.
    """
    if not isinstance(f.field, PrimeField):
        raise ValueError("complete factorization needs a prime field")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(0)
    factors = []
    for part, mult in _squarefree_parts(f.monic()):
        mod = _Modulus(part)
        for prod, e in _distinct_degree(part, mod):
            for irr in _equal_degree(prod, e, rng, mod):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return FactorizationFp(tuple(factors), f.lead, f.p)
