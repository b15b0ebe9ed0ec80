"""The p-adic valuation on Z, and primality checking.

nu_p is normalized (nu_p(p) = 1).  Everything here is exact: valuations are
non-negative integers or INFINITY, slopes elsewhere are pairs of integers,
and there is no floating point anywhere.

The private `_split` gives, for nonzero x, both nu_p(x) and the unit
(x / p^nu) mod p from one pass over x, which `polyring.phi_expand` keeps
for every expansion coefficient; `valuation` reads its first part.  For an
odd p, a run of 32 or more factors costs one division, of linear cost, by
the largest power of p that the size of x allows; a short ascent and the
top-down descent (`_descend`) handle what that division leaves.

`is_prime` is a proof of primality below 3,317,044,064,679,887,385,961,981
and refuses larger numbers.
"""

from __future__ import annotations

from typing import Union


class _Infinity:
    """Valuation of zero; callers test it with `is INFINITY`."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

# A valuation value: a non-negative integer, or INFINITY for the zero element.
ExtInt = Union[int, _Infinity]


# Miller-Rabin with the 13 primes up to 41 as bases is a proof of primality
# below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Proven primality for n below 3,317,044,064,679,887,385,961,981.

    Trial division by the 13 primes up to 41, then Miller-Rabin to those
    13 bases, which no composite below the bound passes.  At or above the
    bound raises ValueError: fixed bases prove nothing there, and
    composites built to pass every base below 100 exist (Arnault, Math.
    Comp. 64, 1995).
    """
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(
            f"{n} is too large: primality is proven only below {_MR_DETERMINISTIC_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    return all(_miller_rabin(n, b) for b in _MR_BASES)


# The descent tests P_5 = p^32 first: a run of fewer than 32 factors of p
# then costs one division by it, linear in the size of x.
_PROBE_LEVEL = 5

# A longer run climbs the ladder from P_6 only while P_i has at most 1/16
# of the bits of x: each step costs a division of x by P_i, and past that
# the descent from the top is cheaper.  Ratios from 8 to 32 timed alike on
# expansions whose coefficients are sums of powers of 3 or 7 of up to 30,000
# bits.
_ASCENT_RATIO = 16


def _rung(ladder: list[int], i: int) -> int:
    """P_i = p^(2^i), squaring the shared ladder up to it as needed."""
    while len(ladder) <= i:
        ladder.append(ladder[-1] * ladder[-1])
    return ladder[i]


def _descend(x: int, p: int, ladder: list[int]) -> tuple[int, int]:
    """(nu_p(x), (x / p^nu) mod p) for nonzero x and odd p.

    `ladder` holds P_i = p^(2^i) for i = 0, 1, ... and is squared up as
    needed (`_rung`).  If P_5 does not divide x, the descent below starts
    at level 4 from x mod P_5.  Otherwise three exact stages follow:

    1. Bit lengths prove p^m <= |x| for m = (bits(x) - 1) * 64 //
       bits(P_6), since P_6 = p^64 has more than 64 log2 p bits; m falls
       short of log_p |x| by under 1% plus two.  Squaring up p^m costs a
       few Karatsuba products, and one division by it leaves a quotient q
       of that 1% of the bits, so it costs linear time.  If it is exact,
       nu_p(x) = m + nu_p(q), and q takes the same path.
    2. Otherwise nu_p(x) < m, and the remainder r keeps both the valuation
       and the unit mod p.  The ascent tries P_6, P_7, ... on r while P_i
       has at most 1/16 of its bits (`_ASCENT_RATIO`); at the first P_i
       that does not divide r, nu_p(r) < 2^i, and the descent starts at
       level i - 1 from the small r mod P_i.
    3. Past that bound, the descent starts on r from the top P_k with
       P_k^2 > |r|, which costs about a third of a schoolbook division of
       r by its square root.

    The descent: from a level k with nu_p(x) < 2^(k+1) down to 0, x
    becomes x / P_i where P_i divides it, adding 2^i, and x mod P_i where
    it does not.  In the second case nu_p(x) < 2^i, the exponent of P_i,
    so the remainder keeps both the valuation and the unit mod p.  Either
    way |x| < P_i afterwards: each level divides a number of at most twice
    its divisor's size, and the sizes halve on the way down.  A level whose
    P_i exceeds |x| cannot divide it and is skipped, so a ladder shared
    with larger numbers costs nothing extra.
    """
    r = x % _rung(ladder, _PROBE_LEVEL)
    if r:
        x, top = r, _PROBE_LEVEL - 1
    else:
        top = _PROBE_LEVEL + 1
        m = ((x.bit_length() - 1) << top) // _rung(ladder, top).bit_length()
        q, x = divmod(x, p**m)
        if not x:
            v, unit = _descend(q, p, ladder)
            return m + v, unit
        bits = x.bit_length()
        while _rung(ladder, top).bit_length() * _ASCENT_RATIO <= bits:
            r = x % ladder[top]
            if r:
                x, top = r, top - 1
                break
            top += 1
        else:
            while 2 * _rung(ladder, top).bit_length() - 2 < bits:  # until P_k^2 > |x|
                top += 1
    v = 0
    for i in range(top, -1, -1):
        pk = ladder[i]
        if pk.bit_length() > x.bit_length():
            continue  # pk > |x|
        q, r = divmod(x, pk)
        if r:
            x = r
        else:
            x = q
            v += 1 << i
    return v, x % p


def _split(x: int, p: int, ladder: list[int]) -> tuple[int, int]:
    """(nu_p(x), (x / p^nu) mod p) for nonzero x: the valuation and the unit
    mod p, in one pass over x.

    Nearly every call has valuation 0 or 1, and one remainder test each
    settles those without touching the `ladder`; without them, a large p
    would square the ladder up to p^32 for its first call.  Past them, a
    run of 2s is read from the lowest set bit (the unit mod 2 is 1), and a
    run of odd p goes to `_descend`: one division by p^32, then, for a
    longer run, one division of linear cost by the largest power of p that
    the size of x allows, a short ascent of the shared ladder of p^(2^i),
    and the top-down descent only when neither settles it.
    """
    r = x % p
    if r:
        return 0, r
    x //= p
    r = x % p
    if r:
        return 1, r
    x //= p
    if p == 2:
        return 1 + (x & -x).bit_length(), 1  # 2 + index of the lowest set bit
    v, unit = _descend(x, p, ladder)
    return 2 + v, unit


def valuation(x: int, p: int) -> ExtInt:
    """Exact exponent of the prime p in x; INFINITY iff x = 0.

    The number of big-integer divisions grows with log nu_p(x), not with
    nu_p(x).  A run of 32 or more odd p costs p^m, for the largest m that
    the size of x allows, and one division by it with a small quotient.
    That settles x = p^nu times a unit of under 1% of its bits, and a short
    ascent settles a run shorter than 2^i when p^(2^i) has at most 1/16 of
    the bits of x; only past both does the descent divide numbers that
    halve in size from level to level (see `_split` and `_descend`).
    """
    if x == 0:
        return INFINITY
    return _split(x, p, [p])[0]
