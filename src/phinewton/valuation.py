"""The p-adic valuation on Z, and primality checking.

nu_p is normalized (nu_p(p) = 1).  Everything here is exact: valuations are
non-negative integers or INFINITY, slopes elsewhere are
`fractions.Fraction`, and there is no floating point anywhere.
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


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Miller-Rabin with these bases is a proven primality test below this bound.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
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
    """Primality check.

    Deterministic (trial division, then fixed-base Miller-Rabin) for all
    n below ~3.3e24; above that the same test runs on the 25 prime bases
    below 100, which is probabilistic, not a proof of primality.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES
    else:
        bases = _SMALL_PRIMES
    return all(_miller_rabin(n, b) for b in bases)


def _strip_powers(x: int, p: int) -> int:
    """nu_p(x) for nonzero x, in O(log nu_p(x)) divisions.

    Strip p, p^2, p^4, ... while each divides; what is left has valuation
    below the next power's exponent, so each power met on the way back down
    divides at most once, adding its exponent 2^i.
    """
    powers = []
    v = 0
    pk = p
    while True:
        q, r = divmod(x, pk)
        if r:
            break
        x = q
        v += 1 << len(powers)
        powers.append(pk)
        if 2 * pk.bit_length() - 1 > x.bit_length():
            break  # pk^2 > |x|, so it cannot divide x
        pk *= pk
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(x, powers[i])
        if not r:
            x = q
            v += 1 << i
    return v


def valuation(x: int, p: int) -> ExtInt:
    """Exact exponent of the prime p in x; INFINITY iff x = 0.

    The number of big-integer divisions grows with log nu_p(x), not with
    nu_p(x): past the first four factors, a run of 2s is read from the
    lowest set bit, and a run of odd p is stripped in blocks p^(2^i) (see
    `_strip_powers`).
    """
    if x == 0:
        return INFINITY
    # Nearly every call has valuation 0-3.  Peeling those factors one at a
    # time, unrolled, costs no more per call than a plain loop.
    if x % p:
        return 0
    x //= p
    if x % p:
        return 1
    x //= p
    if x % p:
        return 2
    x //= p
    if x % p:
        return 3
    x //= p
    if p == 2:
        return 3 + (x & -x).bit_length()  # 4 + index of the lowest set bit
    return 4 + _strip_powers(x, p)
