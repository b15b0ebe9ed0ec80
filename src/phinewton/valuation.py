"""The p-adic valuation on Z, and primality checking.

nu_p is normalized (nu_p(p) = 1).  Everything here is exact: valuations are
non-negative integers or INFINITY, slopes elsewhere are pairs of integers,
and there is no floating point anywhere.

The private `_split` gives, for nonzero x, both nu_p(x) and the unit
(x / p^nu) mod p from one descent over x, which `polyring.phi_expand` keeps
for every expansion coefficient; `valuation` reads its first part.
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


# The descent tests P_5 = p^32 first: a run of fewer than 32 factors of p
# then costs one division by it, linear in the size of x.
_PROBE_LEVEL = 5


def _descend(x: int, p: int, ladder: list[int]) -> tuple[int, int]:
    """(nu_p(x), (x / p^nu) mod p) for nonzero x and odd p.

    `ladder` holds P_i = p^(2^i) for i = 0, 1, ... and is squared up as
    needed.  From a level k with nu_p(x) < 2^(k+1) down to 0, x becomes
    x / P_i where P_i divides it, adding 2^i, and x mod P_i where it does
    not.  In the second case nu_p(x) < 2^i, the exponent of P_i, so the
    remainder keeps both the valuation and the unit mod p.  Either way
    |x| < P_i afterwards: each level divides a number of at most twice its
    divisor's size, and the sizes halve on the way down.  A level whose P_i
    exceeds |x| cannot divide it and is skipped, so a ladder shared with
    larger numbers costs nothing extra.

    If P_5 does not divide x, the descent starts at level 4 from x mod P_5.
    Otherwise it starts from the top P_k with P_k^2 > |x|, which costs
    about a third of a schoolbook division of x by its square root.
    """
    while len(ladder) <= _PROBE_LEVEL:
        ladder.append(ladder[-1] * ladder[-1])
    r = x % ladder[_PROBE_LEVEL]
    if r:
        x, top = r, _PROBE_LEVEL - 1
    else:
        bits = x.bit_length()
        while 2 * ladder[-1].bit_length() - 2 < bits:  # until P_k^2 > |x|
            ladder.append(ladder[-1] * ladder[-1])
        top = len(ladder) - 1
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
    mod p, in one descent over x.

    Nearly every call has valuation 0-3.  Peeling those factors one at a
    time, unrolled, costs no more per call than a plain loop.  Past them, a
    run of 2s is read from the lowest set bit (the unit mod 2 is 1), and a
    run of odd p goes to `_descend`, which extends the shared `ladder` of
    p^(2^i) as needed.
    """
    r = x % p
    if r:
        return 0, r
    x //= p
    r = x % p
    if r:
        return 1, r
    x //= p
    r = x % p
    if r:
        return 2, r
    x //= p
    r = x % p
    if r:
        return 3, r
    x //= p
    if p == 2:
        return 3 + (x & -x).bit_length(), 1  # 4 + index of the lowest set bit
    v, unit = _descend(x, p, ladder)
    return 4 + v, unit


def valuation(x: int, p: int) -> ExtInt:
    """Exact exponent of the prime p in x; INFINITY iff x = 0.

    The number of big-integer divisions grows with log nu_p(x), not with
    nu_p(x), and a run of odd p divides numbers that halve in size from
    level to level (see `_split` and `_descend`).
    """
    if x == 0:
        return INFINITY
    return _split(x, p, [p])[0]
