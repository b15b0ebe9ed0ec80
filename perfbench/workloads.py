"""Seeded input generators for the four benchmark workloads.

Every input is built here as an integer coefficient list (ascending powers
of x).  The same construction renders the expression string that the CLI
receives, and the list itself goes to the sympy oracle, so the oracle never
sees phinewton's parser.  Nothing in this module imports phinewton.

Pools are stratified.  What sets an op's cost (degree, height, prime,
residue field, polygon shape, product or not, and for full_large_p the
residues mod p) comes from a plan that is the same for every seed; the seed
draws the coefficients over Z and the order.  Two seeds therefore give
different inputs and certificates with nearly the same cost profile, which
keeps the timings steady from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI call: argv for ``phinewton.cli.main`` and what to expect."""

    argv: tuple
    coeffs: tuple
    expected_exit: int
    kind: str


# ---------------------------------------------------------------------------
# Integer polynomial helpers, ascending coefficient lists with no trailing 0.

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def ppow(a, n):
    out = [1]
    for _ in range(n):
        out = pmul(out, a)
    return out


def pdivmod_monic(a, b):
    """a = q*b + r for monic b, exact over Z."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], _trim(rem)
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db]
        if c:
            quo[k] = c
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return _trim(quo), _trim(rem[:db])


def vp(c, p):
    """Exponent of p in the nonzero integer c (binary splitting on p^(2^j))."""
    c = abs(c)
    powers = [p]
    v = 0
    while c % powers[-1] == 0:
        c //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        if c % powers[j] == 0:
            c //= powers[j]
            v += 1 << j
    return v


def single_phi_exit(f, phi, p):
    """Exit code the CLI owes for ``f --phi phi`` at p, phi irreducible mod p.

    0 when f mod p is a power of phi mod p and every phi-adic point lies on
    or above the segment from (0, u_0) to (n, 0) with u_0 > 0, else 2.
    """
    m = len(phi) - 1
    if (len(f) - 1) % m:
        return 2
    n = (len(f) - 1) // m
    if [c % p for c in f] != _trim([c % p for c in ppow(phi, n)]):
        return 2
    coeffs = []
    rest = f
    while rest:
        rest, a = pdivmod_monic(rest, phi)
        coeffs.append(a)
    vals = [min(vp(c, p) for c in a if c) if a else None for a in coeffs]
    if all(v is None for v in vals[:n]):
        return 0  # f is exactly phi^n
    u0 = vals[0]
    if u0 is None or u0 <= 0:
        return 2
    for i in range(1, n):
        if vals[i] is not None and n * vals[i] < (n - i) * u0:
            return 2
    return 0


# ---------------------------------------------------------------------------
# Rendering to the CLI's expression grammar.

def render_dense(a, var="x"):
    """Descending-power expression for an integer coefficient list."""
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xp = var if i == 1 else f"{var}^{i}"
            body = xp if mag == 1 else f"{mag}*{xp}"
        sign = "-" if c < 0 else "+"
        parts.append(body if not parts and c > 0 else f"{sign}{body}")
    return "".join(parts) if parts else "0"


def render_phi_adic(terms, phi):
    """Expression for sum p^v * c(x) * phi^i over ``terms`` = [(i, p, v, c)]."""
    phi_s = f"({render_dense(phi)})"
    parts = []
    for i, p, v, c in sorted(terms, key=lambda t: -t[0]):
        factors = []
        if v:
            factors.append(f"{p}^{v}" if v > 1 else str(p))
        if c != [1]:
            factors.append(f"({render_dense(c)})")
        if i:
            factors.append(phi_s if i == 1 else f"{phi_s}^{i}")
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts)


def _phi_adic_value(terms, phi):
    f = []
    for i, p, v, c in terms:
        f = padd(f, pmul([p**v * x for x in c], ppow(phi, i)))
    return f


def _unit(rng, p, m):
    """Random integer polynomial of degree < m that is nonzero mod p."""
    while True:
        c = [rng.randrange(p) + p * rng.randrange(-1, 2) for _ in range(m)]
        if any(x % p for x in c):
            return _trim(c)


# ---------------------------------------------------------------------------
# paper_batch

PAPER_EXPR = "(x^2+x+1)^6 + 24x*(x^2+x+1)^3 + 9*(16x+32)*(x^2+x+1) + 3*(16x+16)"
PAPER_PHI = [1, 1, 1]


def _paper_coeffs():
    phi = PAPER_PHI
    f = ppow(phi, 6)
    f = padd(f, pmul([0, 24], ppow(phi, 3)))
    f = padd(f, pmul([9 * 32, 9 * 16], phi))
    return padd(f, [3 * 16, 3 * 16])


# Small monic phi, irreducible mod p, ascending coefficients.
SMALL_PHIS = {
    2: ([0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1]),
    3: ([0, 1], [1, 1], [1, 0, 1], [2, 1, 1]),
    5: ([0, 1], [2, 1], [2, 0, 1], [1, 1, 1]),
}

# One cycle of the paper_batch schedule: (shape, mode).  One op in ten is a
# free polygon in single-phi mode, which fails the single-side hypothesis.
PAPER_CYCLE = (
    ("dumas", "single"), ("dumas", "full"), ("free", "full"),
    ("product", "single"), ("dumas", "single"), ("free", "single"),
    ("dumas", "full"), ("product", "full"), ("dumas", "single"),
    ("product", "full"),
)


def _side_terms(plan, rng, p, phi, n, u0):
    """phi-adic terms of a polynomial with one side from (0, u0) to (n, 0)."""
    m = len(phi) - 1
    terms = [(n, p, 0, [1]), (0, p, u0, _unit(rng, p, m))]
    for i in range(1, n):
        line = -(-(n - i) * u0 // n)  # ceil((n - i) * u0 / n)
        if plan.random() < 0.6:
            terms.append((i, p, max(line, 1) + plan.randrange(2), _unit(rng, p, m)))
    return terms


def _free_terms(plan, rng, p, phi, n, fail):
    """phi-adic terms with arbitrary valuations; with ``fail`` the point
    (1, 1) sits below the segment from (0, u_0) to (n, 0)."""
    m = len(phi) - 1
    u0 = plan.randrange(3, 3 + 2 * n)
    terms = [(n, p, 0, [1]), (0, p, u0, _unit(rng, p, m))]
    for i in range(1, n):
        if fail and i == 1:
            terms.append((1, p, 1, _unit(rng, p, m)))
        elif plan.random() < 0.6:
            terms.append((i, p, plan.randrange(1, u0 + 1), _unit(rng, p, m)))
    return terms


def _paper_op(plan, rng, index):
    shape, mode = PAPER_CYCLE[index % len(PAPER_CYCLE)]
    p = (2, 3, 5)[(index // len(PAPER_CYCLE)) % 3]
    phi = plan.choice(SMALL_PHIS[p])
    m = len(phi) - 1
    nmax = 16 // m
    if shape == "dumas":
        n = plan.randrange(2, nmax + 1)
        terms = _side_terms(plan, rng, p, phi, n, plan.randrange(1, 2 * n + 2))
        f, expr = _phi_adic_value(terms, phi), render_phi_adic(terms, phi)
    elif shape == "free":
        n = plan.randrange(3, max(nmax, 3) + 1)
        if n * m > 16:
            phi, m, n = [0, 1], 1, plan.randrange(3, 17)
        terms = _free_terms(plan, rng, p, phi, n, fail=mode == "single")
        f, expr = _phi_adic_value(terms, phi), render_phi_adic(terms, phi)
    else:
        # Two or three factors of the same slope -h/e (one side in total) in
        # single-phi mode; independent slopes in full mode.
        k = plan.choice((2, 2, 3))
        e = plan.choice((1, 1, 2))
        while k * e * m > 16:
            phi = [0, 1] if m > 2 else plan.choice(SMALL_PHIS[p][:2])
            m = len(phi) - 1
            k, e = 2, 1
        h = plan.choice([x for x in (1, 2, 3, 5) if math.gcd(x, e) == 1])
        budget = 16 // (m * e)
        sizes = [1] * k
        for _ in range(plan.randrange(budget - k + 1)):
            sizes[plan.randrange(k)] += 1
        f, pieces = [1], []
        for s in sizes:
            n = s * e
            u0 = s * h if mode == "single" else plan.randrange(1, 2 * n + 2)
            terms = _side_terms(plan, rng, p, phi, n, u0)
            f = pmul(f, _phi_adic_value(terms, phi))
            pieces.append(f"({render_phi_adic(terms, phi)})")
        expr = "*".join(pieces)
    argv = [expr, "-p", str(p), "--format", "json"]
    expected = 0
    if mode == "single":
        argv += ["--phi", render_dense(phi)]
        expected = single_phi_exit(f, phi, p)
    return Op(tuple(argv), tuple(f), expected, f"{shape}/{mode}/p{p}")


def gen_paper_batch(plan, rng, size):
    f = tuple(_paper_coeffs())
    ops = [
        Op((PAPER_EXPR, "-p", "2", "--phi", "x^2+x+1", "--format", "json"),
           f, 0, "paper/single"),
        Op((PAPER_EXPR, "-p", "2", "--format", "json"), f, 0, "paper/full"),
    ]
    ops += [_paper_op(plan, rng, i) for i in range(max(size - 2, 0))]
    return ops


# ---------------------------------------------------------------------------
# full_large_p

LARGE_PRIMES = (10007, 40009, 65521)


def _random_monic(rng, degree, bits):
    bound = 1 << bits
    c = [rng.randrange(-bound, bound + 1) for _ in range(degree)]
    if c[0] == 0:
        c[0] = 1
    return c + [1]


def gen_full_large_p(plan, rng, size):
    """Two thirds are single random polynomials.  Their residues mod p come
    from the plan, because the mod-p factor pattern sets most of an op's
    cost; the seed draws the lift to about 20-bit coefficients.  The other
    third are products of 2-3 random factors drawn from the seed."""
    degrees = [24 + (i % 13) for i in range(size)]
    plan.shuffle(degrees)
    ops = []
    for i, n in enumerate(degrees):
        p = LARGE_PRIMES[i % 3]
        k = 1 if (i // 3) % 3 else 2 + (i // 9) % 2
        if k == 1:
            residue = [plan.randrange(p) for _ in range(n)]
            lift = (1 << 20) // p
            f = [c + p * rng.randrange(-lift, lift + 1) for c in residue] + [1]
            if f[0] == 0:
                f[0] = p
        else:
            while True:
                cuts = sorted(plan.sample(range(4, n - 3), k - 1))
                degs = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                if min(degs) >= 4:
                    break
            f = [1]
            for d in degs:
                f = pmul(f, _random_monic(rng, d, 20 // k))
        argv = (render_dense(f), "-p", str(p), "--format", "json")
        ops.append(Op(argv, tuple(f), 0, f"{'random' if k == 1 else f'product{k}'}/p{p}"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# huge_heights

HUGE_PRIMES = (2, 3, 7)


def _pp_mul(a, b):
    """Multiply polynomials whose coefficients are {exponent: multiplier}
    sums of prime powers (the prime is implicit and shared)."""
    out = [dict() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for ex, mx in x.items():
                for ey, my in y.items():
                    d = out[i + j]
                    d[ex + ey] = d.get(ex + ey, 0) + mx * my
    return [{k: v for k, v in d.items() if v} for d in out]


def _pp_render(a, p):
    parts = []
    for i in range(len(a) - 1, -1, -1):
        if not a[i]:
            continue
        pieces = []
        for ex, mult in sorted(a[i].items()):
            term = "1" if ex == 0 else (f"{p}^{ex}" if ex > 1 else str(p))
            pieces.append(term if mult == 1 else f"{mult}*{term}")
        coeff = pieces[0] if len(pieces) == 1 else f"({' + '.join(pieces)})"
        xp = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if not xp:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(xp)
        else:
            parts.append(f"{coeff}*{xp}")
    return " + ".join(parts)


def _huge_factor(degree, k):
    """x^3 + p^k x + p^(3k+1) and its linear and quadratic siblings."""
    if degree == 1:
        return [{k: 1}, {0: 1}]
    return [{degree * k + 1: 1}, {k: 1}] + [{}] * (degree - 2) + [{0: 1}]


# Factor degrees per op; the total height K is split among the factors.
HUGE_SHAPES = ((3,), (3,), (3, 1), (3, 2), (3, 3), (3,))


def gen_huge_heights(plan, rng, size):
    ops = []
    for i in range(size):
        p = HUGE_PRIMES[i % 3]
        total_k = 3000 + int(6000 * (i + rng.random()) / size)
        shape = HUGE_SHAPES[(i // 3) % len(HUGE_SHAPES)]
        # the split of K sets the constant term's valuation, hence the cost
        ks = [total_k // len(shape)] * len(shape)
        ks[0] += total_k % len(shape)
        f_pp = [{0: 1}]
        for d, k in zip(shape, ks):
            f_pp = _pp_mul(f_pp, _huge_factor(d, k))
        f = [sum(m * p**ex for ex, m in c.items()) for c in f_pp]
        argv = [_pp_render(f_pp, p), "-p", str(p), "--format", "json"]
        expected = 0
        # alternate the modes, swapping them every 18 ops, so that each
        # (prime, shape) pair runs in both
        mode = "phi-x" if (i + i // 18) % 2 else "full"
        if mode == "phi-x":
            argv += ["--phi", "x"]
            expected = single_phi_exit(f, [0, 1], p)
        kind = "x".join(map(str, shape))
        ops.append(Op(tuple(argv), tuple(f), expected, f"deg{kind}/{mode}/p{p}"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# deep_ext

EXT_FIELDS = ((2, [1, 1, 0, 1]), (2, [1, 1, 0, 0, 1]), (3, [1, 2, 0, 1]))
EXT_E = (1, 2, 3, 6)


def gen_deep_ext(plan, rng, size):
    ops = []
    for slot in range(size):
        p, phi = EXT_FIELDS[slot % 3]
        m = len(phi) - 1
        d = 6 + (slot // 3) % 3
        e = EXT_E[(slot // 9) % 4]
        slopes = [x for x in (1, 2, 3, 5) if math.gcd(x, e) == 1]
        h = slopes[(slot // 3 + slot // 9) % len(slopes)]
        n = d * e
        terms = [(n, p, 0, [1])]
        for i in range(n):
            j, r = divmod(i, e)
            if r == 0:
                # lattice point: the residual coefficient t_j, nonzero at j = 0
                t = [rng.randrange(p) for _ in range(m)]
                while i == 0 and not any(t):
                    t = [rng.randrange(p) for _ in range(m)]
                if any(t):
                    c = [x + p * rng.randrange(p) for x in t]
                    terms.append((i, p, h * (d - j), _trim(c)))
                    continue
            # t_j = 0 or off the lattice: a point strictly above the side
            if rng.random() < 0.3:
                line = -(-h * (n - i) // e)  # ceil of the side's height
                v = line + (1 if r == 0 else 0) + rng.randrange(2)
                terms.append((i, p, v, _unit(rng, p, m)))
        f = _phi_adic_value(terms, phi)
        argv = (render_phi_adic(terms, phi), "-p", str(p), "--phi",
                render_dense(phi), "--format", "json")
        ops.append(Op(argv, tuple(f), single_phi_exit(f, phi, p),
                      f"F{p}^{m}/d{d}/e{e}/h{h}"))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "paper_batch": gen_paper_batch,
    "full_large_p": gen_full_large_p,
    "huge_heights": gen_huge_heights,
    "deep_ext": gen_deep_ext,
}


def generate(workload: str, seed: int, size: int) -> list[Op]:
    """The pool of ``size`` ops for a workload; equal seeds give equal pools."""
    plan = random.Random(f"{workload}:plan")
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](plan, rng, size)
