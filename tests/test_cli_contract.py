"""Property test of the CLI contract: every argv exits 0, 1 or 2.

`cli.main` runs in process on expressions drawn from a bounded grammar
(total degree at most 48): arbitrary, monic, or a power of phi plus p times
lower terms, sometimes negated or with one stray character inserted, an
operator, a dot, whitespace or a character the lexer refuses.  The
prime is drawn from primes, composites and integers in -3..100; phi and
--check-only are optional.  `main` returns the code: no exception may
escape, SystemExit included.  The run is derandomized, so it tests the same
examples every time."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from phinewton.cli import main
from phinewton.valuation import is_prime

MAX_DEGREE = 48

PRIMES = (101, 1009, 10007, 65521, 2**31 - 1, 2**61 - 1)
COMPOSITES = (561, 65535, 1009 * 1013, 2**32 + 1, 10**12, 2**61 + 1)
PHIS = ("x", "x+1", "x^2+x+1", "x^2+1", "x^3+x+1", "2x+1", "1")


@st.composite
def polys(draw, budget=MAX_DEGREE, depth=3):
    """An expression text and a bound on its degree, at most budget."""
    kinds = ["int"] + (["x"] if budget else [])
    if depth:
        kinds += ["sum", "product", "power"]
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(0, 10**24))), 0
    if kind == "x":
        k = draw(st.integers(1, budget))
        return ("x" if k == 1 else f"x^{k}"), k
    a, da = draw(polys(budget, depth - 1))
    if kind == "sum":
        b, db = draw(polys(budget, depth - 1))
        op = draw(st.sampled_from(["+", "-", " + ", " - "]))
        return a + op + b, max(da, db)
    if kind == "product":
        b, db = draw(polys(budget - da, depth - 1))
        op = draw(st.sampled_from(["*", "", " * "]))
        return f"({a}){op}({b})", da + db
    k = draw(st.integers(0, budget // da if da else 8))
    return f"({a})^{k}", da * k


@st.composite
def monics(draw, budget=MAX_DEGREE, depth=3):
    """A monic expression text and its degree, between 1 and budget."""
    kinds = ["x"] + (["shift", "product", "power"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "x":
        k = draw(st.integers(1, budget))
        return ("x" if k == 1 else f"x^{k}"), k
    a, da = draw(monics(budget, depth - 1))
    if kind == "shift":
        b, _ = draw(polys(da - 1, depth - 1))
        return a + draw(st.sampled_from(["+", "-", " + "])) + b, da
    if kind == "product" and da < budget:
        b, db = draw(monics(budget - da, depth - 1))
        return f"({a}){draw(st.sampled_from(['*', '']))}({b})", da + db
    k = draw(st.integers(1, budget // da))
    return f"({a})^{k}", da * k


# Operators, a dot, ASCII and Unicode whitespace (U+3000, U+0085), two
# format characters that are not whitespace (U+200B, U+FEFF) and a
# non-ASCII digit: none of them can raise the degree.
STRAYS = "+-*() .\t\u3000\u0085\u200b\ufeff\u0663"


def stray(draw, text):
    """Maybe negate text, maybe insert one character of STRAYS."""
    if draw(st.integers(0, 7)) == 0:
        text = "-" + text
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAYS)) + text[at:]
    return text


SMALL_PRIMES = tuple(n for n in range(100) if is_prime(n))


def draw_p(draw) -> int:
    """A prime below 100 half the time, else a large prime, a composite or
    any integer in -3..100."""
    pick = draw(st.integers(0, 9))
    if pick < 5:
        return draw(st.sampled_from(SMALL_PRIMES))
    if pick < 7:
        return draw(st.sampled_from(PRIMES))
    if pick < 8:
        return draw(st.sampled_from(COMPOSITES))
    return draw(st.integers(-3, 100))


@st.composite
def argvs(draw):
    """f, p, an optional phi, --check-only and a format.

    f is arbitrary, monic, or (phi)^k + p^j * (lower terms), which reaches
    the single-phi criteria whenever phi mod p is irreducible.
    """
    p = draw_p(draw)
    phi = draw(st.one_of(st.none(), st.sampled_from(PHIS),
                         monics(4, 1).map(lambda m: m[0])))
    shape = draw(st.sampled_from(["any", "monic", "near phi power"]))
    if shape == "any":
        f = draw(polys())[0]
    elif shape == "monic":
        f = draw(monics())[0]
    else:
        phi, d = draw(monics(4, 1))
        k = draw(st.integers(1, MAX_DEGREE // d))
        lower, _ = draw(polys(d * k - 1, 2))
        f = f"({phi})^{k} + {abs(p)}^{draw(st.integers(1, 3))}*({lower})"
        if draw(st.integers(0, 3)) == 0:
            phi = None
    argv = [stray(draw, f), "-p", str(p), "--format",
            draw(st.sampled_from(["text", "json", "svg"]))]
    if phi is not None:
        argv += ["--phi", phi]
    if draw(st.booleans()):
        argv.append("--check-only")
    return argv


def exit_code(argv) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return main(argv)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
def test_every_input_exits_0_1_or_2(argv):
    assert exit_code(argv) in (0, 1, 2), argv
