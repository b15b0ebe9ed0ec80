"""Parser and renderer for integer polynomial expressions in x.

Grammar over tokens, each a run of ASCII digits or any one other character,
with whitespace (str.isspace) between tokens ignored and integers unbounded:

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := base ('^' uint)?
    base   := uint | 'x' | '(' expr ')'

The '*' between adjacent factors is optional, so inputs like
"24x(x^2+x+1)^3" parse as written, but whitespace may not split an integer:
"1 000" and "x^2 3" are parse errors, not products.  A single leading '-' is
accepted so rendered polynomials always round-trip; doubled operators are
rejected.  Parentheses nest at most MAX_NESTING deep, and no power or
product may have degree above MAX_DEGREE.  The other two limits read one
bound, taken from the L1 norm: no coefficient's absolute value exceeds
2^bits, with bits = ceil(log2 v) for a literal v, n * ceil(log2 ||base||_1)
for base^n and the sum of the two operands' ceil(log2 ||.||_1) for a
product.  No integer literal, power or product may have bits above
MAX_COEFF_BITS, so no coefficient's absolute value may exceed
2^MAX_COEFF_BITS: 2^1000000 parses, 2^1048577 is refused.  Nor may a power
or product have a predicted size, its degree plus one times bits, above
_MAX_SIZE_BITS = 2^22.  So (x+1)^2000, 2001 * 2000 bits, parses, and
(x+1)^4000, 4001 * 4000 bits, is refused: its expansion alone would take
half a minute.  All limits are checked before any arithmetic, so
2^1000000000 is refused at once.  Integers of any
number of digits parse and render (in chunks, below CPython's int/str
conversion limit).
"""

from __future__ import annotations

import operator
import re

from .polyring import IntPoly, _intpoly
from .residue_field import _term_str

MAX_NESTING = 100
MAX_DEGREE = 10_000
MAX_COEFF_BITS = 1 << 20
_MAX_SIZE_BITS = 1 << 22

# A token is a run of ASCII digits or any one other character; \s skips
# exactly the characters for which str.isspace is true.
_TOKEN = re.compile(r"\s*([0-9]+|\S)")

# CPython refuses int <-> str conversions of more than
# sys.get_int_max_str_digits() digits (4300 by default, never below 640), so
# longer integers are converted in chunks of at most this many digits.
_CHUNK_DIGITS = 600
_CHUNK_LIMIT = 10**_CHUNK_DIGITS


def _parse_digits(digits: str) -> int:
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _parse_digits(digits[:-k]) * 10**k + _parse_digits(digits[-k:])


def _decimal(n: int) -> str:
    """Decimal digits of the integer n >= 0, of any size."""
    if n < _CHUNK_LIMIT:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _norm_bits(poly: IntPoly) -> int:
    """ceil(log2 ||poly||_1), 0 for zero: no coefficient of poly^n, nor of a
    product, exceeds the product of the factors' L1 norms."""
    return max(sum(map(abs, poly.coeffs)) - 1, 0).bit_length()


class ParseError(ValueError):
    """Syntax error with the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _escaped(text: str) -> str:
    """text as it stands if printable, else as ascii() writes it without the
    quotes: an input or argument must not send terminal control sequences to
    stderr."""
    return text if text.isprintable() else ascii(text)[1:-1]


def _unexpected(tok: str, pos: int) -> ParseError:
    return ParseError(f"unexpected character '{_escaped(tok)}'", pos)


def _check(start: int, degree: int, bits: int):
    """Refuse a literal, power or product at start whose degree, coefficient
    bound or predicted size exceeds its limit: `bits` is ceil(log2) of a bound
    on the absolute value of every coefficient, and the size is
    (degree + 1) * bits."""
    if degree > MAX_DEGREE:
        # a longer degree is not printed: its digits could fill the message
        shown = f"degree {degree}" if degree.bit_length() <= 64 else "degree"
        raise ParseError(f"{shown} exceeds the maximum {MAX_DEGREE}", start)
    if bits > MAX_COEFF_BITS:
        raise ParseError(
            f"coefficients could exceed the maximum of {MAX_COEFF_BITS} bits", start)
    if (degree + 1) * bits > _MAX_SIZE_BITS:
        raise ParseError(f"the expansion could exceed {_MAX_SIZE_BITS} bits", start)


class _Parser:
    """Recursive descent over the tokens of src, read one at a time: `tok` is
    the next token's text, "" at the end, and `pos` its offset."""

    def __init__(self, src: str):
        self.tokens = _TOKEN.finditer(src)
        self.end = len(src)
        self.depth = 0
        self.advance()

    def advance(self):
        m = next(self.tokens, None)
        self.pos, self.tok = (m.start(1), m.group(1)) if m else (self.end, "")

    def parse_uint(self) -> int:
        start, digits = self.pos, self.tok
        if not "0" <= digits[:1] <= "9":
            raise ParseError("expected an integer", start)
        end = start + len(digits)
        self.advance()
        if self.tok == "." and self.pos == end:
            raise ParseError("non-integer coefficient", end)
        if "0" <= self.tok[:1] <= "9":
            raise ParseError("whitespace inside an integer", end)
        value = _parse_digits(digits)
        _check(start, 0, max(value - 1, 0).bit_length())
        return value

    def parse_expr(self) -> IntPoly:
        """Add the terms' coefficients into one list, subtracting after a '-';
        a term c*x^k is added into its one slot."""
        op = self.tok
        if op == "-":
            self.advance()
        acc = []
        while True:
            coeffs = self.parse_term().coeffs
            acc.extend([0] * (len(coeffs) - len(acc)))
            add = operator.sub if op == "-" else operator.add
            if any(coeffs[:-1]):
                acc[:len(coeffs)] = map(add, acc, coeffs)
            elif coeffs:
                k = len(coeffs) - 1
                acc[k] = add(acc[k], coeffs[k])
            op = self.tok
            if op != "+" and op != "-":
                return _intpoly(acc)
            self.advance()

    def parse_term(self) -> IntPoly:
        result = self.parse_factor()
        while True:
            if self.tok == "*":
                self.advance()
            elif not ("0" <= self.tok[:1] <= "9" or self.tok in ("x", "(")):
                return result
            start = self.pos
            factor = self.parse_factor()
            _check(start, result.degree + factor.degree,
                   _norm_bits(result) + _norm_bits(factor))
            result = result * factor

    def parse_factor(self) -> IntPoly:
        base = self.parse_base()
        if self.tok != "^":
            return base
        self.advance()
        start = self.pos
        n = self.parse_uint()
        _check(start, base.degree * n, n * _norm_bits(base))
        return base**n

    def parse_base(self) -> IntPoly:
        tok, pos = self.tok, self.pos
        if "0" <= tok[:1] <= "9":
            return IntPoly.constant(self.parse_uint())
        if tok == "x":
            self.advance()
            return IntPoly.x()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            if self.tok != ")":
                raise ParseError("expected ')'", self.pos)
            self.advance()
            self.depth -= 1
            return inner
        if tok.isalpha():
            raise ParseError(f"unknown variable '{tok}'", pos)
        if tok == ".":
            raise ParseError("non-integer coefficient", pos)
        if tok == "":
            raise ParseError("unexpected end of input", pos)
        raise _unexpected(tok, pos)


def parse_poly(src: str) -> IntPoly:
    """Parse an expression into an IntPoly with exact integer coefficients."""
    parser = _Parser(src)
    result = parser.parse_expr()
    if parser.tok:
        raise _unexpected(parser.tok, parser.pos)
    return result


def render_poly(poly: IntPoly) -> str:
    """Canonical expression: descending powers, re-parseable by parse_poly."""
    if poly.is_zero:
        return "0"
    pieces = []
    for i in range(poly.degree, -1, -1):
        c = poly.coeffs[i]
        if c == 0:
            continue
        body = _term_str(_decimal(abs(c)), i, "x")
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
