"""Parser and renderer for integer polynomial expressions in x.

Grammar (whitespace between tokens ignored, integers unbounded):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := base ('^' uint)?
    base   := uint | 'x' | '(' expr ')'

The '*' between adjacent factors is optional, so inputs like
"24x(x^2+x+1)^3" parse as written, but whitespace may not split an integer:
"1 000" and "x^2 3" are parse errors, not products.  A single leading '-' is
accepted so rendered polynomials always round-trip; doubled operators are
rejected.  Parentheses nest at most MAX_NESTING deep, and no power or
product may have degree above MAX_DEGREE.  No integer literal, power or
product may have coefficients above MAX_COEFF_BITS bits: a power base^n is
refused when n * (bits of base's largest coefficient + bits of its length)
exceeds it, a product when the two operands' such sums do.  Nor may a power
or product have a predicted size above _MAX_SIZE_BITS = 2^22 bits: its
degree plus one, times a bound on its coefficients' bits taken from the L1
norm, n * ceil(log2 ||base||_1) for base^n and the sum of the two operands'
ceil(log2 ||.||_1) for a product.  So (x+1)^2000, 2001 * 2000 bits, parses,
and (x+1)^4000, 4001 * 4000 bits, is refused: its expansion alone would take
half a minute.  All limits are checked before any arithmetic, so
2^1000000000 is refused at once; 2^9000 still parses.  Integers of any
number of digits parse and render (in chunks, below CPython's int/str
conversion limit).
"""

from __future__ import annotations

from .polyring import IntPoly

MAX_NESTING = 100
MAX_DEGREE = 10_000
MAX_COEFF_BITS = 1 << 20
_MAX_SIZE_BITS = 1 << 22

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


def _is_digit(ch: str) -> bool:
    # str.isdigit is also true for superscripts and other scripts' digits
    return "0" <= ch <= "9"


def _decimal(n: int) -> str:
    """Decimal digits of the integer n >= 0, of any size."""
    if n < _CHUNK_LIMIT:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _coeff_bits(poly: IntPoly) -> int:
    """Bits of the largest coefficient plus bits of the length: a power
    poly^n has coefficients of at most n times this many bits."""
    if poly.is_zero:
        return 0
    return max(map(int.bit_length, poly.coeffs)) + len(poly.coeffs).bit_length()


def _norm_bits(poly: IntPoly) -> int:
    """ceil(log2 ||poly||_1), 0 for zero: no coefficient of poly^n, nor of a
    product, exceeds the product of the factors' L1 norms."""
    return max(sum(map(abs, poly.coeffs)) - 1, 0).bit_length()


def _power_size(base: IntPoly, n: int) -> int:
    """Predicted bits of base^n: (degree + 1) * n * ceil(log2 ||base||_1)."""
    return (base.degree * n + 1) * n * _norm_bits(base)


def _product_size(a: IntPoly, b: IntPoly) -> int:
    """Predicted bits of a * b: (degree + 1) times the operands' summed
    ceil(log2 ||.||_1)."""
    return (a.degree + b.degree + 1) * (_norm_bits(a) + _norm_bits(b))


class ParseError(ValueError):
    """Syntax error with the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.src) and _is_digit(self.src[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos < len(self.src) and self.src[self.pos] == ".":
            raise ParseError("non-integer coefficient", self.pos)
        end = self.pos
        if _is_digit(self.peek()):
            raise ParseError("whitespace inside an integer", end)
        value = _parse_digits(self.src[start:end])
        self._check_bits(value.bit_length(), start)
        return value

    def parse_expr(self) -> IntPoly:
        negate = False
        if self.peek() == "-":
            self.take()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            op = self.peek()
            if op == "+":
                self.take()
                result = result + self.parse_term()
            elif op == "-":
                self.take()
                result = result - self.parse_term()
            else:
                return result

    def _check_degree(self, degree: int, start: int):
        if degree > MAX_DEGREE:
            raise ParseError(
                f"degree {_decimal(degree)} exceeds the maximum {MAX_DEGREE}", start
            )

    def _check_bits(self, bits: int, start: int):
        if bits > MAX_COEFF_BITS:
            raise ParseError(
                f"coefficients could exceed the maximum of {MAX_COEFF_BITS} bits", start
            )

    def _check_size(self, bits: int, start: int):
        if bits > _MAX_SIZE_BITS:
            raise ParseError(
                f"the expansion could exceed {_MAX_SIZE_BITS} bits", start
            )

    def parse_term(self) -> IntPoly:
        result = self.parse_factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
            elif not (_is_digit(ch) or ch == "x" or ch == "("):
                return result
            self._skip_ws()
            start = self.pos
            factor = self.parse_factor()
            self._check_degree(result.degree + factor.degree, start)
            self._check_bits(_coeff_bits(result) + _coeff_bits(factor), start)
            self._check_size(_product_size(result, factor), start)
            result = result * factor

    def parse_factor(self) -> IntPoly:
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            self._skip_ws()
            start = self.pos
            n = self.parse_uint()
            self._check_degree(base.degree * n, start)
            self._check_bits(n * _coeff_bits(base), start)
            self._check_size(_power_size(base, n), start)
            return base**n
        return base

    def parse_base(self) -> IntPoly:
        ch = self.peek()
        if _is_digit(ch):
            return IntPoly.constant(self.parse_uint())
        if ch == "x":
            self.take()
            return IntPoly.x()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if ch.isalpha():
            raise ParseError(f"unknown variable '{ch}'", self.pos)
        if ch == ".":
            raise ParseError("non-integer coefficient", self.pos)
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected character '{ch}'", self.pos)


def parse_poly(src: str) -> IntPoly:
    """Parse an expression into an IntPoly with exact integer coefficients."""
    parser = _Parser(src)
    result = parser.parse_expr()
    if parser.peek() != "":
        raise ParseError(f"unexpected character '{parser.peek()}'", parser.pos)
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
        mag = abs(c)
        if i == 0:
            body = _decimal(mag)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{_decimal(mag)}{xpow}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
