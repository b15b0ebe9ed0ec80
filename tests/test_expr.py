import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinewton.expr import (
    _MAX_SIZE_BITS,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    ParseError,
    _check,
    _norm_bits,
    parse_poly,
    render_poly,
)
from phinewton.polyring import IntPoly


class TestParse:
    def test_quadratic(self):
        assert parse_poly("x^2 + 2x + 2") == IntPoly([2, 2, 1])

    def test_whitespace_insensitive(self):
        assert parse_poly(" x ^2+2 x+ 2 ") == IntPoly([2, 2, 1])
        assert parse_poly("24 x") == IntPoly([0, 24])

    def test_optional_star(self):
        assert parse_poly("2*x") == parse_poly("2x")
        assert parse_poly("3*(x+1)") == parse_poly("3(x+1)")

    @pytest.mark.parametrize("src, position", [
        ("x^3 + 1 000 003", 7),
        ("x^2 3", 3),
        ("1 2", 1),
    ])
    def test_whitespace_inside_an_integer(self, src, position):
        # not read as a product: x^3 + 1*000*003 would be x^3
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert str(err.value) == (
            f"whitespace inside an integer (at position {position})")

    @pytest.mark.parametrize("src, message", [
        ("x^²+1", "expected an integer (at position 2)"),
        ("x^2+١", "unexpected character '١' (at position 4)"),
        ("2x١", "unexpected character '١' (at position 2)"),
        ("12٣ x", "unexpected character '٣' (at position 2)"),
        ("1 ٣", "unexpected character '٣' (at position 2)"),
    ])
    def test_only_ascii_digits(self, src, message):
        # str.isdigit accepts superscripts and other scripts' digits
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert str(err.value) == message

    @pytest.mark.parametrize("space", [
        chr(n) for n in range(0x110000) if chr(n).isspace()])
    def test_every_isspace_character_is_skipped(self, space):
        assert parse_poly(f"{space}x{space}^{space}2{space}+{space}1{space}") == (
            IntPoly([1, 0, 1]))

    @pytest.mark.parametrize("char", ["\u200b", "\ufeff"])
    @pytest.mark.parametrize("template", ["{}x", "x{}", "x+{}1", "x^2 {}"])
    def test_format_characters_are_not_whitespace(self, char, template):
        # shown escaped, as they are not printable
        shown = {"\u200b": "\\u200b", "\ufeff": "\\ufeff"}[char]
        src = template.format(char)
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert str(err.value) == (
            f"unexpected character '{shown}' (at position {src.index(char)})")

    @pytest.mark.parametrize("src, message", [
        ("x^2+1\x1b[31m", "unexpected character '\\x1b' (at position 5)"),
        ("x\x07", "unexpected character '\\x07' (at position 1)"),
        ("\u202ex", "unexpected character '\\u202e' (at position 0)"),
        ("x\x7f", "unexpected character '\\x7f' (at position 1)"),
        ("x+\U000e0001", "unexpected character '\\U000e0001' (at position 2)"),
        ("x%", "unexpected character '%' (at position 1)"),
        ("x'", "unexpected character ''' (at position 1)"),
    ])
    def test_unprintable_characters_are_escaped(self, src, message):
        # an input file must not send terminal control sequences to stderr
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert str(err.value) == message

    @pytest.mark.parametrize("src, message", [
        ("1 .5", "unexpected character '.' (at position 2)"),
        ("x*.5", "non-integer coefficient (at position 2)"),
        ("x^(2)", "expected an integer (at position 2)"),
        ("((x)", "expected ')' (at position 4)"),
        ("x +", "unexpected end of input (at position 3)"),
    ])
    def test_lexical_edge_errors(self, src, message):
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert str(err.value) == message

    @pytest.mark.parametrize("src", ["x^ 2", "x^2\u0085"])
    def test_lexical_edge_successes(self, src):
        assert parse_poly(src) == IntPoly([0, 0, 1])

    def test_long_sum_streams_its_tokens(self):
        # tokens are read one at a time and the terms add into one list
        src = "x+" * 50_000 + "x"
        tracemalloc.start()
        try:
            assert parse_poly(src) == IntPoly([0, 50_001])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_nested_phi_form(self):
        src = "(x^2+x+1)^6 + 24x*(x^2+x+1)^3 + 9*(16x+32)*(x^2+x+1) + 3*(16x+16)"
        f = parse_poly(src)
        phi = IntPoly([1, 1, 1])
        expected = (
            phi**6
            + 24 * IntPoly.x() * phi**3
            + 9 * IntPoly([32, 16]) * phi
            + 3 * IntPoly([16, 16])
        )
        assert f == expected
        assert f.degree == 12

    def test_constant_power(self):
        assert parse_poly("2^10") == IntPoly([1024])

    def test_unbounded_integers(self):
        big = 10**60 + 7
        assert parse_poly(f"x^2 + {big}") == IntPoly([big, 0, 1])

    def test_binary_minus(self):
        assert parse_poly("x^3 - 2x + 5") == IntPoly([5, -2, 0, 1])

    def test_leading_minus(self):
        assert parse_poly("-x + 1") == IntPoly([1, -1])
        assert parse_poly("-3") == IntPoly([-3])

    def test_doubled_minus_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x^3 - - 1")
        assert err.value.position == 6

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + y")
        assert "unknown variable" in str(err.value)

    def test_non_integer_coefficient(self):
        with pytest.raises(ParseError) as err:
            parse_poly("1.5x")
        assert "non-integer" in str(err.value)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_poly("(x+1")
        with pytest.raises(ParseError):
            parse_poly("x+1)")

    def test_empty_and_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("")
        with pytest.raises(ParseError):
            parse_poly("x^")
        with pytest.raises(ParseError):
            parse_poly("x^2^3")


class TestLimits:
    def test_nesting_limit(self):
        assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == IntPoly.x()
        with pytest.raises(ParseError) as err:
            parse_poly("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))
        assert err.value.position == MAX_NESTING

    def test_degree_limit_on_powers(self):
        assert parse_poly(f"x^{MAX_DEGREE}").degree == MAX_DEGREE
        with pytest.raises(ParseError) as err:
            parse_poly(f"x^{MAX_DEGREE + 1}")
        assert err.value.position == 2
        with pytest.raises(ParseError):
            parse_poly("(x^2+1)^999999999")

    def test_degree_message_states_a_long_degree_without_its_digits(self):
        for src, degree in ((f"x^{MAX_DEGREE + 1}", "10001 "),
                            (f"x^{2**64 - 1}", f"{2**64 - 1} "),
                            (f"x^{2**64}", ""), ("x^" + "9" * 300_000, "")):
            with pytest.raises(ParseError) as err:
                parse_poly(src)
            message = f"degree {degree}exceeds the maximum 10000 (at position 2)"
            assert str(err.value) == message
        assert len(str(err.value)) == 48

    def test_degree_limit_on_products(self):
        half = MAX_DEGREE // 2
        assert parse_poly(f"x^{half} * x^{MAX_DEGREE - half}").degree == MAX_DEGREE
        with pytest.raises(ParseError):
            parse_poly(f"x^{half} * x^{MAX_DEGREE - half} * x")
        with pytest.raises(ParseError):
            parse_poly(f"x^{half}(x^{MAX_DEGREE - half} + 1)x")

    def test_integer_powers_unrestricted(self):
        assert parse_poly("2^20000 x").coeffs == (0, 2**20000)

    def test_coefficient_limit_on_powers(self):
        # ||2||_1 = 2: no coefficient of 2^n exceeds 2^n, a bound of n bits
        assert MAX_COEFF_BITS == 1048576
        assert parse_poly("2^1048576").coeffs == (2**1048576,)
        with pytest.raises(ParseError) as err:
            parse_poly("2^1048577")
        assert err.value.position == 2
        assert "coefficients could exceed" in str(err.value)
        with pytest.raises(ParseError):
            parse_poly("2^1000000000")
        with pytest.raises(ParseError):
            parse_poly("x + (x + 2^20000)^100")

    def test_coefficient_limit_on_products(self):
        # 2^n is bounded by n bits: a product adds the operands' bounds
        n = MAX_COEFF_BITS // 2
        assert parse_poly(f"2^{n} * 2^{n}").coeffs == (2 ** (2 * n),)
        src = f"2^{n} * 2^{n} * 2"
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert err.value.position == src.rindex("2")
        assert "coefficients could exceed" in str(err.value)

    def test_size_predicate(self):
        # the predicted size is (degree + 1) * bits; (x+1)^n has degree n and
        # L1 norm 2^n: (n + 1) * n bits predicted, and the check expands
        # neither power
        x1 = IntPoly([1, 1])
        cases = [  # degree, coefficient bound in bits, predicted size
            (2000, 2000 * _norm_bits(x1), 2001 * 2000),
            (4000, 4000 * _norm_bits(x1), 4001 * 4000),
            (MAX_DEGREE, MAX_DEGREE * _norm_bits(IntPoly.x()), 0),
            (0, 27001 * _norm_bits(IntPoly([7])), 3 * 27001),
            (3, _norm_bits(IntPoly([0, 3])) + _norm_bits(IntPoly([1, 1, 1])), 4 * (2 + 2)),
        ]
        for degree, bits, size in cases:
            assert (degree + 1) * bits == size
            if size <= _MAX_SIZE_BITS:
                _check(0, degree, bits)
            else:
                with pytest.raises(ParseError, match="the expansion could exceed"):
                    _check(0, degree, bits)
        assert 2001 * 2000 <= _MAX_SIZE_BITS < 4001 * 4000
        assert parse_poly("7^27001").coeffs == (7**27001,)
        assert parse_poly("3x * (x^2 + x + 1)") == IntPoly([0, 3, 3, 3])
        # the largest coefficient bound at the largest degree that fits
        _check(0, 3, MAX_COEFF_BITS)
        with pytest.raises(ParseError, match="the expansion could exceed"):
            _check(0, 4, MAX_COEFF_BITS)

    def test_bound_never_exceeds_the_old_estimate(self):
        def old_bits(poly):
            # the earlier estimate: bits of the largest coefficient plus bits
            # of the length; n times it for a power, summed for a product
            if poly.is_zero:
                return 0
            return max(map(int.bit_length, poly.coeffs)) + len(poly.coeffs).bit_length()

        def bounded(poly, bits):
            return all(abs(c) <= 2**bits for c in poly.coeffs)

        rng = random.Random(24)
        for _ in range(400):
            a, b = (IntPoly([rng.randint(-2**64, 2**64) for _ in range(rng.randint(1, 4))])
                    for _ in range(2))
            n = rng.randint(0, 8)
            power = a**n
            assert n * _norm_bits(a) <= n * old_bits(a)
            assert bounded(power, n * _norm_bits(a))
            for u, v in ((a, b), (power, b), (power, power)):
                assert _norm_bits(u) + _norm_bits(v) <= old_bits(u) + old_bits(v)
                assert bounded(u * v, _norm_bits(u) + _norm_bits(v))
            v = abs(a.coeffs[0]) if a.coeffs else 0
            assert max(v - 1, 0).bit_length() <= v.bit_length()

    def test_size_limit_on_powers(self):
        with pytest.raises(ParseError) as err:
            parse_poly("(x+1)^4000")
        assert err.value.position == 6
        assert "could exceed" in str(err.value)

    def test_size_limit_on_products(self):
        # 2^2000 x^2000 is admitted (2001 * 2000 bits); another 2^2000
        # doubles its coefficient bits
        assert parse_poly("2^2000 x^2000").coeffs[-1] == 2**2000
        src = "2^2000 x^2000 * 2^2000"
        with pytest.raises(ParseError) as err:
            parse_poly(src)
        assert err.value.position == src.rindex("2^")

    def test_coefficient_limit_on_literals(self):
        digits = MAX_COEFF_BITS // 3  # 10^d has more than 3d bits
        with pytest.raises(ParseError) as err:
            parse_poly("x + 1" + "0" * digits)
        assert err.value.position == 4

    def test_literal_edge_matches_the_power_edge(self):
        # a literal v is bounded by ceil(log2 v) bits, so 2^MAX_COEFF_BITS
        # parses written out in decimal as it does as a power
        text = render_poly(IntPoly([2**MAX_COEFF_BITS, 1]))
        assert parse_poly(text) == parse_poly(f"x + 2^{MAX_COEFF_BITS}")
        # 2^MAX_COEFF_BITS ends in 6: the same digits ending in 7 are one more
        assert text.endswith("6")
        with pytest.raises(ParseError) as err:
            parse_poly(text[:-1] + "7")
        assert err.value.position == 4
        assert "coefficients could exceed" in str(err.value)


class TestRender:
    def test_canonical_forms(self):
        assert render_poly(IntPoly([2, 2, 1])) == "x^2 + 2x + 2"
        assert render_poly(IntPoly([5, -2, 0, 1])) == "x^3 - 2x + 5"
        assert render_poly(IntPoly()) == "0"
        assert render_poly(IntPoly([0, 1])) == "x"
        assert render_poly(IntPoly([-24])) == "-24"
        assert render_poly(IntPoly([0, -1, 1])) == "x^2 - x"

    def test_parse_render_round_trip(self):
        import random

        rng = random.Random(3)
        for _ in range(200):
            coeffs = [rng.randint(-99, 99) for _ in range(rng.randint(1, 9))]
            f = IntPoly(coeffs)
            assert parse_poly(render_poly(f)) == f

    def test_round_trip_beyond_int_str_limit(self):
        # CPython's int/str conversion refuses more than 4300 digits by default
        assert render_poly(IntPoly([10**5000])) == "1" + "0" * 5000
        assert parse_poly("1" + "0" * 5000) == IntPoly([10**5000])
        coeffs = [-(10**600), 10**601 - 1, 7**27001, -(2**60000 + 12345), 1]
        f = IntPoly(coeffs)
        assert parse_poly(render_poly(f)) == f

    def test_render_parse_idempotent(self):
        for src in ("x^2+2x+2", "(x+1)^3", " 7x - 4 ", "-x^2 + 3"):
            once = render_poly(parse_poly(src))
            assert render_poly(parse_poly(once)) == once


def schoolbook(a, b):
    """The product of two coefficient lists, term by term."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def schoolbook_power(a, n):
    out = [1]
    for _ in range(n):
        out = schoolbook(out, a)
    return out


class TestMonomials:
    """A product with c*x^k, a power of c*x^k and a sum with a c*x^k term
    take shortcuts; each must equal the term-by-term result."""

    MONOMIALS = [[0] * k + [c] for c in (0, 1, -1, 7, -3**40) for k in (0, 1, 5)]
    DENSE = [[1], [-2, 0, 5], [3, 1, 0, 0, -4], [0, 0, 2, 1]]

    def test_products_and_powers(self):
        for m in self.MONOMIALS:
            for g in self.MONOMIALS + self.DENSE:
                expected = IntPoly(schoolbook(m, g))
                assert IntPoly(m) * IntPoly(g) == expected, (m, g)
                assert IntPoly(g) * IntPoly(m) == expected, (m, g)
            for n in range(5):
                assert IntPoly(m) ** n == IntPoly(schoolbook_power(m, n)), (m, n)

    @pytest.mark.parametrize("src, coeffs", [
        ("0*x^3", []),
        ("-5*x^7", [0] * 7 + [-5]),
        ("x - 3*x^0", [-3, 1]),
        ("2 - 2*x^0 + x^2", [0, 0, 1]),
        ("0*x^10000*x^10000", []),
        ("x^10000 - x^10000", []),
        ("(x-x)^0", [1]),
        ("0^0", [1]),
        ("(x-x)^3", []),
        ("-x^2*(x+1) - 4x^0*(x+1)", [-4, -4, -1, -1]),
    ])
    def test_parse(self, src, coeffs):
        f = parse_poly(src)
        assert f == IntPoly(coeffs)
        assert type(f.coeffs) is tuple and (not f.coeffs or f.coeffs[-1])


def add(a, b, sign):
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    return out


def expression_trees():
    """(source, coefficient list) pairs of random expressions, the list built
    by term-by-term products and powers."""
    leaves = st.one_of(
        st.integers(0, 30).map(lambda c: (str(c), [c] if c else [])),
        st.just(("x", [0, 1])),
    )

    def extend(inner):
        power = st.tuples(inner, st.integers(0, 3)).map(
            lambda t: (f"({t[0][0]})^{t[1]}", schoolbook_power(t[0][1], t[1])))
        product = st.tuples(inner, inner).map(
            lambda t: (f"({t[0][0]})*({t[1][0]})", schoolbook(t[0][1], t[1][1])))
        total = st.tuples(inner, inner, st.sampled_from("+-")).map(
            lambda t: (f"{t[0][0]} {t[2]} ({t[1][0]})",
                       add(t[0][1], t[1][1], -1 if t[2] == "-" else 1)))
        return st.one_of(power, product, total)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tree=expression_trees())
def test_parse_matches_term_by_term_reference(tree):
    src, coeffs = tree
    assert parse_poly(src) == IntPoly(coeffs), src
