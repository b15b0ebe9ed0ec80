import gc
import math
import random
import re
import weakref

import pytest

from oracles import (
    enumerate_monic_fp,
    exhaustive_ext_factor_degrees,
    exhaustive_fp_factor,
    gen,
    plain_distinct_degree,
    plain_gcd,
    pow_mod,
    rabin_is_irreducible,
    recompose_factorization,
)
from phinewton import is_prime, residue_field
from phinewton.expr import parse_poly
from phinewton.polyring import IntPoly
from phinewton.residue_field import (
    ExtField,
    FqPoly,
    PrimeField,
    _distinct_degree,
    _equal_degree,
    _Modulus,
    _squarefree_parts,
    factor_degrees,
    fp_factorize,
)


def factor_count(g):
    """The number of irreducible factors of g, with multiplicity."""
    return sum(a for _, a in factor_degrees(g))


def degree_list(pairs):
    """Sorted factor degrees, with multiplicity, from (d, a) pairs."""
    return sorted(d for d, a in pairs for _ in range(a))


def random_fp(rng, p, max_degree, monic=False):
    deg = rng.randint(1, max_degree)
    coeffs = [rng.randrange(p) for _ in range(deg + 1)]
    coeffs[-1] = 1 if monic else rng.randrange(1, p)
    return FqPoly(p, coeffs)


class TestFpPoly:
    def test_reduction_and_normalization(self):
        f = FqPoly(5, [7, -1, 10])
        assert f.coeffs == (2, 4)
        assert FqPoly(3, [3, 6]).is_zero

    def test_arithmetic(self):
        f = FqPoly(5, [1, 2, 3])
        g = FqPoly(5, [4, 1])
        assert (f + g).coeffs == (0, 3, 3)
        assert (f - g).coeffs == (2, 1, 3)
        assert (f * g) % g == FqPoly(5)
        q, r = divmod(f, g)
        assert q * g + r == f

    def test_divmod_random_multiply_back(self):
        rng = random.Random(1)
        for p in (2, 3, 5, 7):
            for _ in range(100):
                f = random_fp(rng, p, 8)
                g = random_fp(rng, p, 4)
                q, r = divmod(f, g)
                assert q * g + r == f
                assert r.degree < g.degree

    def test_gcd(self):
        rng = random.Random(2)
        for _ in range(100):
            a = random_fp(rng, 5, 6)
            b = random_fp(rng, 5, 6)
            g = a.gcd(b)
            assert g.is_monic and g == plain_gcd(a, b)
            assert (a % g).is_zero and (b % g).is_zero

    def test_pow_mod(self):
        f = FqPoly(3, [1, 0, 1])
        x = FqPoly.x(3)
        assert x.pow_mod(9, f) == x.pow_mod(8, f) * x % f
        # n = 0 for a base that is no monomial and for zero; a constant
        # modulus leaves only 0
        zero, constant = FqPoly(3), FqPoly(3, [2])
        for base in (FqPoly(3, [2, 1, 0, 1, 1]), zero):
            assert base.pow_mod(0, f) == FqPoly(3, [1])
            assert base.pow_mod(0, constant) == base.pow_mod(4, constant) == zero
        assert zero.pow_mod(3, f) == zero
        with pytest.raises(ValueError, match="negative exponent"):
            x.pow_mod(-1, f)
        # FqPoly.__pow__ over F_3 and F_4, against repeated products
        for field in (FqPoly(3).field, ExtField(FqPoly(2, [1, 1, 1]))):
            one = FqPoly(field, [field.one])
            zero = FqPoly(field)
            base = FqPoly(field, [field.one, field.one, 0, field.one])  # 1 + y + y^3
            assert base**0 == zero**0 == one
            expected = one
            for n in range(1, 6):
                expected = expected * base
                assert base**n == expected, (field, n)
                assert zero**n == zero
            with pytest.raises(ValueError, match="negative exponent"):
                base**-1

    def test_derivative(self):
        assert FqPoly(3, [2, 1, 1, 1]).derivative() == FqPoly(3, [1, 2])
        # derivative of a cube vanishes in characteristic 3
        f = FqPoly(3, [1, 1]) ** 3
        assert f.derivative().is_zero

    def test_str(self):
        assert str(FqPoly(2, [1, 1, 1])) == "x^2 + x + 1"
        assert str(FqPoly(5, [])) == "0"


F4 = ExtField(FqPoly(2, [1, 1, 1]))

GUARDS = {  # id: (call, exception type, message, or None for any message)
    "prime-field-1": (lambda: PrimeField(1), ValueError, "modulus must be >= 2"),
    "mixed-fields": (lambda: FqPoly(2, [1]) + FqPoly(3, [1]), ValueError, "mixed fields"),
    "fq-divide-by-zero": (lambda: divmod(FqPoly(3, [1, 1]), FqPoly(3)),
                          ZeroDivisionError, "division by the zero polynomial"),
    "int-divide-by-zero": (lambda: divmod(IntPoly([1, 1]), IntPoly([])),
                           ValueError, "division by the zero polynomial"),
    "ext-over-ext": (lambda: ExtField(FqPoly(F4, [1, 1, 1])),
                     ValueError, "modulus must be a polynomial over a prime field"),
    "ext-not-monic": (lambda: ExtField(FqPoly(3, [1, 2])),
                      ValueError, "modulus must be monic of degree >= 1"),
    "ext-constant": (lambda: ExtField(FqPoly(3, [1])),
                     ValueError, "modulus must be monic of degree >= 1"),
    "ext-inverse-of-zero": (lambda: F4.inv(F4.zero), ZeroDivisionError, "inverse of zero"),
    "factorize-over-ext": (lambda: fp_factorize(FqPoly(F4, [1, 1])),
                           ValueError, "complete factorization needs a prime field"),
    # the namedtuple field descriptor's message varies across CPython versions
    "intpoly-setattr": (lambda: setattr(IntPoly([1]), "coeffs", ()), AttributeError, None),
    "fqpoly-setattr": (lambda: setattr(FqPoly(3, [1]), "coeffs", ()), AttributeError, None),
    "primefield-setattr": (lambda: setattr(FqPoly(3).field, "p", 5), AttributeError, None),
    "extfield-setattr": (lambda: setattr(F4, "m", 3), AttributeError, None),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_input_guards(call, error, message):
    with pytest.raises(error, match=message and f"^{re.escape(message)}$"):
        call()


class TestTupleHazards:
    """FqPoly and the fields are tuples; these pin the behaviour that plain
    tuple methods would otherwise give them."""

    def test_int_times_poly_raises(self):
        with pytest.raises(TypeError):
            2 * FqPoly(3, [1, 1])

    def test_zero_poly_is_false(self):
        assert not FqPoly(3) and FqPoly(3, [1])

    def test_values_stay_tracked_by_the_collector(self):
        # a collection untracks exact tuples whose items are all untracked,
        # as PrimeField's ints are; a leaked field must stay visible to
        # gc.get_objects()
        values = [FqPoly(3).field, F4, FqPoly(3, [1, 1])]
        gc.collect()
        assert all(gc.is_tracked(v) for v in values)


class TestFpGcd:
    """FqPoly.gcd, Euclid on plain coefficient lists, against plain_gcd,
    Euclid on FqPoly's divmod, over F_p, F_4 and F_9."""

    @pytest.mark.parametrize("field", [
        FqPoly(2).field, FqPoly(3).field, FqPoly(65521).field,
        ExtField(FqPoly(2, [1, 1, 1])), ExtField(FqPoly(3, [1, 0, 1])),
    ], ids=["2", "3", "65521", "F_4", "F_9"])
    def test_matches_plain_gcd(self, field):
        rng = random.Random(field.q)

        def poly(max_degree):  # not monic unless its unit is 1
            degree = rng.randint(1, max_degree)
            return random_monic(rng, field, degree).scale(random_unit(rng, field))

        zero, unit = FqPoly(field), FqPoly(field, [random_unit(rng, field)])
        for _ in range(150):
            a, b = poly(12), poly(12)
            common = poly(5)  # a nontrivial gcd
            pairs = [(a, b), (a * common, b * common), (a, a),
                     (a, a.scale(random_unit(rng, field))),
                     (a, zero), (zero, a), (a, unit), (unit, a)]
            for u, v in pairs:
                g = u.gcd(v)
                assert g == plain_gcd(u, v), (u, v)
                assert g.is_zero or g.is_monic
        assert zero.gcd(zero) == zero
        assert unit.gcd(zero) == FqPoly(field, [field.one])


class TestFpIrreducible:
    def test_known_cases(self):
        assert rabin_is_irreducible(FqPoly(2, [1, 1, 1]))
        assert not rabin_is_irreducible(FqPoly(2, [1, 0, 1]))  # (x+1)^2
        assert rabin_is_irreducible(FqPoly(2, [1, 1]))
        assert not rabin_is_irreducible(FqPoly(2, [1]))

    def test_against_exhaustive_enumeration(self):
        # the package's decision, one factor of degree d, and Rabin's reference
        for p in (2, 3):
            for d in range(1, 5):
                for f in enumerate_monic_fp(p, d):
                    expected = exhaustive_fp_factor(f).factor_count == 1
                    assert (factor_degrees(f) == ((d, 1),)) == expected, f
                    assert rabin_is_irreducible(f) == expected, f


class TestFpFactorize:
    def test_irreducible_quadratic(self):
        fact = fp_factorize(FqPoly(2, [1, 1, 1]))
        assert fact.factors == ((FqPoly(2, [1, 1, 1]), 1),)
        assert fact.unit == 1

    def test_monomial_power(self):
        fact = fp_factorize(FqPoly(3, [0, 0, 1]))
        assert fact.factors == ((FqPoly.x(3), 2),)
        assert fact.unit == 1

    def test_construct_then_factor(self):
        # three known irreducibles over F_5
        parts = [FqPoly(5, [1, 1]), FqPoly(5, [2, 0, 1]), FqPoly(5, [1, 1, 1])]
        for g in parts:
            assert rabin_is_irreducible(g)
        product = parts[0] * parts[1] * parts[2]
        fact = fp_factorize(product)
        assert sorted(f.coeffs for f, _ in fact.factors) == sorted(
            g.coeffs for g in parts
        )
        assert all(k == 1 for _, k in fact.factors)

    def test_unit_preserved(self):
        f = FqPoly(5, [1, 1]) * FqPoly(5, [2, 1])
        fact = fp_factorize(f.scale(3))
        assert fact.unit == 3
        assert recompose_factorization(fact) == f.scale(3)

    def test_pth_power_char2(self):
        f = FqPoly(2, [1, 1, 1]) ** 4
        assert f.derivative().is_zero
        fact = fp_factorize(f)
        assert fact.factors == ((FqPoly(2, [1, 1, 1]), 4),)

    def test_recompose_and_determinism_random(self):
        rng = random.Random(9)
        for p in (2, 3, 5):
            for _ in range(60):
                f = random_fp(rng, p, 8)
                fact = fp_factorize(f)
                assert recompose_factorization(fact) == f
                assert all(rabin_is_irreducible(g) for g, _ in fact.factors)
                assert fp_factorize(f) == fact

    def test_equal_degree_split_is_seed_independent(self):
        """The PRNG only drives the random splits of Cantor-Zassenhaus, so
        any seed gives the same factors once they are sorted."""
        fs = list(_equal_degree_inputs())
        assert {f.p for f in fs} == {2, 3, 5, 7}
        for f in fs:
            products = [(prod, e, mod) for part, _ in _squarefree_parts(f.monic())
                        for mod in [_Modulus(part)]
                        for prod, e in _distinct_degree(part, mod) if prod.degree > e]
            assert products, f  # the split runs
            for prod, e, mod in products:
                splits = [sorted(_equal_degree(prod, e, random.Random(s), mod),
                                 key=lambda g: g.coeffs)
                          for s in (0, 1, 12345)]
                assert splits[0] == splits[1] == splits[2], (f, prod)
                assert len(splits[0]) == prod.degree // e

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fp_factorize(FqPoly(2))

    def test_recompose_constant(self):
        fact = fp_factorize(FqPoly(5, [3]))
        assert fact.factors == ()
        assert recompose_factorization(fact) == FqPoly(5, [3])


def _splits_equal_degree(f):
    """f has two distinct irreducible factors of one degree and one
    multiplicity, so Cantor-Zassenhaus must split their product."""
    shapes = [(g.degree, k) for g, k in fp_factorize(f).factors]
    return len(shapes) > len(set(shapes))


def _equal_degree_inputs():
    """Polynomials over F_p that split equal-degree factors, at p = 2 (trace
    map) and odd p (pow_mod): fixed products, then seeded random monic ones."""
    yield parse_poly("(x^3+x+1)*(x^3+x^2+1)*(x^2+x+1)+2*x").reduce_mod(2)
    yield parse_poly("(x+1)*(x+2)*(x^2+1)*(x^2+x+2)+3").reduce_mod(3)
    yield parse_poly("x^4+4").reduce_mod(5)
    rng = random.Random(2718)
    for p in (2, 3, 5, 7):
        found = 0
        while found < 4:
            coeffs = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randint(4, 9))]
            f = IntPoly(coeffs + [1]).reduce_mod(p)
            if _splits_equal_degree(f):
                found += 1
                yield f


class TestExtField:
    def test_f4_multiplication_table(self):
        field = ExtField(FqPoly(2, [1, 1, 1]))
        b, mod = gen(field), field.modulus
        assert b * b % mod == b + field.one  # x^2 = x + 1 mod x^2+x+1
        assert b * (b + field.one) % mod == field.one
        assert field.inv(b + field.one) == b

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            ExtField(FqPoly(2, [1, 0, 1]))

    def test_accepts_exactly_the_irreducible_moduli(self):
        for p in (2, 3):
            for d in range(1, 5):
                for f in enumerate_monic_fp(p, d):
                    try:
                        ExtField(f)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == (exhaustive_fp_factor(f).factor_count == 1), f

    def test_frobenius_fixes_field(self):
        rng = random.Random(13)
        for modulus in (
            FqPoly(2, [1, 1, 1]),
            FqPoly(2, [1, 1, 0, 1]),
            FqPoly(3, [1, 0, 1]),
            FqPoly(5, [2, 0, 1]),
        ):
            field = ExtField(modulus)
            for _ in range(20):
                a = field.elem([rng.randrange(field.p) for _ in range(field.m)])
                assert a.pow_mod(field.q, field.modulus) == a
                assert field.pth_root(a).pow_mod(field.p, field.modulus) == a

    def test_inverse_random(self):
        rng = random.Random(14)
        for modulus in (
            FqPoly(5, [2, 1]),  # F_5[x]/(x - 3)
            FqPoly(2, [1, 1, 0, 1]),  # F_8
            FqPoly(3, [2, 2, 1]),  # F_9
            FqPoly(3, [1, 2, 0, 0, 0, 1]),  # F_{3^5}
            FqPoly(10007, [1, 1, 0, 1]),  # F_{10007^3}
        ):
            field = ExtField(modulus)
            for _ in range(50):
                a = field.elem([rng.randrange(field.p) for _ in range(field.m)])
                if a.is_zero:
                    continue
                assert a * field.inv(a) % field.modulus == field.one, (modulus, a)


class TestExtIrreducible:
    def test_y2_plus_y_plus_1_over_f2(self):
        field = ExtField(FqPoly.x(2))  # F_2 presented as F_2[x]/(x)
        g = FqPoly(field, [1, 1, 1])
        assert rabin_is_irreducible(g)
        assert factor_degrees(g) == ((2, 1),)

    def test_y2_plus_1_over_f2(self):
        field = ExtField(FqPoly.x(2))
        g = FqPoly(field, [1, 0, 1])  # (y+1)^2
        assert not rabin_is_irreducible(g)
        assert factor_degrees(g) == ((1, 2),)

    def test_y2_minus_generator_over_f4(self):
        field = ExtField(FqPoly(2, [1, 1, 1]))
        b = gen(field)
        g = FqPoly(field, [-b, field.zero, field.one])
        expected = exhaustive_ext_factor_degrees(g)
        assert expected == [1, 1]  # y^2 + b = (y + (b+1))^2 in characteristic 2
        assert not rabin_is_irreducible(g)
        assert degree_list(factor_degrees(g)) == expected

    def test_agrees_with_exhaustive_count_small(self):
        rng = random.Random(21)
        for modulus in (FqPoly(2, [1, 1, 1]), FqPoly(3, [1, 0, 1])):
            field = ExtField(modulus)
            for _ in range(60):
                deg = rng.randint(1, 4)
                coeffs = [
                    field.elem([rng.randrange(field.p) for _ in range(field.m)])
                    for _ in range(deg)
                ]
                coeffs.append(field.one)
                g = FqPoly(field, coeffs)
                expected = exhaustive_ext_factor_degrees(g)
                assert degree_list(factor_degrees(g)) == expected
                assert rabin_is_irreducible(g) == (len(expected) == 1)

    def test_two_distinct_linear_factors_over_f9(self):
        field = ExtField(FqPoly(3, [1, 0, 1]))  # F_9
        b = gen(field)
        g = FqPoly(field, [b, field.one]) * FqPoly(field, [b + field.one, field.one])
        assert factor_degrees(g) == ((1, 2),)

    def test_pth_power_over_extension(self):
        # (y + b)^2 has zero derivative over F_4; the Frobenius-inverse root
        # extraction must still count both factors
        field = ExtField(FqPoly(2, [1, 1, 1]))
        g = FqPoly(field, [gen(field), field.one]) ** 2
        assert g.derivative().is_zero
        assert factor_degrees(g) == ((1, 2),)

    def test_degree_zero(self):
        field = ExtField(FqPoly.x(2))
        # a constant is not irreducible, as over F_p
        assert not rabin_is_irreducible(FqPoly(field, [1]))
        with pytest.raises(ValueError):
            factor_degrees(FqPoly(field, [1]))


class TestFactorDegrees:
    """factor_degrees gives the degrees of the factorization, with
    multiplicity, also for repeated and p-th-power factors."""

    @pytest.mark.parametrize("p", [2, 3, 10007])
    def test_matches_fp_factorize(self, p):
        rng = random.Random(p)
        field = FqPoly(p).field
        for _ in range(30):
            parts = [random_monic(rng, field, rng.randint(1, 6))
                     for _ in range(rng.randint(1, 4))]
            parts += parts[:rng.randint(0, len(parts))]  # repeated factors
            if p < 5:
                parts.append(parts[0] ** p)  # a p-th power
            f = math.prod(parts, start=FqPoly(p, [rng.randrange(1, p)]))
            expected = sorted(g.degree for g, k in fp_factorize(f).factors
                              for _ in range(k))
            assert degree_list(factor_degrees(f)) == expected, f

    def test_matches_exhaustive_over_extensions(self):
        rng = random.Random(48)
        for modulus in (FqPoly(2, [1, 1, 1]), FqPoly(2, [1, 1, 0, 1]),
                        FqPoly(3, [1, 0, 1])):  # F_4, F_8, F_9
            field = ExtField(modulus)
            for k in range(1, field.p + 2):
                for _ in range(4):
                    a = random_monic(rng, field, rng.randint(1, 6 // (k + 1)))
                    b = random_monic(rng, field, rng.randint(1, 6 - k * a.degree))
                    g = a**k * b
                    assert degree_list(factor_degrees(g)) == (
                        exhaustive_ext_factor_degrees(g)), g


class TestLinearCount:
    def test_linear_counts_one_without_splitting(self, monkeypatch):
        f9 = ExtField(FqPoly(3, [1, 0, 1]))
        f16 = ExtField(FqPoly(2, [1, 1, 0, 0, 1]))
        linear = [FqPoly(65521, [5, 3]), FqPoly(65521, [0, 1]), FqPoly(2, [1, 1]),
                  FqPoly(f9, [gen(f9), 2]), FqPoly(f16, [0, gen(f16)])]

        def forbidden(*args):
            raise AssertionError("a linear polynomial was split or inverted")

        for name in ("_squarefree_parts", "_distinct_degree"):
            monkeypatch.setattr(residue_field, name, forbidden)
        for cls in (residue_field.PrimeField, residue_field.ExtField):
            monkeypatch.setattr(cls, "inv", forbidden)
        for g in linear:
            assert factor_degrees(g) == ((1, 1),), g


class TestFieldTypesAgree:
    """F_p as a PrimeField and as the extension F_p[x]/(x) give one answer."""

    def test_counts_and_verdicts(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            field = ExtField(FqPoly.x(p))
            for _ in range(40):
                f = random_fp(rng, p, 8, monic=True)
                degrees = factor_degrees(f)
                count = factor_count(f)
                assert count == fp_factorize(f).factor_count, f
                assert rabin_is_irreducible(f) == (count == 1), f
                g = FqPoly(field, f.coeffs)
                assert factor_degrees(g) == degrees, f
                assert rabin_is_irreducible(g) == (count == 1), f


def loop_degrees(g):
    """factor_degrees by its loops, over g's own field."""
    return tuple((e, mult * (prod.degree // e))
                 for part, mult in _squarefree_parts(g.monic())
                 for prod, e in _distinct_degree(part))


class TestDegreeOneFieldCount:
    """F_p[x]/(x - a) is F_p: a polynomial over it is counted as the image
    of its constant terms over F_p."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
    def test_count_equals_the_image_count(self, p):
        rng = random.Random(p)
        for _ in range(30):
            a = rng.randrange(p)
            field = ExtField(FqPoly(p, [-a, 1]))
            degree = rng.randint(1, 12)
            # each element is reduced mod x - a from an F_p polynomial
            coeffs = [[rng.randrange(p) for _ in range(3)] for _ in range(degree)]
            g = FqPoly(field, coeffs + [[rng.randrange(1, p)]])
            image = FqPoly(p, [c.coeffs[0] if c else 0 for c in g.coeffs])
            degrees = factor_degrees(g)
            assert degrees == factor_degrees(image) == loop_degrees(g), g
            assert factor_count(g) == fp_factorize(image).factor_count

    def test_routes(self, monkeypatch):
        # the split runs over F_p for a degree-1 field, over F_4 for F_4
        seen = []

        def recording(f):
            seen.append(f.field)
            return _distinct_degree(f)

        monkeypatch.setattr(residue_field, "_distinct_degree", recording)
        f2 = FqPoly(2).field
        line = ExtField(FqPoly(2, [1, 1]))
        f4 = ExtField(FqPoly(2, [1, 1, 1]))
        g = FqPoly(line, [1, 1, 1])  # y^2 + y + 1, irreducible over F_2
        assert factor_degrees(g) == ((2, 1),)
        assert seen and all(field == f2 for field in seen)
        seen.clear()
        h = FqPoly(f4, [1, 1, 1])  # splits over F_4: (y - w)(y - w^2)
        assert factor_degrees(h) == ((1, 2),) == loop_degrees(h)
        assert seen and all(field == f4 for field in seen)


def small_fields():
    """F_2, F_3, F_65521, F_4, F_8 and F_9."""
    return [
        FqPoly(2).field,
        FqPoly(3).field,
        FqPoly(65521).field,
        ExtField(FqPoly(2, [1, 1, 1])),
        ExtField(FqPoly(2, [1, 1, 0, 1])),
        ExtField(FqPoly(3, [1, 0, 1])),
    ]


def random_elem(rng, field):
    if field.m == 1:
        return rng.randrange(field.p)
    return field.elem([rng.randrange(field.p) for _ in range(field.m)])


def random_unit(rng, field):
    while True:
        c = random_elem(rng, field)
        if c:
            return c


def random_monic(rng, field, degree):
    return FqPoly(field, [random_elem(rng, field) for _ in range(degree)] + [field.one])


def irreducible_product(rng, p, degrees):
    """The product of distinct random monic irreducibles over F_p, one of
    each listed degree.  They are drawn by the package's own factor degrees."""
    factors = []
    for d in degrees:
        g = random_monic(rng, FqPoly(p).field, d)
        while g in factors or factor_degrees(g) != ((d, 1),):
            g = random_monic(rng, FqPoly(p).field, d)
        factors.append(g)
    return math.prod(factors[1:], start=factors[0])


class TestFrobeniusTable:
    def test_matches_pow_mod(self):
        rng = random.Random(41)
        for field in small_fields():
            x = FqPoly.x(field)
            for degree in (1, 2, 3, 4, 5, 7):
                for _ in range(6):
                    f = random_monic(rng, field, degree)
                    mod = _Modulus(f)
                    assert mod.xq == pow_mod(x, field.q, f), f
                    # the table rows T[i] = x^(i*q), T[0] = 1 among them
                    for i in range(degree):
                        row = pow_mod(x, i, f)
                        assert mod.qmap(row) == pow_mod(row, field.q, f), (f, i)
                    for _ in range(4):
                        h = FqPoly(field, [random_elem(rng, field)
                                           for _ in range(degree)])
                        assert mod.qmap(h) == pow_mod(h, field.q, f), (f, h)

    @pytest.mark.parametrize("p", [3, 10007, 65521, 2**31 - 1])
    def test_table_rows(self, p):
        """Row i of the table is qmap(x^i) = x^(i*q) mod f.  Packed, the
        table comes from its own linear map, so every row of degree 1-40 is
        checked against x^q multiplied in by schoolbook products, and the
        last against pow_mod; past the slot bound (2^31 - 1) the rows are
        products mod f, as before."""
        rng = random.Random(p)
        field = FqPoly(p).field
        x = FqPoly.x(field)
        for degree in range(1, 41 if p < 2**31 - 1 else 13):
            f = random_monic(rng, field, degree)
            mod = _Modulus(f)
            assert mod.packed == (2 * degree * (p - 1) ** 2 < 1 << 64)
            xq = pow_mod(x, p, f)
            row = FqPoly(p, [1])
            for i in range(degree):
                assert mod.qmap(pow_mod(x, i, f)) == row, (f, i)
                row = row * xq % f
            assert mod.qmap(pow_mod(x, degree - 1, f)) == pow_mod(x, (degree - 1) * p, f)

    @pytest.mark.parametrize("p", [10007, 2**31 - 1])
    def test_map_keeps_no_cycle(self, p):
        """A _Modulus whose map was read is freed as soon as it is dropped,
        with the cyclic collector off: its map holds no reference to it."""
        f = FqPoly(p, [1, 2, 3, 1])  # x^3 + 3x^2 + 2x + 1
        mod = _Modulus(f)
        assert mod.packed == (p == 10007)
        assert mod.qmap(FqPoly.x(f.field)) == pow_mod(FqPoly.x(f.field), p, f)
        ref = weakref.ref(mod)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del mod
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_distinct_degree_matches_reference(self):
        rng = random.Random(42)
        # degree up to 9 over every small field; up to 60 over F_p, where the
        # degrees go in blocks of up to 5, but one at a time at 2^31 - 1,
        # past the slot bound of packed products
        cases = [(field, 9, 12) for field in small_fields()]
        cases += [(FqPoly(p).field, 60, 5) for p in (2, 3, 10007, 65521, 2**31 - 1)]
        for field, max_degree, count in cases:
            checked = 0
            while checked < count:
                f = random_monic(rng, field, rng.randint(1, max_degree))
                if plain_gcd(f, f.derivative()).degree != 0:
                    continue  # not squarefree
                assert _distinct_degree(f) == plain_distinct_degree(f), f
                checked += 1

    @pytest.mark.parametrize("p", [2, 10007])
    def test_distinct_degree_block_edges(self, p):
        """Products of irreducibles of chosen degrees.  With deg f = n the
        blocks are e = 1..l, l+1..2l, ... for l = isqrt(n // 2).  The expected
        degrees hold only if the package's count drew true irreducibles; the
        oracle split checks the rest."""
        rng = random.Random(p)
        # n = 36, l = 4: blocks 1-4, 5-8, 9-12, ...
        shapes = [
            [4, 4, 4, 3, 3, 18],  # several factors of one degree in one block
            [1, 4, 5, 8, 18],     # the first and last degree of blocks 1 and 2
            [1, 6, 29],           # 6 alone in block 5-8: deg g < 2e at e = 5
            [16, 20],             # the rest, of degree 20, left after the loop
            [18, 18],             # none below deg f / 2: the last degree of a cut block
            [36],                 # irreducible: every block gcd is 1
        ]
        for degrees in shapes:
            f = irreducible_product(rng, p, degrees)
            assert f.degree == 36
            out = _distinct_degree(f)
            assert out == plain_distinct_degree(f), degrees
            assert [e for _, e in out] == sorted(set(degrees)), degrees


class _CountingRandom(random.Random):
    """random.Random that counts its randrange calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


class TestCantorZassenhausTrace:
    """Cantor-Zassenhaus forms the trace T(r) = r + r^p + ... + r^(p^(e-1))
    through the Frobenius map of the squarefree part, for every p.  At
    p = 2 it splits by gcd(f, T); for odd p it raises T to (p-1)/2 on three
    or more factors, and splits two factors at a root of T's quadratic."""

    # 2^31 - 1 is past the slot bound: its products and map run unpacked
    @pytest.mark.parametrize("p", [2, 3, 5, 10007, 65521, 2**31 - 1])
    def test_draws_are_traces(self, p, monkeypatch):
        power, quadratic = residue_field._power, residue_field._quadratic_split
        gcd, draws, gcds = FqPoly.gcd, [], []

        def recorded_power(base, n, mul, one):
            draws.append((n, mul.__self__.f, base))
            return power(base, n, mul, one)

        def recorded_split(f, trace, square):
            draws.append((None, f, trace))
            return quadratic(f, trace, square)

        def recorded_gcd(f, g):
            gcds.append((None, f, g))
            return gcd(f, g)

        monkeypatch.setattr(residue_field, "_power", recorded_power)
        monkeypatch.setattr(residue_field, "_quadratic_split", recorded_split)
        monkeypatch.setattr(FqPoly, "gcd", recorded_gcd)
        rng = random.Random(p)
        # (degree e, number of degree-e irreducibles): F_3 has 3 quadratics,
        # F_2 one quadratic, two cubics and three quartics
        shapes = ([(1, 2), (3, 2), (4, 3), (5, 3), (6, 2), (7, 4)] if p == 2 else
                  [(2, 3), (3, 4), (4, 2), (5, 3), (6, 2), (7, 4)])
        for e, k in shapes:
            # the part has one more factor, so the trace is reduced mod f
            part = irreducible_product(rng, p, [e] * k + [e + 1])
            mod = _Modulus(part)
            (f, d), _ = _distinct_degree(part, mod)
            assert d == e and f.degree == k * e
            draws.clear()  # drop x^q
            gcds.clear()  # drop the distinct-degree split's gcds
            values = _CountingRandom(e)
            factors = _equal_degree(f, e, values, mod)
            assert math.prod(factors[1:], start=factors[0]) == f
            assert len(factors) == k
            if p == 2:  # no power and no quadratic: each draw is gcd(f, T)
                assert not draws
            else:
                # a power for each draw on more than two factors, none on two
                assert all((n is None) == (g.degree == 2 * e) for n, g, _ in draws)
                assert all(n in (None, (p - 1) // 2) for n, _, _ in draws)
                assert any(n is None for n, _, _ in draws)
                assert (k == 2) == all(n is None for n, _, _ in draws)
            traces = gcds if p == 2 else draws
            assert values.calls == 2 * e * len(traces)  # no redraw
            replay = random.Random(e)  # the same draws, in the same order
            for _, g, t in traces:
                r = FqPoly(p, [replay.randrange(p) for _ in range(2 * e)])
                assert g.degree % e == 0 and not (f % g)
                trace = sum((pow_mod(r, p**j, g) for j in range(e)), FqPoly(p))
                assert t == trace, (f, g, r)


class TestCantorZassenhausNorm:
    """The rest of Cantor-Zassenhaus: two-factor splits at a root of the
    trace's quadratic and the square roots they take, the products per draw,
    and the bound on failed draws.  The class keeps the name it had when
    draws formed a norm, so that its test ids stay stable."""

    @pytest.mark.parametrize("p", [3, 5, 10007, 40009, 65521])
    def test_two_factors_split_in_one_draw(self, p, monkeypatch):
        """Two irreducibles of degree e split into the pair, and the first
        draw splits them unless its trace is one constant c1 = c2 mod both."""
        quadratic, traces = residue_field._quadratic_split, []

        def recorded(f, trace, square):
            traces.append(trace)
            return quadratic(f, trace, square)

        monkeypatch.setattr(residue_field, "_quadratic_split", recorded)
        rng = random.Random(p)
        for e in range(1, 8):
            f1 = irreducible_product(rng, p, [e])
            f2 = irreducible_product(rng, p, [e])
            while f2 == f1:
                f2 = irreducible_product(rng, p, [e])
            f = f1 * f2
            traces.clear()
            factors = _equal_degree(f, e, random.Random(e), _Modulus(f))
            assert sorted(factors, key=lambda g: g.coeffs) == sorted(
                [f1, f2], key=lambda g: g.coeffs), (p, e)
            assert traces and all(t.degree < 1 for t in traces[:-1]), (p, e)
            assert traces[-1].degree >= 1, (p, e)

    @pytest.mark.parametrize("p", [3, 5, 10007, 65521])
    def test_irreducible_as_two_factors_is_refused(self, p):
        """An irreducible of degree 2e passed in as a product of two degree-e
        irreducibles has no root to split at: 64 draws, then RuntimeError."""
        rng = random.Random(p)
        for e in (1, 2, 3, 5):
            f = irreducible_product(rng, p, [2 * e])
            draws = _CountingRandom(0)
            with pytest.raises(RuntimeError, match=f"^no split of degree {2 * e} "
                               f"into degree-{e} factors in 64 draws$"):
                _equal_degree(f, e, draws, _Modulus(f))
            assert draws.calls == 64 * 2 * e

    def test_sqrt_mod_agrees_with_brute_force(self):
        """Every residue mod small primes, p = 3 and p = 1 mod 4 alike, through
        Tonelli-Shanks; a non-residue is refused with None."""
        sqrt_mod = residue_field._sqrt_mod
        for p in (3, 5, 7, 13, 17, 41, 97):
            squares = {x * x % p for x in range(p)}
            for a in range(-p, 2 * p):
                root = sqrt_mod(a, p)
                if a % p in squares:
                    assert root is not None and root * root % p == a % p, (a, p)
                else:
                    assert root is None, (a, p)
        rng = random.Random(40009)
        # p - 1 = 2^3 * 5001 and 2^4 * 4095: Tonelli-Shanks runs its loop;
        # p - 1 = 2 * 5003: s = 1, and the root is a^((p+1)/4) with no loop
        for p in (40009, 65521, 10007):
            for _ in range(2000):
                a = rng.randrange(p) ** 2 % p
                root = sqrt_mod(a, p)
                assert root is not None and root * root % p == a, (a, p)
                b = rng.randrange(1, p)
                if pow(b, (p - 1) // 2, p) == p - 1:
                    assert sqrt_mod(b, p) is None, (b, p)

    def test_products_per_draw(self, monkeypatch):
        """A draw on two degree-7 factors costs one product mod f at
        p = 40009, the square of the trace, and takes no power at all; at
        p = 2 it costs none."""
        calls = []
        mulmod = _Modulus.mulmod

        def counted(self, a, b):
            calls.append(self.f)
            return mulmod(self, a, b)

        e = 7
        for p, per_draw in ((40009, 1), (2, 0)):
            f = irreducible_product(random.Random(7), p, [e, e])
            mod = _Modulus(f)
            assert _distinct_degree(f, mod) == [(f, e)]
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(_Modulus, "mulmod", counted)
                draws = _CountingRandom(0)
                assert len(_equal_degree(f, e, draws, mod)) == 2
            assert draws.calls and draws.calls % (2 * e) == 0
            assert set(calls) <= {f}
            assert len(calls) == draws.calls // (2 * e) * per_draw, (p, len(calls))

    def test_split_on_a_fresh_modulus(self):
        """The q-power map comes from the _Modulus itself, so a split needs
        no distinct-degree split on the same object first."""
        a, b = FqPoly(3, [1, 0, 1]), FqPoly(3, [2, 1, 1])  # x^2+1, x^2+x+2
        f = a * b
        factors = _equal_degree(f, 2, random.Random(0), _Modulus(f))
        assert len(factors) == 2 and set(factors) == {a, b}

    @pytest.mark.parametrize("f", [
        FqPoly(2, [1, 1]) * FqPoly(2, [1, 1, 1]),  # (x+1)(x^2+x+1)
        FqPoly(5, [2, 0, 1]) * FqPoly(5, [1, 1]),  # (x^2+2)(x+1)
    ])
    def test_draws_are_bounded(self, f):
        """A product that is not all of degree e raises once 64 draws in a
        row split off no degree-e factor: here the quadratic, alone or with
        x + 1."""
        with pytest.raises(RuntimeError, match="^no split of degree [23] into "
                           "degree-1 factors in 64 draws$"):
            _equal_degree(f, 1, random.Random(0), _Modulus(f))


class TestPower:
    """_power is left-to-right: bit_length(n) - 1 squares and popcount(n) - 1
    products, each by the base itself."""

    def test_products_by_the_base(self):
        f = FqPoly(65521, [7, 0, 3, 1, 0, 1])
        bases = [(IntPoly([3, -1, 2]), IntPoly.__mul__, IntPoly.one()),
                 (FqPoly(5, [1, 2, 3]), FqPoly.__mul__, FqPoly(5, [1])),
                 (FqPoly(65521, [9, 1, 4]), _Modulus(f).mulmod, FqPoly(65521, [1]))]
        for base, product, one in bases:
            for n in range(71):
                squares = by_base = 0

                def mul(a, b):
                    nonlocal squares, by_base
                    if a is b:
                        squares += 1
                    else:
                        assert b is base
                        by_base += 1
                    return product(a, b)

                result = residue_field._power(base, n, mul, one)
                expected = one
                for _ in range(n):
                    expected = product(expected, base)
                assert result == expected, (base, n)
                assert squares == max(n.bit_length() - 1, 0), (base, n)
                assert by_base == max(bin(n).count("1") - 1, 0), (base, n)


class TestProvenFields:
    def test_reducible_modulus_still_rejected_after_factoring(self):
        square = FqPoly(2, [1, 0, 1])  # (x+1)^2
        assert fp_factorize(square).factors == ((FqPoly(2, [1, 1]), 2),)
        with pytest.raises(ValueError):
            ExtField(square)

    def test_factor_fields_are_built_without_rabin(self, monkeypatch):
        f = random_monic(random.Random(43), FqPoly(10007).field, 24)
        fact = fp_factorize(f)
        factors = [g for g, _ in fact.factors]

        def no_test(g):
            raise AssertionError("a proven factor was tested again")

        monkeypatch.setattr(residue_field, "factor_degrees", no_test)
        fields = fact.fields
        assert [field.modulus for field in fields] == factors
        assert all(type(field) is ExtField for field in fields)
        monkeypatch.undo()
        for g in factors:
            assert rabin_is_irreducible(g), g

    def test_unseen_modulus_runs_rabin(self, monkeypatch):
        # the factors of f are proven, but f itself is still tested, by its
        # factor degrees
        f = FqPoly(65521, [5, 1]) * FqPoly(65521, [7, 1])
        fp_factorize(f)
        calls = []
        degrees = residue_field.factor_degrees

        def counted(g):
            calls.append(g)
            return degrees(g)

        monkeypatch.setattr(residue_field, "factor_degrees", counted)
        with pytest.raises(ValueError):
            ExtField(f)
        assert calls == [f]


def slot_bound_primes(degree):
    """The largest prime p with 2 * degree * (p-1)^2 < 2^64, and the next."""
    below = math.isqrt(((1 << 64) - 1) // (2 * degree)) + 1
    while not (2 * degree * (below - 1) ** 2 < 1 << 64 and is_prime(below)):
        below -= 1
    above = below + 1
    while not is_prime(above):
        above += 1
    return below, above


class TestKronecker:
    """The packed products of _Modulus (Kronecker substitution) against
    schoolbook `*` and `%`, and FqPoly.pow_mod against the oracles'
    square-and-multiply."""

    BELOW, ABOVE = slot_bound_primes(8)

    def operands(self, rng, p, degree):
        """Reduced operands mod a degree-`degree` modulus: zero, constants,
        unequal lengths, random and all-(p-1) full length."""
        full = [FqPoly(p, [rng.randrange(p) for _ in range(degree)]) for _ in range(2)]
        short = FqPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, degree))])
        top = FqPoly(p, [p - 1] * degree)
        return [FqPoly(p), FqPoly(p, [1]), FqPoly(p, [p - 1]), short, top, *full]

    @pytest.mark.parametrize("p", [2, 3, 7, 65521])
    def test_products_match_schoolbook(self, p):
        rng = random.Random(p)
        for degree in range(1, 65):
            f = FqPoly(p, [rng.randrange(p) for _ in range(degree)] + [1])
            kernel = _Modulus(f)
            assert kernel.packed
            ops = self.operands(rng, p, degree)
            for a in ops:
                for b in ops[3:]:
                    assert kernel.mulmod(a, b) == a * b % f, (f, a, b)
                    assert kernel.mulmod(b, a) == a * b % f, (f, a, b)
                assert kernel.mulmod(a, a) == a * a % f, (f, a)

    def test_products_at_the_slot_bound(self):
        rng = random.Random(64)
        p = self.BELOW
        for _ in range(20):
            f = FqPoly(p, [rng.choice((1, p - 1, rng.randrange(p))) for _ in range(8)] + [1])
            kernel = _Modulus(f)
            assert kernel.packed
            ops = self.operands(rng, p, 8)
            for a in ops:
                for b in ops:
                    assert kernel.mulmod(a, b) == a * b % f, (f, a, b)

    def test_kernel_is_built_only_within_the_slot_bound(self):
        assert 2 * 8 * (self.BELOW - 1) ** 2 < 1 << 64 <= 2 * 8 * (self.ABOVE - 1) ** 2
        for p in (2, 65521, self.BELOW):
            assert _Modulus(FqPoly(p, [1] * 9)).packed
        assert not _Modulus(FqPoly(self.ABOVE, [1] * 9)).packed
        assert _Modulus(FqPoly(65521, [2, 1])).packed
        assert not _Modulus(FqPoly(65521, [1, 1, 2])).packed  # not monic
        assert not _Modulus(FqPoly(65521, [3])).packed  # constant
        assert not _Modulus(FqPoly(ExtField(FqPoly(2, [1, 1, 1])), [0, 1])).packed

    @pytest.mark.parametrize("p", [2, 10007])
    def test_one_kernel_per_modulus(self, p, monkeypatch):
        """fp_factorize builds one packed modulus for each squarefree part it
        splits by degree and one for each product Cantor-Zassenhaus splits."""
        rng = random.Random(p)
        # two squarefree parts; four distinct-degree products of two factors
        f = irreducible_product(rng, p, [1, 1, 3, 3, 4, 4, 5, 5])
        f = f * irreducible_product(rng, p, [7]) ** 2
        assert f.degree == 40
        built, split = [], []
        modulus, equal_degree = residue_field._Modulus, residue_field._equal_degree

        def counted(g):
            built.append(g)
            mod = modulus(g)
            assert mod.packed, g
            return mod

        def recorded(g, e, draws, part):
            if g.degree > e:
                split.append(g)
            return equal_degree(g, e, draws, part)

        monkeypatch.setattr(residue_field, "_Modulus", counted)
        monkeypatch.setattr(residue_field, "_equal_degree", recorded)
        fact = fp_factorize(f)
        assert recompose_factorization(fact) == f
        parts = [part for part, _ in _squarefree_parts(f) if part.degree >= 2]
        assert len(parts) >= 2 and split
        assert sorted(g.coeffs for g in built) == sorted(g.coeffs for g in parts + split)

    def test_no_kernel_over_extension_fields(self, monkeypatch):
        modulus = residue_field._Modulus

        def not_packed(f):
            mod = modulus(f)
            assert not mod.packed, f"products mod {f} were packed over F_phi"
            return mod

        fields = small_fields()[3:]  # their moduli are counted over F_p
        monkeypatch.setattr(residue_field, "_Modulus", not_packed)
        rng = random.Random(16)
        for field in fields:
            # g^k for squarefree g and k prime to p: no p-th root, whose power
            # is taken mod phibar over F_p
            k = 3 if field.p == 2 else 2
            for degree in (2, 5, 9, 13):
                g = random_monic(rng, field, degree)
                while plain_gcd(g, g.derivative()).degree:
                    g = random_monic(rng, field, degree)
                assert factor_count(g**k) == k * factor_count(g)

    def test_no_kernel_for_pth_roots_over_extension_fields(self, monkeypatch):
        """g^p has a p-th-power part, so the count takes p-th roots in F_phi,
        which are powers mod phibar over F_p; none packs its products."""
        fields = small_fields()[3:]  # their moduli are counted over F_p
        built, roots = [], []
        pth_root, modulus = residue_field.ExtField.pth_root, residue_field._Modulus

        def recorded(f):
            mod = modulus(f)
            if mod.packed:
                built.append(f)
            return mod

        def counted_root(field, a):
            roots.append(a)
            return pth_root(field, a)

        monkeypatch.setattr(residue_field, "_Modulus", recorded)
        monkeypatch.setattr(residue_field.ExtField, "pth_root", counted_root)
        rng = random.Random(17)
        for field in fields:
            for degree in (2, 5, 6, 9):
                g = random_monic(rng, field, degree)
                while plain_gcd(g, g.derivative()).degree:
                    g = random_monic(rng, field, degree)
                count = len(roots)
                assert factor_count(g**field.p) == field.p * factor_count(g)
                assert len(roots) > count
        assert built == []

    @pytest.mark.parametrize("p", [2, 3, 7, 65521, "below", "above"])
    def test_pow_mod_matches_reference(self, p, monkeypatch):
        p = {"below": self.BELOW, "above": self.ABOVE}.get(p, p)
        if p == self.ABOVE:
            modulus = residue_field._Modulus

            def not_packed(f):
                mod = modulus(f)
                assert not mod.packed, "products were packed past the slot bound"
                return mod
            monkeypatch.setattr(residue_field, "_Modulus", not_packed)
        rng = random.Random(7 * p)
        degrees = (8,) if p in (self.BELOW, self.ABOVE) else (1, 2, 3, 5, 8, 13)
        for degree in degrees:
            f = FqPoly(p, [rng.randrange(p) for _ in range(degree)] + [1])
            for a in self.operands(rng, p, degree):
                for n in (0, 1, 2, p, (p**2 - 1) // 2, (p**degree - 1) // 2):
                    assert a.pow_mod(n, f) == pow_mod(a, n, f), (f, a, n)
        # lead p - 1: not monic for p > 2, so the loops, with the same result
        f = FqPoly(p, [1, 2, p - 1])
        a = FqPoly(p, [5, 7, 11, 13])
        assert a.pow_mod(p, f) == pow_mod(a, p, f)
