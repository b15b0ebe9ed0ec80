import copy
import gc
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from phinewton.criteria import (
    BOUNDED,
    GATE_NOT_PHIBAR_POWER,
    GATE_PHIBAR_REDUCIBLE,
    INAPPLICABLE,
    IRREDUCIBLE,
    AnalysisReport,
    _analyze_phi,
    analyze,
)
from oracles import (
    check_single_side_hypothesis,
    gen_eisenstein_family,
    gen_factor_witness,
    gen_power_family,
    is_power_of_phibar,
    side_degree_bound,
    slope,
)
from phinewton.cli import render_json, render_text, report_to_dict
from phinewton.polygon import build_polygon
from phinewton.polyring import IntPoly, phi_expand
from phinewton import criteria, residue_field
from phinewton.residue_field import ExtField, FqPoly, PrimeField, fp_factorize
from phinewton.valuation import INFINITY


X = IntPoly.x()
PHI_QUAD = IntPoly([1, 1, 1])


def degree12_input():
    return (
        PHI_QUAD**6
        + 24 * X * PHI_QUAD**3
        + 9 * IntPoly([32, 16]) * PHI_QUAD
        + 3 * IntPoly([16, 16])
    )


class TestSingleSideHypothesis:
    def test_degree12_case_holds(self):
        exp = phi_expand(degree12_input(), PHI_QUAD, 2)
        hyp = check_single_side_hypothesis(exp)
        assert hyp.applicable and hyp.holds
        assert hyp.lam == Fraction(2, 3)
        assert hyp.violations == ()

    def test_eisenstein_shape_holds(self):
        exp = phi_expand(IntPoly([2, 2, 1]), X, 2)
        hyp = check_single_side_hypothesis(exp)
        assert hyp.holds
        assert hyp.lam == Fraction(1, 2)

    def test_violation_reported(self):
        # x^3 + 2x + 8 at p=2: index 1 needs 3*u_1 >= 2*3, i.e. nu >= 2, got 1
        exp = phi_expand(IntPoly([8, 2, 0, 1]), X, 2)
        hyp = check_single_side_hypothesis(exp)
        assert not hyp.holds
        assert hyp.violations == ((1, Fraction(2), 1),)

    def test_unit_a0_means_not_a_power(self):
        # a unit constant term forces f mod p != phibar^n, so the check is
        # inapplicable rather than merely violated
        exp = phi_expand(IntPoly([1, 2, 1]), X, 2)
        hyp = check_single_side_hypothesis(exp)
        assert not hyp.applicable
        assert not hyp.holds

    def test_not_power_inapplicable(self):
        exp = phi_expand(IntPoly([1, 0, 1]), X, 3)
        hyp = check_single_side_hypothesis(exp)
        assert not hyp.applicable and not hyp.holds

    def test_a0_zero(self):
        exp = phi_expand(X**3 + 2 * X, X, 2)
        hyp = check_single_side_hypothesis(exp)
        assert hyp.applicable and not hyp.holds and hyp.a0_is_zero

    def test_equivalence_with_single_side_polygon(self):
        rng = random.Random(83)
        for p, phi in ((2, X), (2, PHI_QUAD), (5, IntPoly([3, 1]))):
            fams = gen_power_family(
                p, phi, 80, seed=rng.randrange(2**30), zero_a0_prob=0.05
            )
            for f in fams:
                exp = phi_expand(f, phi, p)
                hyp = check_single_side_hypothesis(exp)
                n = exp.length
                finite = [(i, u) for i, u in exp.points() if u is not INFINITY]
                single = False
                if len(finite) >= 2:
                    np_ = build_polygon(exp.points())
                    single = (
                        len(np_.sides) == 1
                        and np_.sides[0].start[0] == 0
                        and np_.sides[0].end == (n, 0)
                        and slope(np_.sides[0]) < 0
                    )
                assert hyp.holds == single, f
                # the production path reads the hypothesis off N_phi(f), and
                # its notes name the reference's violations
                r = analyze(f, p, phi=phi)
                if not r.phi_reports[0].is_exact_power:
                    assert (r.verdict == INAPPLICABLE) == (not hyp.holds), f
                noted = [m for m in r.notes if m.startswith("single-side")]
                assert noted == [
                    f"single-side hypothesis fails at index {i}: "
                    f"need nu(a_{i}) >= {required}, got {u}"
                    for i, required, u in hyp.violations
                ], f


class TestBoundSinglePhi:
    def test_degree12_bound(self):
        b = analyze(degree12_input(), 2, phi=PHI_QUAD)
        assert b.verdict != INAPPLICABLE
        assert b.factor_bound == 2
        assert b.min_factor_degree == 6
        assert b.phi_reports[0].sides[0].side.e == 3

    def test_gcd_one_is_irreducible_case(self):
        b = analyze(IntPoly([2, 2, 1]), 2, phi=X)
        assert b.factor_bound == 1

    def test_gcd_arithmetic(self):
        # nu(a_0) = 6, n = 4 -> bound 2, e = 2
        f = X**4 + IntPoly.constant(2**6)
        b = analyze(f, 2, phi=X)
        assert b.factor_bound == 2
        assert b.phi_reports[0].sides[0].side.e == 2
        assert b.min_factor_degree == 2

    def test_hypothesis_fails_inapplicable(self):
        b = analyze(IntPoly([8, 2, 0, 1]), 2, phi=X)
        assert b.verdict == INAPPLICABLE


class TestIrreducibilityTest:
    def test_linear_residual_is_irreducible(self):
        assert analyze(IntPoly([2, 2, 1]), 2, phi=X).verdict == IRREDUCIBLE

    def test_height4_length6_bounded(self):
        f = X**6 + 24 * X**5 + 24 * X**3 + 240 * X**2 + 480 * X + IntPoly([48])
        assert analyze(f, 2, phi=X).verdict == BOUNDED

    def test_engineered_variant_irreducible(self):
        # lowering nu(a_3) to 2 puts (3,2) on the side: residual y^2+y+1
        f = X**6 + 24 * X**5 + 4 * X**3 + 240 * X**2 + 480 * X + IntPoly([48])
        assert analyze(f, 2, phi=X).verdict == IRREDUCIBLE

    def test_inapplicable(self):
        assert analyze(IntPoly([1, 0, 1]), 3, phi=X).verdict == INAPPLICABLE


class TestAnalyzeSinglePhi:
    def test_degree12_report(self):
        r = analyze(degree12_input(), 2, phi=PHI_QUAD)
        assert r.verdict == BOUNDED
        assert r.factor_bound == 2
        assert r.min_factor_degree == 6
        doc = report_to_dict(r)
        assert doc["factor_bound"] == 2
        side = r.phi_reports[0].sides[0].side
        assert (side.length, side.start[1] - side.end[1], side.degree) == (6, 4, 2)
        assert slope(side) == Fraction(-2, 3) and (side.h, side.e) == (2, 3)
        # (3, 3) lies strictly above the side, whose height at 3 is 2
        assert any("is zero (no point on the side at abscissa 3)" in n for n in r.notes)

    def test_residual_count_below_side_degree(self):
        # x^6+8 = (x^2+2)(x^4-2x^2+4): one side of degree 3 whose residual
        # y^3+1 = (y+1)(y^2+y+1) over F_2 has two factors, and so has f
        r = analyze(X**6 + IntPoly([8]), 2, phi=X)
        assert r.verdict == BOUNDED
        assert (r.phi_reports[0].sides[0].side.degree, r.factor_bound) == (3, 2)
        assert r.min_factor_degree == 2

    def test_eisenstein_irreducible(self):
        r = analyze(IntPoly([2, 2, 1]), 2, phi=X)
        assert r.verdict == IRREDUCIBLE
        assert r.factor_bound == 1

    def test_irreducible_implies_bound_one(self):
        rng = random.Random(89)
        for phi, p in ((X, 2), (PHI_QUAD, 2), (IntPoly([1, 1]), 5)):
            for f in gen_eisenstein_family(p, phi, 12, rng.randrange(2**30)):
                r = analyze(f, p, phi=phi)
                if r.verdict == IRREDUCIBLE:
                    assert r.factor_bound == 1
                if r.phi_reports:
                    assert r.factor_bound <= side_degree_bound(r)

    def test_phibar_reducible_inapplicable(self):
        r = analyze(IntPoly([1, 0, 0, 0, 1]), 2, phi=IntPoly([1, 0, 1]))
        assert r.verdict == INAPPLICABLE
        assert r.factor_bound == 4  # trivial degree bound
        assert r.phi_reports == ()

    def test_not_power_inapplicable(self):
        r = analyze(IntPoly([1, 0, 1]), 3, phi=X)
        assert r.verdict == INAPPLICABLE

    @pytest.mark.parametrize("f, p, phi, gate, reason", [
        (IntPoly([1, 0, 0, 0, 1]), 2, IntPoly([1, 0, 1]), GATE_PHIBAR_REDUCIBLE,
         "phi mod 2 = x^2 + 1 is reducible over F_2"),
        (IntPoly([3, 1, 0, 1]), 3, X, GATE_NOT_PHIBAR_POWER,
         "f mod 3 is not a power of x"),
    ], ids=["phibar-reducible", "not-phibar-power"])
    def test_failed_gate_is_the_only_fact(self, f, p, phi, gate, reason):
        r = analyze(f, p, phi=phi)
        assert r.gate == gate
        assert r.phi_reports == ()
        assert r.factor_bound == f.degree
        assert r.min_factor_degree is None
        assert r.verdict == INAPPLICABLE
        assert r.notes[0] == reason
        assert analyze(f, p).gate is None  # full mode has no gate

    def test_hypothesis_fails_keeps_polygon_bound(self):
        f = IntPoly([8, 2, 0, 1])  # two sides, degrees 1 and 1
        r = analyze(f, 2, phi=X)
        assert r.verdict == INAPPLICABLE
        assert r.factor_bound == 2
        assert len(r.phi_reports[0].sides) == 2

    def test_exact_power(self):
        r = analyze(PHI_QUAD**3, 2, phi=PHI_QUAD)
        assert r.verdict == BOUNDED
        assert r.factor_bound == 3
        assert "exactly three" in " ".join(r.notes)
        r1 = analyze(PHI_QUAD, 2, phi=PHI_QUAD)
        assert r1.verdict == IRREDUCIBLE

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            analyze(IntPoly([1, 2]), 2, phi=X)
        with pytest.raises(ValueError):
            analyze(IntPoly([5]), 2)


class TestBoundFull:
    """Full mode: `analyze(f, p)` with no phi bounds over every phi_i."""

    def test_product_of_two_coprime_pieces(self):
        for p in (2, 3, 5):
            f = (X**5 + IntPoly.constant(p**3)) * (
                IntPoly([1, 1]) ** 4 + IntPoly.constant(p**3)
            )
            r = analyze(f, p)
            assert r.verdict == BOUNDED
            assert r.factor_bound == 2
            assert [pr.groups for pr in r.phi_reports] == [((5, 1),), ((4, 1),)]
            assert all(
                len(pr.sides) == 1 and pr.sides[0].side.degree == 1
                for pr in r.phi_reports
            )
            assert any("exactly two" in n for n in r.notes)

    def test_eisenstein_without_phi(self):
        r = analyze(IntPoly([2, 2, 1]), 2)
        assert r.verdict == IRREDUCIBLE
        assert r.factor_bound == 1

    def test_residual_certificate_in_full_mode(self):
        f = X**6 + 24 * X**5 + 4 * X**3 + 240 * X**2 + 480 * X + IntPoly([48])
        r = analyze(f, 2)
        assert r.verdict == IRREDUCIBLE
        assert r.factor_bound == 1

    def test_squarefree_reduction(self):
        # f mod 2 = x(x+1)(x^2+x+1), all simple: bound equals the factor count
        f = X * (X + 1) * PHI_QUAD + IntPoly.constant(2)
        r = analyze(f, 2)
        assert r.factor_bound == 3
        assert [pr.groups for pr in r.phi_reports] == [((1, 1),), ((1, 1),), ((2, 1),)]
        assert any("exactly three" in n for n in r.notes)

    def test_irreducible_mod_p(self):
        r = analyze(PHI_QUAD, 2)
        assert r.verdict == IRREDUCIBLE

    def test_exact_power_divisor(self):
        # phi^2 divides f exactly: the power contributes to the bound
        f = PHI_QUAD**2 * (X + 2)
        r = analyze(f, 2)
        phi_pr = [pr for pr in r.phi_reports if pr.phi == PHI_QUAD][0]
        assert phi_pr.exact_power_exponent == 2
        assert r.factor_bound == 3

    def test_exact_power_whole_input(self):
        r = analyze(PHI_QUAD**2, 2)
        assert r.factor_bound == 2
        assert r.verdict == BOUNDED
        assert r.phi_reports[0].exact_power_exponent == 2

    def test_soundness_random(self):
        rng = random.Random(97)
        for p in (2, 3, 5):
            for _ in range(15):
                k = rng.randint(2, 4)
                witness = gen_factor_witness(p, k, rng.randrange(2**30))
                r = analyze(witness.product, p)
                assert witness.k <= r.factor_bound <= side_degree_bound(r)

    def test_monotonicity_of_reports(self):
        rng = random.Random(101)
        for f in gen_power_family(2, PHI_QUAD, 25, seed=rng.randrange(2**30)):
            r = analyze(f, 2)
            n = f.degree
            assert r.factor_bound <= side_degree_bound(r) <= n


class TestCrossModeAgreement:
    """For f = phibar^n mod p and phi the canonical lift of phibar, the two
    modes analyze the same single phi, so their certificates agree."""

    FAMILIES = (
        (2, X), (2, PHI_QUAD), (2, IntPoly([1, 1, 0, 1])),
        (3, IntPoly([2, 1])), (3, IntPoly([1, 0, 1])),
        (5, IntPoly([1, 1])), (5, IntPoly([2, 0, 1])),
    )

    def test_single_phi_matches_full_mode(self):
        rng = random.Random(107)
        applicable = 0
        for p, phi in self.FAMILIES:
            max_n = 6 if phi.degree < 3 else 3
            fams = gen_power_family(p, phi, 16, seed=rng.randrange(2**30),
                                    max_n=max_n, zero_a0_prob=0.15)
            fams += gen_eisenstein_family(p, phi, 6, rng.randrange(2**30))
            for f in fams:
                single = analyze(f, p, phi=phi)
                full = analyze(f, p)
                assert single.factor_bound == full.factor_bound, f
                assert single.min_factor_degree == full.min_factor_degree, f
                if single.verdict != INAPPLICABLE:
                    applicable += 1
                    assert single.verdict == full.verdict, f
        assert applicable > 0


class TestExpandToMultiplicity:
    """Full mode expands each phi only through its multiplicity w.  Its
    report prints the same JSON and text as one built from the complete
    expansions, polygon vertices included."""

    @staticmethod
    def _monic(rng, degree):
        return IntPoly([rng.randint(-40, 40) for _ in range(degree)] + [1])

    def _inputs(self, rng, p):
        for _ in range(10):
            yield self._monic(rng, rng.randint(2, 40))
        for _ in range(6):
            # a squared factor over Z: w >= 2 for every phibar dividing it
            a = self._monic(rng, rng.randint(1, 8))
            yield a * a * self._monic(rng, rng.randint(0, 40 - 2 * a.degree))
        yield from (IntPoly([1, 1]) ** 5, (X**2 + 1) ** 3 * (X + p), PHI_QUAD**4 + p)

    def test_same_report_as_complete_expansions(self):
        rng = random.Random(139)
        seen = Counter()
        for p in (2, 3, 5, 10007):
            for f in self._inputs(rng, p):
                report = analyze(f, p)
                complete = [_analyze_phi(phi_expand(f, pr.phi, p),
                                         ExtField(pr.phi.reduce_mod(p)))
                            for pr in report.phi_reports]
                reference = AnalysisReport(report.input, p, f.degree, None, None,
                                           complete)
                assert render_json(report) == render_json(reference), (f, p)
                assert render_text(report) == render_text(reference), (f, p)
                for pr in report.phi_reports:
                    seen[pr.expansion.is_truncated, pr.multiplicity >= 2] += 1
        # truncated with w = 1 and with w >= 2, and complete expansions
        assert min(seen[True, False], seen[True, True]) >= 20
        assert seen[False, False] + seen[False, True] >= 20


class TestPowerGate:
    """`PhiExpansion.is_phibar_power`, read off the phi-expansion, agrees
    with raising phibar to the n-th power over F_p."""

    PHIS = {
        2: (X, IntPoly([1, 1]), PHI_QUAD, IntPoly([1, 1, 0, 1])),
        3: (IntPoly([2, 1]), IntPoly([1, 0, 1])),
        5: (IntPoly([1, 1]), IntPoly([2, 0, 1])),
        7: (X, IntPoly([1, 0, 1])),
    }

    def test_truncated_expansion_refused(self):
        # f mod 2 = x^2 (x^3 + 1): through a_2 the prefix shows no power
        exp = phi_expand(IntPoly([4, 2, 1, 0, 0, 1]), X, 2, upto=2)
        assert exp.is_truncated
        with pytest.raises(ValueError, match="truncated"):
            exp.is_phibar_power

    def test_gate_matches_reference(self):
        rng = random.Random(131)
        kinds = Counter()
        for p, phis in self.PHIS.items():
            for phi in phis:
                for f in self._inputs(rng, p, phi):
                    expected = is_power_of_phibar(f, phi, p)
                    assert phi_expand(f, phi, p).is_phibar_power == expected, (f, phi, p)
                    kinds[expected, f.degree % phi.degree == 0] += 1
        # powers, non-powers of a multiple degree, degrees that are no multiple
        assert min(kinds[True, True], kinds[False, True], kinds[False, False]) >= 50

    @staticmethod
    def _inputs(rng, p, phi):
        m = phi.degree
        powers = gen_power_family(p, phi, 12, seed=rng.randrange(2**30),
                                  max_n=5, zero_a0_prob=0.3)
        yield from powers
        yield from (phi**k for k in (1, 2, 3))
        for f in powers:
            # a unit below the top coefficient: the same degree, not a power
            unit = IntPoly([rng.randrange(1, p)]
                           + [rng.randrange(p) for _ in range(m - 1)])
            yield f + unit * phi**rng.randrange(f.degree // m)
        for _ in range(24):
            deg = rng.randint(1, 3 * m + 2)
            yield IntPoly([rng.randrange(-p * p, p * p) for _ in range(deg)] + [1])


class TestIrreducibleVerdict:
    """IRREDUCIBLE iff the refined count, the residual factor count that is
    now factor_bound, is 1, in both modes.  That is the two-branch rule it
    replaced: a side-degree bound of 1, or one phi whose single side spans
    the principal part with an irreducible residual."""

    def test_irreducible_iff_refined_one(self):
        rng = random.Random(137)
        seen = Counter()
        for p, phi in TestCrossModeAgreement.FAMILIES:
            fams = gen_power_family(p, phi, 16, seed=rng.randrange(2**30),
                                    max_n=6 if phi.degree < 3 else 3,
                                    zero_a0_prob=0.15)
            fams += gen_eisenstein_family(p, phi, 12, rng.randrange(2**30))
            fams += [gen_factor_witness(p, 2, rng.randrange(2**30)).product
                     for _ in range(3)]
            for f in fams:
                for r in (analyze(f, p, phi=phi), analyze(f, p)):
                    prs = r.phi_reports
                    bound_one = bool(prs) and side_degree_bound(r) == 1
                    residual = (len(prs) == 1 and prs[0].is_single_side
                                and prs[0].sides[0].factor_count == 1)
                    irreducible = r.verdict == IRREDUCIBLE
                    assert irreducible == (r.factor_bound == 1), (f, p, r.mode)
                    assert irreducible == (bound_one or residual), f
                    seen[r.mode, r.verdict, bound_one] += 1
        for mode in ("single-phi", "full"):
            assert seen[mode, IRREDUCIBLE, True] and seen[mode, IRREDUCIBLE, False]
            assert seen[mode, BOUNDED, False]


class TestReportIsImmutable:
    @pytest.mark.parametrize("name, value", [
        ("verdict", IRREDUCIBLE), ("factor_bound", 99), ("phi_reports", []),
        ("notes", [])])
    def test_assignment_raises(self, name, value):
        r = analyze(IntPoly([1, 0, 1]), 3)
        before = report_to_dict(r)
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        assert report_to_dict(r) == before

    @pytest.mark.parametrize("mutate", [lambda prs: prs.clear(),
                                        lambda prs: prs.append(prs[0])])
    def test_phi_reports_cannot_change(self, mutate):
        r = analyze(IntPoly([1, 0, 1]), 3)
        before = (report_to_dict(r), render_text(r))
        assert isinstance(r.phi_reports, tuple)
        with pytest.raises(AttributeError):
            mutate(r.phi_reports)
        assert (report_to_dict(r), render_text(r)) == before


F4 = ExtField(FqPoly(2, [1, 1, 1]))
ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda v: pickle.loads(pickle.dumps(v))}


class TestCopyAndPickle:
    """Every value copies and pickles to an equal value: the fields and
    reports are rebuilt through their constructors, and INFINITY comes
    back as itself, so `is INFINITY` tests hold in a copied expansion."""

    VALUES = {
        "infinity": lambda: INFINITY,  # equal only to itself
        "prime-field": lambda: PrimeField(7),
        "ext-field": lambda: F4,
        "fp-poly": lambda: FqPoly(7, [3, 0, 5, 1]),
        "f4-poly": lambda: FqPoly(F4, [[1], [0, 1], 1]),
        "int-poly": lambda: IntPoly([-5, 0, 2**70, 1]),
        # the one record that no report reaches
        "factorization": lambda: fp_factorize(FqPoly(7, [3, 0, 5, 1]) * FqPoly(7, [2, 2])**2),
        "full-report": lambda: analyze(degree12_input(), 2),
        "single-phi-report": lambda: analyze(degree12_input(), 2, phi=PHI_QUAD),
        "failed-gate-report": lambda: analyze(IntPoly([1, 0, 0, 0, 1]), 2,
                                              phi=IntPoly([1, 0, 1])),
    }

    @pytest.mark.parametrize("how", ROUND_TRIPS)
    @pytest.mark.parametrize("name", VALUES)
    def test_round_trip(self, name, how):
        value = self.VALUES[name]()
        back = ROUND_TRIPS[how](value)
        assert type(back) is type(value) and back == value
        if isinstance(value, AnalysisReport):
            assert back.notes == value.notes and back.verdict == value.verdict
            for pr, pr_back in zip(value.phi_reports, back.phi_reports):
                for u, u_back in zip(pr.expansion.valuations, pr_back.expansion.valuations):
                    assert (u_back is INFINITY) == (u is INFINITY)


class TestFieldsPerRequest:
    """Fields are request state: `analyze` builds and proves each field it
    needs once and passes it on, and no field outlives the reports."""

    PRIMES = (2, 3, 10007, 40009, 65521)

    @staticmethod
    def _requests(p, count, seed):
        """count (f, phi) pairs at p: full mode on random monic f, and single
        phi on f = phi^n + p(...) for phi the lift of an irreducible mod p."""
        rng = random.Random(seed)
        for i in range(count):
            degree = rng.randint(4, 16)
            f = IntPoly([rng.randrange(-2**19, 2**19) for _ in range(degree)] + [1])
            if i % 2 == 0:
                yield f, None
                continue
            phibar = fp_factorize(f.reduce_mod(p)).factors[-1][0]
            phi = IntPoly(phibar.coeffs)
            f, = gen_power_family(p, phi, 1, rng.randrange(2**30),
                                  max_n=max(1, 12 // phi.degree))
            yield f, phi

    @staticmethod
    def _fields_alive():
        return [o for o in gc.get_objects() if isinstance(o, (ExtField, PrimeField))]

    def test_no_field_outlives_its_reports(self):
        gc.collect()
        kept = self._fields_alive()  # held by other tests; alive, so ids stay theirs
        known = {id(o) for o in kept}
        reports = [analyze(f, p, phi) for seed, p in enumerate(self.PRIMES)
                   for f, phi in self._requests(p, 60, seed)]
        assert len(reports) == 300
        assert any(r.mode == "single-phi" and r.phi_reports for r in reports)
        del reports
        gc.collect()
        left = [o for o in self._fields_alive() if id(o) not in known]
        assert left == [], f"{len(left)} fields outlived their reports"

    def test_each_field_built_once_per_call(self, monkeypatch):
        built, tested = [], []
        proven, degrees = ExtField._proven, residue_field.factor_degrees

        def counted_proven(modulus):
            built.append(proven(modulus))
            return built[-1]

        def counted_degrees(g):
            tested.append(g)
            return degrees(g)

        monkeypatch.setattr(ExtField, "_proven", counted_proven)
        monkeypatch.setattr(residue_field, "factor_degrees", counted_degrees)
        monkeypatch.setattr(criteria, "ext_count_irreducible_factors", counted_degrees)
        seen = Counter()
        for seed, p in enumerate(self.PRIMES):
            for f, phi in self._requests(p, 8, 100 + seed):
                for _ in range(2):  # the same request again builds its fields again
                    built.clear()
                    tested.clear()
                    report = analyze(f, p, phi)
                    phibars = [pr.phi.reduce_mod(p) for pr in report.phi_reports]
                    if phi is None:
                        assert [field.modulus for field in built] == phibars, (f, p)
                        assert all(isinstance(g.field, ExtField) for g in tested), (f, p)
                    else:
                        assert [field.modulus for field in built] == [phi.reduce_mod(p)]
                        assert [g for g in tested if isinstance(g.field, PrimeField)] \
                            == [phi.reduce_mod(p)], (f, p, phi)
                    for field, pr in zip(built, report.phi_reports):
                        assert all(side.residual.field is field for side in pr.sides)
                        seen[report.mode] += len(pr.sides)
        assert seen["full"] and seen["single-phi"]
