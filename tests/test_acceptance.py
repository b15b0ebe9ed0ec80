"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on stdout.
"""

import random
import time
from fractions import Fraction

from phinewton.criteria import (
    BOUNDED,
    INAPPLICABLE,
    IRREDUCIBLE,
    analyze,
)
from phinewton.expr import parse_poly
from oracles import (
    check_single_side_hypothesis,
    enumerate_monic_fp,
    exhaustive_fp_factor,
    gen_eisenstein_family,
    gen_factor_witness,
    gen_power_family,
    hull_oracle,
    minkowski_sum,
    rabin_is_irreducible,
    side_at_slope,
    slope,
)
from phinewton.polygon import build_polygon
from phinewton.polyring import IntPoly, phi_expand
from phinewton.residual import residual_polynomial
from phinewton.residue_field import (
    ExtField,
    FqPoly,
    factor_degrees,
    fp_factorize,
)
from phinewton.valuation import INFINITY

X = IntPoly.x()


def _report(criterion, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{tail}")
    assert not failures, f"criterion {criterion}: {failures[:5]}"


def test_criterion_1_degree12_single_phi_replay():
    start = time.monotonic()
    failures = []
    r = analyze(
        parse_poly(
            "(x^2+x+1)^6 + 24x*(x^2+x+1)^3 + 9*(16x+32)*(x^2+x+1) + 3*(16x+16)"
        ),
        2,
        phi=parse_poly("x^2+x+1"),
    )
    sides = r.phi_reports[0].sides
    if len(sides) != 1:
        failures.append(f"expected one side, got {len(sides)}")
    else:
        s = sides[0].side
        drop = s.start[1] - s.end[1]
        if (s.length, drop, slope(s), s.h, s.e, s.degree) != (6, 4, Fraction(-2, 3), 2, 3, 2):
            failures.append(f"side data {s}")
    if r.factor_bound != 2:
        failures.append(f"factor_bound {r.factor_bound}")
    if r.min_factor_degree != 6:
        failures.append(f"min_factor_degree {r.min_factor_degree}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _report(1, failures, f"l=6 H=4 slope=-2/3 d=2 bound=2 mindeg=6 ({elapsed:.3f}s)")


def test_criterion_2_two_coprime_factors_replay():
    start = time.monotonic()
    failures = []
    for p in (2, 3, 5):
        f = (X**5 + IntPoly.constant(p**3)) * (
            IntPoly([1, 1]) ** 4 + IntPoly.constant(p**3)
        )
        r = analyze(f, p)
        if r.factor_bound != 2:
            failures.append(f"p={p}: bound {r.factor_bound}")
        for pr in r.phi_reports:
            if len(pr.sides) != 1 or pr.sides[0].side.degree != 1:
                failures.append(f"p={p}: per-phi degree not 1 for {pr.phi}")
        if not any("exactly two" in n for n in r.notes):
            failures.append(f"p={p}: missing 'exactly two' note")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _report(2, failures, f"bound=2 with gcd=1 per phi at p=2,3,5 ({elapsed:.3f}s)")


def test_criterion_3_height4_length6_partial_replay():
    failures = []
    # the displayed phi-power form, instantiated at phi = x + 1
    phi = IntPoly([1, 1])
    f = (
        phi**6
        + 24 * X * phi**4
        + 24 * phi**3
        + 15 * IntPoly([32, 16]) * phi
        + IntPoly([48])
    )
    r = analyze(f, 2, phi=phi)
    sides = r.phi_reports[0].sides
    s = sides[0].side
    if (s.length, s.start[1] - s.end[1], s.degree) != (6, 4, 2):
        failures.append(f"side data {s}")
    if r.factor_bound != 2:
        failures.append(f"factor_bound {r.factor_bound}")

    # independent derivation of the residual from the two-case definition:
    # lattice abscissas 0, 3, 6 on the side (0,4)->(6,0); the line height at
    # abscissa 3 is 4 - (2/3)*3 = 2, while nu(a_3) = nu(24) = 3 > 2, so the
    # middle coefficient vanishes; the endpoints give 48/2^4 = 3 = 1 and 1.
    line_height_at_3 = Fraction(4) - Fraction(2, 3) * 3
    assert line_height_at_3 == 2 and 3 > line_height_at_3
    expected_ts = (1, 0, 1)

    got_ts = tuple(
        t.coeffs[0] if t.coeffs else 0 for t in reversed(sides[0].residual.coeffs)
    )
    if got_ts != expected_ts:
        failures.append(f"residual {got_ts} != derived {expected_ts}")
    if got_ts == (1, 1, 1):
        failures.append("residual reproduces the undocumented y^2+y+1 value")
    if r.verdict != BOUNDED:
        failures.append(f"verdict {r.verdict}")
    if not any("is zero (no point on the side at abscissa 3)" in n for n in r.notes):
        failures.append("missing documented-discrepancy note")
    _report(3, failures, "residual y^2 + 1 with zero middle coefficient, bound 2")


def test_criterion_4_product_rule_suite():
    start = time.monotonic()
    failures = []
    rng = random.Random(20200405)
    configs = [
        (2, IntPoly.x(), 12),
        (2, IntPoly([1, 1, 1]), 8),
        (3, IntPoly([1, 1]), 12),
        (3, IntPoly([1, 0, 1]), 8),
        (5, IntPoly([2, 1]), 12),
        (5, IntPoly([2, 0, 1]), 8),
    ]
    pairs = 0
    while pairs < 200:
        p, phi, max_n = configs[pairs % len(configs)]
        phibar = phi.reduce_mod(p)
        field = ExtField(phibar)
        g, h = gen_power_family(
            p, phi, 2, seed=rng.randrange(2**30), max_n=max_n
        )
        exp_g = phi_expand(g, phi, p)
        exp_h = phi_expand(h, phi, p)
        exp_gh = phi_expand(g * h, phi, p)
        np_g = build_polygon(exp_g.points())
        np_h = build_polygon(exp_h.points())
        np_gh = build_polygon(exp_gh.points())
        if np_gh != minkowski_sum(np_g, np_h):
            failures.append(f"pair {pairs}: polygons differ")
        for side in np_gh.sides:
            expected = FqPoly(field, [field.one])
            for exp_f, np_f in ((exp_g, np_g), (exp_h, np_h)):
                s = side_at_slope(np_f, slope(side))
                if s is not None:
                    expected = expected * residual_polynomial(exp_f, s, field)
            got = residual_polynomial(exp_gh, side, field)
            if got.scale(expected.lead) != expected.scale(got.lead):
                failures.append(f"pair {pairs}: residuals differ at {slope(side)}")
        pairs += 1
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _report(4, failures, f"200 pairs, polygons and residuals agree ({elapsed:.1f}s)")


def test_criterion_5_bound_soundness_suite():
    failures = []
    rng = random.Random(50505)
    for trial in range(200):
        k = 2 + trial % 3
        p = (2, 3, 5)[trial % 3]
        witness = gen_factor_witness(p, k, seed=rng.randrange(2**30))
        r = analyze(witness.product, p)
        if r.factor_bound < witness.k:
            failures.append(
                f"trial {trial}: bound {r.factor_bound} < k={witness.k}"
            )
    _report(5, failures, "200 products: factor_bound >= known factor count")


def test_criterion_6_hypothesis_polygon_equivalence():
    failures = []
    rng = random.Random(606060)
    configs = [
        (2, IntPoly.x()),
        (2, IntPoly([1, 1, 1])),
        (3, IntPoly([2, 1])),
        (5, IntPoly([1, 1])),
        (5, IntPoly([2, 0, 1])),
    ]
    count = 0
    while count < 500:
        p, phi = configs[count % len(configs)]
        f = gen_power_family(
            p, phi, 1, seed=rng.randrange(2**30), zero_a0_prob=0.05
        )[0]
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
        if hyp.holds != single:
            failures.append(f"f={f!r} phi={phi!r} p={p}")
        r = analyze(f, p, phi=phi)
        exact = r.phi_reports[0].is_exact_power
        if not exact and (r.verdict == INAPPLICABLE) == hyp.holds:
            failures.append(f"f={f!r} phi={phi!r} p={p}: verdict {r.verdict}")
        count += 1
    _report(6, failures, "500 cases: hypothesis <=> single side to (n, 0) "
                         "<=> analyze not INAPPLICABLE")


def test_criterion_7_hull_oracle_equivalence():
    failures = []
    rng = random.Random(707070)
    for trial in range(1000):
        n = rng.randint(2, 30)
        indices = sorted(rng.sample(range(31), n))
        pts = []
        for i in indices:
            if rng.random() < 0.15:
                pts.append((i, INFINITY))
            else:
                pts.append((i, rng.randint(0, 50)))
        finite = [q for q in pts if q[1] is not INFINITY]
        while len(finite) < 2:
            j = rng.randrange(len(pts))
            pts[j] = (pts[j][0], rng.randint(0, 50))
            finite = [q for q in pts if q[1] is not INFINITY]
        mine = build_polygon(pts)
        ref = hull_oracle(pts)
        if mine != ref or mine.sides != ref.sides:
            failures.append(f"trial {trial}: {pts}")
    _report(7, failures, "1000 point sets: build_polygon == hull_oracle")


def test_criterion_8_finite_field_stack():
    failures = []
    # exhaustive over F_2 up to degree 6
    for d in range(1, 7):
        for f in enumerate_monic_fp(2, d):
            if fp_factorize(f) != exhaustive_fp_factor(f):
                failures.append(f"F_2: {f}")
    # random over F_3 and F_5
    rng = random.Random(808080)
    for p in (3, 5):
        for _ in range(150):
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = FqPoly(p, coeffs)
            if fp_factorize(f) != exhaustive_fp_factor(f):
                failures.append(f"F_{p}: {f}")
    # extension fields: irreducibility test vs factor degrees
    moduli = [
        FqPoly(2, [1, 1, 1]),
        FqPoly(2, [1, 1, 0, 1]),
        FqPoly(3, [1, 0, 1]),
        FqPoly(5, [2, 0, 1]),
    ]
    for trial in range(200):
        field = ExtField(moduli[trial % len(moduli)])
        deg = rng.randint(1, 6)
        coeffs = [
            field.elem([rng.randrange(field.p) for _ in range(field.m)])
            for _ in range(deg)
        ]
        coeffs.append(field.one)
        g = FqPoly(field, coeffs)
        if rabin_is_irreducible(g) != (factor_degrees(g) == ((g.degree, 1),)):
            failures.append(f"ext {field}: {g}")
    _report(8, failures, "126 exhaustive + 300 random factorizations, 200 ext polys")


def test_criterion_9_gcd_one_regression():
    failures = []
    rng = random.Random(909090)
    configs = [
        (2, IntPoly.x()),
        (2, IntPoly([1, 1, 1])),       # degree 2
        (2, IntPoly([1, 1, 0, 1])),    # degree 3
        (3, IntPoly([1, 0, 1])),       # degree 2
        (5, IntPoly([1, 1])),
    ]
    count = 0
    while count < 100:
        p, phi = configs[count % len(configs)]
        f = gen_eisenstein_family(
            p, phi, 1, seed=rng.randrange(2**30), gcd_targets=(1,)
        )[0]
        r = analyze(f, p, phi=phi)
        if r.verdict != IRREDUCIBLE:
            failures.append(f"f={f!r} phi={phi!r} p={p}: {r.verdict}")
        count += 1
    r = analyze(parse_poly("x^2+2x+2"), 2, phi=X)
    if r.verdict != IRREDUCIBLE:
        failures.append(f"x^2+2x+2: {r.verdict}")
    _report(9, failures, "100 gcd=1 instances + x^2+2x+2 all IRREDUCIBLE")


def test_criterion_10_slope_zero_reduction_suite():
    failures = []
    rng = random.Random(101010)
    count = 0
    while count < 100:
        p = (2, 3, 5)[count % 3]
        n = rng.randint(2, 12)
        coeffs = [rng.randrange(1, p) for _ in range(n)] + [1]
        f = IntPoly(coeffs)
        exp = phi_expand(f, X, p)
        np_ = build_polygon(exp.points())
        slope_zero = [s for s in np_.sides if slope(s) == 0]
        if len(slope_zero) != 1:
            failures.append(f"f={f!r}: no slope-0 side")
            count += 1
            continue
        side = slope_zero[0]
        rp = residual_polynomial(exp, side, ExtField(FqPoly.x(p)))
        got = [t.coeffs[0] if t.coeffs else 0 for t in rp.coeffs[::-1]]
        expected = [c % p for c in coeffs[side.start[0] : side.end[0] + 1]]
        if got != expected:
            failures.append(f"f={f!r}: {got} != {expected}")
        count += 1
    _report(10, failures, "100 slope-0 residuals equal the mod-p reductions")
