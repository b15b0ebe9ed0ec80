"""Every certificate against an independent factorizer: sympy over Z.

The inputs are the generator families of `oracles` (Eisenstein, power and
factor-witness) at p = 2, 3 and 5, analyzed in single-phi and full mode.
For each report, with sympy's factor_list as the truth:

- the true factor count is at most factor_bound;
- IRREDUCIBLE implies irreducible;
- min_factor_degree is at most the smallest true degree;
- factor_bound is at most w + the sum of the side degrees, the bound that
  the residual factor counts refine.

A report with phi_reports must also agree with its factor groups (q, a):
sum(q * a) = deg f, sum(a) = factor_bound and min(q) = min_factor_degree;
and IRREDUCIBLE implies min_factor_degree = deg f.  Each phi report's
multiplicity, read off its expansion, must be the exponent of phibar in
fp_factorize(f mod p) in full mode, and the expansion's length past the
single-phi gate.
"""

from collections import Counter

import pytest

sympy = pytest.importorskip("sympy")

from oracles import family_inputs, side_degree_bound
from phinewton.criteria import INAPPLICABLE, IRREDUCIBLE, analyze
from phinewton.polyring import IntPoly
from phinewton.residue_field import fp_factorize


def true_degrees(f: IntPoly) -> list[int]:
    """Degrees of the irreducible factors of f over Z, with multiplicity."""
    _, factors = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"),
                            domain=sympy.ZZ).factor_list()
    return sorted(g.degree() for g, k in factors for _ in range(k))


def violations(r, degrees: list[int]) -> list[str]:
    out = []
    if len(degrees) > r.factor_bound:
        out.append(f"factor_bound {r.factor_bound} < true count {len(degrees)}")
    if r.verdict == IRREDUCIBLE and len(degrees) > 1:
        out.append(f"IRREDUCIBLE but the true degrees are {degrees}")
    if r.min_factor_degree is not None and r.min_factor_degree > degrees[0]:
        out.append(f"min_factor_degree {r.min_factor_degree} > {degrees[0]}")
    if r.phi_reports and r.factor_bound > side_degree_bound(r):
        out.append(f"factor_bound {r.factor_bound} > side-degree bound "
                   f"{side_degree_bound(r)}")
    if r.phi_reports:
        out += group_violations(r, sum(degrees))
    return out


def group_violations(r, n: int) -> list[str]:
    """The report's certificate against its groups, for f of degree n."""
    groups = [g for pr in r.phi_reports for g in pr.groups]
    out = []
    if sum(q * a for q, a in groups) != n:
        out.append(f"groups {groups} do not sum to degree {n}")
    if sum(a for _, a in groups) != r.factor_bound:
        out.append(f"groups {groups} do not count factor_bound {r.factor_bound}")
    if min(q for q, _ in groups) != r.min_factor_degree:
        out.append(f"groups {groups} do not give min_factor_degree "
                   f"{r.min_factor_degree}")
    if r.verdict == IRREDUCIBLE and r.min_factor_degree != n:
        out.append(f"IRREDUCIBLE but min_factor_degree {r.min_factor_degree} < {n}")
    return out


def multiplicity_violations(r, f: IntPoly, p: int) -> list[str]:
    """Each PhiReport.multiplicity against fp_factorize, or against the
    expansion's length in single-phi mode."""
    if r.mode == "full":
        exponents = dict(fp_factorize(f.reduce_mod(p)).factors)
        expected = [exponents[pr.phi.reduce_mod(p)] for pr in r.phi_reports]
    else:
        expected = [pr.expansion.length for pr in r.phi_reports]
    found = [pr.multiplicity for pr in r.phi_reports]
    return [] if found == expected else [f"multiplicities {found} != {expected}"]


def test_certificates_survive_sympy():
    failures = []
    seen = Counter()
    for f, p, phi in family_inputs():
        degrees = true_degrees(f)
        for r in (analyze(f, p, phi=phi), analyze(f, p)):
            found = violations(r, degrees) + multiplicity_violations(r, f, p)
            failures += [f"{f} p={p} {r.mode}: {v}" for v in found]
            seen[r.mode, r.verdict] += 1
            seen["strict"] += r.phi_reports != [] and r.factor_bound < side_degree_bound(r)
    assert not failures, "\n".join(failures[:20])
    # the suite reaches every verdict, and residual counts below side degrees
    for mode in ("single-phi", "full"):
        assert seen[mode, IRREDUCIBLE] and seen[mode, "BOUNDED"]
    assert seen["single-phi", INAPPLICABLE]
    assert seen["strict"]
