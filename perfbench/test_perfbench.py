"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 3, 4) == workloads.generate(workload, 3, 4)
    assert workloads.generate(workload, 3, 4) != workloads.generate(workload, 4, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_expression_is_the_coefficient_list(workload):
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        convert_xor, implicit_multiplication_application, parse_expr,
        standard_transformations,
    )

    transformations = standard_transformations + (
        implicit_multiplication_application, convert_xor)
    x = sympy.Symbol("x")
    for op in workloads.generate(workload, 5, 3):
        expr = parse_expr(op.argv[0], transformations=transformations,
                          local_dict={"x": x})
        coeffs = sympy.Poly(expr, x).all_coeffs()[::-1]
        assert [int(c) for c in coeffs] == list(op.coeffs), op.kind


def test_single_phi_exit_rule():
    paper = list(workloads.generate("paper_batch", 0, 2)[0].coeffs)
    assert workloads.single_phi_exit(paper, [1, 1, 1], 2) == 0
    # x^3 + 2^5 x + 2^16: the point (1, 5) lies below the single side
    assert workloads.single_phi_exit([2**16, 2**5, 0, 1], [0, 1], 2) == 2
    # Eisenstein
    assert workloads.single_phi_exit([2, 2, 1], [0, 1], 2) == 0


def test_smoke_run_passes():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: ok" in done.stdout


def test_missing_hook_is_reported_absent():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(HERE.parent / 'src')!r}, {str(HERE)!r}]\n"
        "import tracing\n"
        "tracing.HOOKS += (('gone', 'phinewton.criteria', 'no_such_name'),\n"
        "                  ('gone_module', 'phinewton.no_such_module', 'f'))\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "print(tracer.absent)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['gone', 'gone_module']"
