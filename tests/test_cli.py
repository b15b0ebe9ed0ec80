import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import phinewton
from oracles import gen_power_family
from phinewton import polygon, polyring, residue_field, valuation
from phinewton.cli import main, render_json, report_to_dict, render_svg
from phinewton.criteria import analyze
from phinewton.expr import MAX_NESTING, ParseError, parse_poly, render_poly
from phinewton.polyring import IntPoly

DEG12 = "(x^2+x+1)^6 + 24x*(x^2+x+1)^3 + 9*(16x+32)*(x^2+x+1) + 3*(16x+16)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    src = str(Path(phinewton.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "phinewton.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestRuns:
    def test_degree12_json(self, capsys):
        code, out, _ = run_cli(
            capsys, DEG12, "-p", "2", "--phi", "x^2+x+1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["factor_bound"] == 2
        assert doc["min_factor_degree"] == 6
        assert doc["verdict"] == "BOUNDED"
        side = doc["phi_reports"][0]["sides"][0]
        assert side["length"] == 6
        assert side["slope"] == {"num": -2, "den": 3}
        assert side["degree"] == 2
        assert side["residual_poly"] == [[1, 1], [], [1]]

    def test_eisenstein_text(self, capsys):
        code, out, _ = run_cli(capsys, "x^2+2x+2", "-p", "2")
        assert code == 0
        assert "IRREDUCIBLE" in out

    def test_product_full_mode(self, capsys):
        expr = "(x^5+125)*((x+1)^4+125)"
        code, out, _ = run_cli(capsys, expr, "-p", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "full"
        assert doc["factor_bound"] == 2
        assert any("exactly two" in n for n in doc["notes"])

    def test_svg(self, capsys):
        code, out, _ = run_cli(capsys, DEG12, "-p", "2", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg")
        assert "slope -2/3" in out
        assert "f_S" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "x^2+2x+2", "-p", "2", "--format", "json",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "IRREDUCIBLE"


class TestCheckOnlyOutput:
    """--check-only writes its one line to --output, as a full run writes
    its report."""

    @pytest.mark.parametrize("argv, line", [
        ((DEG12, "-p", "2", "--phi", "x^2+x+1"),
         "ok: single-side hypothesis holds (lambda = 2/3)\n"),
        (("x^4+x+1", "-p", "2", "--phi", "x^2+x+1"),
         "inapplicable: f mod 2 is not a power of x^2 + x + 1\n"),
        (("x^2+2x+2", "-p", "2"), "ok: monic degree-2 polynomial, p = 2\n"),
    ], ids=["holds", "gate-fails", "no-phi"])
    def test_line_goes_to_the_file(self, tmp_path, capsys, argv, line):
        code, printed, _ = run_cli(capsys, *argv, "--check-only")
        target = tmp_path / "check.txt"
        code_out, out, err = run_cli(capsys, *argv, "--check-only",
                                     "--output", str(target))
        assert printed == line
        assert (code_out, out, err) == (code, "", "")
        assert target.read_text(encoding="utf-8") == line

    @pytest.mark.parametrize("phi", [("--phi", "x^2+x+1"), ()], ids=["phi", "no-phi"])
    def test_unwritable_path_is_1(self, tmp_path, capsys, phi):
        # the target is a directory, so the write raises IsADirectoryError
        code, out, err = run_cli(capsys, DEG12, "-p", "2", *phi, "--check-only",
                                 "--output", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestExitCodes:
    def test_unwritable_output_is_1(self, tmp_path, capsys):
        # the target is a directory, so the write raises IsADirectoryError
        code, out, err = run_cli(capsys, "x^2+2", "-p", "2", "--output", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_parse_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "x^3 - - 1", "-p", "2")
        assert code == 1
        assert "error" in err

    def test_non_prime_is_1(self, capsys):
        code, _, err = run_cli(capsys, "x^2+2x+2", "-p", "6")
        assert code == 1

    def test_non_monic_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "2x^2+2", "-p", "2")
        assert code == 1

    def test_inapplicable_single_phi_is_2(self, capsys):
        # x^2 + 1 is (x+1)^2 mod 2, not a power of x
        code, out, _ = run_cli(capsys, "x^2+1", "-p", "2", "--phi", "x")
        assert code == 2
        assert "INAPPLICABLE" in out

    def test_full_mode_never_2(self, capsys):
        code, _, _ = run_cli(capsys, "x^2+1", "-p", "2")
        assert code == 0

    def test_missing_input_is_1(self, capsys):
        code, _, err = run_cli(capsys, "-p", "2")
        assert code == 1
        code, _, err = run_cli(capsys, "x", "--input", "f.txt", "-p", "2")
        assert code == 1


class TestUsageErrors:
    """Usage errors are bad input: exit 1 with the usage line."""

    @pytest.mark.parametrize("argv", [
        ("x", "-p", "abc"),
        ("x",),
        ("x", "-p", "2", "--bogus"),
        ("x", "-p=--"),
        ("x", "-p", "2", "--format=--"),
    ])
    def test_usage_error_is_1(self, argv):
        proc = run_subprocess(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: phinewton")
        assert "phinewton: error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_help_is_0(self):
        proc = run_subprocess("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: phinewton")

    @pytest.mark.parametrize("option, name", [("-p", "-p/--prime")])
    @pytest.mark.parametrize("value", ["٣", "1_1", " 3", "+3"])
    def test_integer_options_take_ascii_digits_only(self, capsys, option, name, value):
        code, out, err = run_cli(capsys, "x^2+1", "-p", "3", option, value)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: phinewton")
        assert err.endswith(
            f"phinewton: error: argument {name}: invalid int value: {value!r}\n")

    def test_leading_minus_after_double_dash(self, capsys):
        # "-x^2+x^3" reads as an unknown option; "--" and "--phi=" avoid it
        code, _, err = run_cli(capsys, "-x^2+x^3", "-p", "2")
        assert code == 1
        assert err.endswith("phinewton: error: unrecognized arguments: -x^2+x^3\n")
        assert run_cli(capsys, "-p", "2", "--", "-x^2+x^3")[0] == 0
        code, out, _ = run_cli(capsys, "x^2-2x+3", "-p", "2", "--phi=-1+x",
                               "--check-only")
        assert code == 0
        assert "lambda = 1/2" in out


def test_cli_imports_no_argparse_gettext_or_locale():
    src = str(Path(phinewton.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from phinewton.cli import main\n"
        "main(['x^2+x+1', '-p', '2', '--format', 'json'])\n"
        "main(['x^2+x+1', '-p', '2', '--phi', 'x^2+x+1', '--check-only'])\n"
        "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_imports_no_dataclasses_inspect_or_json():
    """Against a bare interpreter, since site loads other modules on other
    hosts."""
    src = str(Path(phinewton.__file__).resolve().parents[1])

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", code + "import sys; print(*sys.modules)"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = loaded("import phinewton.cli\n") - loaded("")
    assert "phinewton.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "fractions", "decimal", "numbers"}


class TestHostileInput:
    @staticmethod
    def nested(levels):
        return "(" * levels + "x" + ")" * levels

    def test_deep_nesting_is_parse_error(self):
        proc = run_subprocess(self.nested(300), "-p", "2")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_control_characters_in_an_input_file_are_escaped(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2+1\x1b[31m", encoding="utf-8")
        proc = run_subprocess("--input", str(src), "-p", "2")
        assert proc.returncode == 1
        assert proc.stderr == "error: unexpected character '\\x1b' (at position 5)\n"
        assert proc.stderr[:-1].isprintable()

    def test_whitespace_inside_an_integer_exits_1(self):
        proc = run_subprocess("x^3 + 1 000 003", "-p", "2")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: whitespace inside an integer (at position 7)\n")

    @pytest.mark.parametrize("src, message", [
        ("x^²+1", "expected an integer (at position 2)"),
        ("x^2+١", "unexpected character '١' (at position 4)"),
    ])
    def test_non_ascii_digit_exits_1(self, src, message):
        proc = run_subprocess(src, "-p", "2")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_nesting_at_limit_still_parses(self, capsys):
        code, out, err = run_cli(capsys, self.nested(MAX_NESTING), "-p", "2")
        assert code == 0
        assert err == ""
        assert "IRREDUCIBLE" in out

    def test_huge_degree_exits_1_fast(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "x^999999999+1", "-p", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error:")


    def test_phi_beyond_int_str_limit_renders(self):
        # phi's constant 2^20000 has 6,021 digits, over CPython's default
        # int-to-str limit of 4,300
        proc = run_subprocess(
            "(x+2^20000)^2+2", "-p", "2", "--phi", "x+2^20000", "--format", "json"
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        phi = json.loads(proc.stdout)["phi_reports"][0]["phi"]
        assert parse_poly(phi) == parse_poly("x+2^20000")

    def test_literal_beyond_int_str_limit_parses(self):
        proc = run_subprocess("x^2 + 1" + "0" * 4999 + "x + 2", "-p", "2")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "IRREDUCIBLE" in proc.stdout

    def test_huge_integer_power_exits_1_fast(self):
        start = time.perf_counter()
        proc = run_subprocess("2^1000000000", "-p", "2")
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_short_power_of_huge_size_exits_1_fast(self):
        # (x+1)^4000 would take half a minute to expand
        start = time.perf_counter()
        proc = run_subprocess("(x+1)^4000", "-p", "2")
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "(at position 6)" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestStdoutFailures:
    """A stdout that cannot take the output gives one error line and exit 1,
    and nothing more when the interpreter flushes at exit."""

    @staticmethod
    def run(argv, stdout, shell=False, unbuffered="", **env):
        src = str(Path(phinewton.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, **env)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        command = [sys.executable, "-m", "phinewton.cli", *argv]
        if shell:  # the shell closes fd 1 before Python starts
            command = subprocess.list2cmdline(command) + " >&-"
        return subprocess.run(command, shell=shell, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)

    @staticmethod
    def assert_one_error_line(proc, message):
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [("x^2+1", "-p", "2"), ("--help",),
                                      ("x^2+1", "-p", "2", "--check-only")])
    def test_pipe_without_reader(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)  # before the child starts, so every write fails
        try:
            proc = self.run(argv, write, unbuffered=unbuffered)
        finally:
            os.close(write)
        self.assert_one_error_line(proc, "[Errno 32] Broken pipe")

    @pytest.mark.parametrize("argv", [("x", "-p", "2"), ("--help",)])
    def test_closed_stdout(self, argv):
        proc = self.run(argv, None, shell=True)
        self.assert_one_error_line(proc, "stdout is closed")

    def test_pipe_without_reader_in_process_leaks_no_descriptor(self, monkeypatch, capsys):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to count open descriptors")

        def broken_pipe_run():
            read, write = os.pipe()
            os.close(read)
            with open(write, "w", encoding="utf-8") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                code = main(["x^2+1", "-p", "2"])
                monkeypatch.undo()
            assert code == 1
            assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

        broken_pipe_run()  # anything opened once, on a first call, is opened here
        before = len(list(fds.iterdir()))
        for _ in range(5):
            broken_pipe_run()
        assert len(list(fds.iterdir())) == before

    def test_character_outside_the_stdout_encoding(self):
        proc = self.run(["x^2　+1", "-p", "2"], subprocess.PIPE,
                        PYTHONIOENCODING="ascii")
        self.assert_one_error_line(
            proc, "'ascii' codec can't encode character '\\u3000' in position 11: "
                  "ordinal not in range(128)")
        assert proc.stdout == ""


class TestCheckOnly:
    def test_applicable(self, capsys):
        code, out, _ = run_cli(
            capsys, DEG12, "-p", "2", "--phi", "x^2+x+1", "--check-only"
        )
        assert code == 0
        assert "lambda = 2/3" in out

    def test_inapplicable(self, capsys):
        code, out, _ = run_cli(capsys, "x^2+1", "-p", "2", "--phi", "x",
                               "--check-only")
        assert code == 2
        assert "inapplicable" in out

    def test_full_mode(self, capsys):
        code, out, _ = run_cli(capsys, "x^2+2x+2", "-p", "2", "--check-only")
        assert code == 0
        assert "ok" in out

    def test_exit_code_matches_full_run(self, capsys):
        cases = [("x^2", "2", "x"), ("x", "3", "x"), ("x^2+2x+2", "2", "2x+1")]
        rng = random.Random(113)
        for p, phi in ((2, "x"), (2, "x^2+x+1"), (3, "x+2"), (5, "x^2+2")):
            phi_poly = parse_poly(phi)
            fams = gen_power_family(p, phi_poly, 12, seed=rng.randrange(2**30),
                                    max_n=5, zero_a0_prob=0.3)
            fams += [phi_poly**k for k in (1, 2, 3)]
            fams.append(phi_poly * IntPoly([1, 1]))  # not a power mod p
            cases += [(render_poly(f), str(p), phi) for f in fams]
        for f, p, phi in cases:
            full, _, _ = run_cli(capsys, f, "-p", p, "--phi", phi)
            check, out, _ = run_cli(capsys, f, "-p", p, "--phi", phi, "--check-only")
            assert check == full, (f, p, phi, out)
        assert run_cli(capsys, "x^2", "-p", "2", "--phi", "x", "--check-only")[0] == 0
        assert run_cli(capsys, "x^2+2x+2", "-p", "2", "--phi", "2x+1",
                       "--check-only")[0] == 1


def profiled_calls(capsys, func, argv, arg):
    """Run the CLI and list str(arg) for each call of `func`, whatever name
    the caller bound it to; returns (exit code, that list)."""
    code_obj = func.__code__
    calls = []

    def profile(frame, event, _):
        if event == "call" and frame.f_code is code_obj:
            calls.append(str(frame.f_locals[arg]))

    sys.setprofile(profile)
    try:
        code, _, _ = run_cli(capsys, *argv)
    finally:
        sys.setprofile(None)
    return code, calls


class TestRabinOnce:
    """A single-phi run tests the irreducibility of phibar once, by its
    factor degrees over F_p; the residual splits over F_phi (printed in y)
    are not tests of phibar."""

    @pytest.mark.parametrize("extra", [(), ("--check-only",)])
    def test_one_rabin_test_on_phibar(self, capsys, extra):
        code, counted = profiled_calls(
            capsys, residue_field.factor_degrees,
            (DEG12, "-p", "2", "--phi", "x^2+x+1", *extra), "g")
        assert code == 0
        assert [g for g in counted if "y" not in g] == ["x^2 + x + 1"]


class TestPowerOnce:
    """A single-phi run expands f in phi once and reads the test
    f mod p = phibar^n off that expansion, also when the test fails."""

    @pytest.mark.parametrize("extra", [(), ("--check-only",)])
    def test_one_power_comparison(self, capsys, extra):
        code, expanded = profiled_calls(
            capsys, polyring.phi_expand,
            (DEG12, "-p", "2", "--phi", "x^2+x+1", *extra), "f")
        assert code == 0
        assert len(expanded) == 1

    @pytest.mark.parametrize("extra", [(), ("--check-only",)])
    def test_one_expansion_when_the_gate_fails(self, capsys, extra):
        # x^4 + x + 1 mod 2 is not a power of x^2 + x + 1
        code, expanded = profiled_calls(
            capsys, polyring.phi_expand,
            ("x^4+x+1", "-p", "2", "--phi", "x^2+x+1", *extra), "f")
        assert code == 2
        assert expanded == ["IntPoly([1, 1, 0, 0, 1])"]

    @pytest.mark.parametrize("extra", [(), ("--check-only",)])
    def test_no_polygon_when_the_gate_fails(self, capsys, extra):
        # x^3 + x^2 + 2 mod 2 = x^2 (x + 1) is not a power of x, which the
        # expansion shows (u_2 = 0), so no polygon or residual is needed:
        # the one factor_degrees call is the test of phibar = x
        argv = ("x^3+x^2+2", "-p", "2", "--phi", "x", *extra)
        code, built = profiled_calls(capsys, polygon.build_polygon, argv, "points")
        assert code == 2
        assert built == []
        code, counted = profiled_calls(
            capsys, residue_field.factor_degrees, argv, "g")
        assert code == 2
        assert counted == ["x"]


class TestExpandToMultiplicity:
    """Full mode divides f by each phi w + 1 times, w the multiplicity of
    phibar in f mod p, whatever deg f // deg phi is: a complete expansion
    in a linear phi of these degree-30 inputs takes 31 divisions."""

    @staticmethod
    def _monic(rng, degree):
        return IntPoly([rng.randrange(-2**19, 2**19) for _ in range(degree)] + [1])

    @pytest.mark.parametrize("seed, squared, max_w", [(31, False, 1), (11, True, 2)])
    def test_w_plus_one_divisions(self, capsys, seed, squared, max_w):
        rng = random.Random(seed)
        if squared:  # a^2 * b with deg a = 3
            a = self._monic(rng, 3)
            f = a * a * self._monic(rng, 24)
        else:  # five simple factors mod 10007: two divisions each
            f = self._monic(rng, 30)
        report = analyze(f, 10007)
        assert max(pr.multiplicity for pr in report.phi_reports) == max_w
        assert min(pr.phi.degree for pr in report.phi_reports) == 1
        code, divisors = profiled_calls(
            capsys, IntPoly.__divmod__,
            (render_poly(f), "-p", "10007", "--format", "json"), "other")
        assert code == 0
        assert Counter(divisors) == {repr(pr.phi): pr.multiplicity + 1
                                     for pr in report.phi_reports}


class TestPrimeOnce:
    """The input is validated once, so every CLI run tests p for primality
    once, in both modes and with or without --check-only."""

    @pytest.mark.parametrize("argv", [
        ("x^2+2x+2", "-p", "2"),
        (DEG12, "-p", "2", "--phi", "x^2+x+1"),
        (DEG12, "-p", "2", "--phi", "x^2+x+1", "--check-only"),
        ("x^24+x+7", "-p", "65521", "--check-only"),
    ], ids=["full", "single-phi", "check-only-phi", "check-only"])
    def test_one_primality_check(self, capsys, argv):
        code, tested = profiled_calls(capsys, valuation.is_prime, argv, "n")
        assert code == 0
        assert tested == [argv[2]]


def _policy_cases():
    """(f, p, phi, message) for inputs that break the one input policy."""
    # 318665857834031151167461 passes Miller-Rabin to the 12 prime bases
    # up to 37; base 41 refuses it
    for p in (-3, 0, 1, 4, 2**61 + 1, 318665857834031151167461):
        for phi in (None, "x"):
            yield "x^2+2x+2", p, phi, f"{p} is not prime"
    # no primality proof at or above the bound, for a prime or not
    for p in (3317044064679887385961981, 2**89 - 1):
        for phi in (None, "x"):
            yield "x^2+2x+2", p, phi, (
                f"{p} is too large: primality is proven only below 3317044064679887385961981")
    for f in ("2x^2+1", "7"):
        for phi in (None, "x"):
            yield f, 2, phi, "input polynomial must be monic of degree >= 1"
    yield "x^2+2x+2", 2, "2x+1", "phi must be monic of degree >= 1"


POLICY_CASES = list(_policy_cases())


class TestOnePolicy:
    """`analyze` states the input policy; the CLI prints its message as is."""

    @pytest.mark.parametrize("extra", [(), ("--check-only",)], ids=["run", "check-only"])
    @pytest.mark.parametrize("f, p, phi, message", POLICY_CASES,
                             ids=[f"{f} -p {p} --phi {phi}" for f, p, phi, _ in POLICY_CASES])
    def test_cli_prints_the_analyze_message(self, capsys, f, p, phi, message, extra):
        parsed_phi = None if phi is None else parse_poly(phi)
        with pytest.raises(ValueError) as raised:
            analyze(parse_poly(f), p, phi=parsed_phi)
        assert str(raised.value) == message
        argv = [f, "-p", str(p), *(() if phi is None else ("--phi", phi)), *extra]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_syntax_error_is_named_before_a_bad_prime(self, capsys):
        with pytest.raises(ParseError) as raised:
            parse_poly("x^^2")
        assert run_cli(capsys, "x^^2", "-p", "4") == (1, "", f"error: {raised.value}\n")


class TestInputFile(object):
    def test_reads_file(self, tmp_path, capsys):
        src = tmp_path / "poly.txt"
        src.write_text("x^2+2x+2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--input", str(src), "-p", "2")
        assert code == 0
        assert "IRREDUCIBLE" in out


class TestSeedHandling:
    def test_env_seed(self, capsys, monkeypatch):
        """The report has no seed: $PHINEWTON_SEED, set or malformed, changes
        no byte and no exit code."""
        for fmt in ("text", "json"):
            argv = ("(x^3+x+1)*(x^3+x^2+1)*(x^2+x+1)+2*x", "-p", "2", "--format", fmt)
            monkeypatch.delenv("PHINEWTON_SEED", raising=False)
            unset = run_cli(capsys, *argv)
            assert unset[0] == 0 and "seed" not in unset[1]
            for value in ("٣", "abc", "9"):
                monkeypatch.setenv("PHINEWTON_SEED", value)
                assert run_cli(capsys, *argv) == unset

    def test_seed_option_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "x^2+1", "-p", "2", "--seed", "3")
        assert code == 1
        assert out == ""
        assert err.endswith("phinewton: error: unrecognized arguments: --seed 3\n")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            (DEG12, "-p", "2", "--phi", "x^2+x+1"),
            ("(x^5+8)*((x+1)^4+8)", "-p", "2"),
            ("x^12+2", "-p", "3"),
        ],
    )
    def test_json_reports_reproduce_byte_identically(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code in (0, 2)
        doc = json.loads(out)
        rerun = [doc["input"], "-p", str(doc["prime"]), "--format", "json"]
        if doc["mode"] == "single-phi" and doc["phi_reports"]:
            rerun += ["--phi", doc["phi_reports"][0]["phi"]]
        code2, out2, _ = run_cli(capsys, *rerun)
        assert out2 == out


def dumped(report):
    return json.dumps(report_to_dict(report), indent=2) + "\n"


class TestJsonWriter:
    """render_json writes the bytes of json.dumps(indent=2), escapes included."""

    @pytest.mark.parametrize("space", ["\u3000", "\u0085", "\u00a0", "\t", "\n"])
    def test_odd_whitespace_in_the_expression(self, capsys, space):
        expr = f"x^2{space}+ 2x +{space}2"
        report = analyze(parse_poly(expr), 2, input_str=expr)
        assert render_json(report) == dumped(report)
        assert run_cli(capsys, expr, "-p", "2", "--format", "json") == (0, dumped(report), "")

    def test_odd_whitespace_in_an_input_file(self, tmp_path, capsys):
        text = "x^2\u3000+\u00a02x\t+\u0085\n2\n"
        src = tmp_path / "poly.txt"
        src.write_text(text, encoding="utf-8")
        report = analyze(parse_poly(text), 2, input_str=text.strip())
        assert render_json(report) == dumped(report)
        code, out, _ = run_cli(capsys, "--input", str(src), "-p", "2", "--format", "json")
        assert (code, out) == (0, dumped(report))

    def test_every_escape(self):
        """Control characters, DEL, non-ASCII, lone surrogates (as argv
        decoding leaves them) and characters past U+FFFF."""
        text = "".join(map(chr, range(0x800))) + "\ud800\udcff\uffff\U0001f600\U0010ffff"
        report = analyze(parse_poly("x^2+1"), 3, input_str=text)
        assert render_json(report) == dumped(report)

    def test_empty_lists_and_nested_records(self):
        report = analyze(parse_poly("x^4+1"), 2, phi=parse_poly("x^2+1"))
        assert report.phi_reports == () and render_json(report) == dumped(report)
        report = analyze(parse_poly("(x+1)^3*(x^2+x+1)"), 2)
        assert render_json(report) == dumped(report)


class TestRenderHelpers:
    def test_report_dict_key_order(self):
        report = analyze(parse_poly("x^2+2x+2"), 2)
        keys = list(report_to_dict(report).keys())
        assert keys == [
            "input", "prime", "mode", "phi_reports", "verdict", "factor_bound",
            "min_factor_degree", "notes", "version",
        ]

    def test_svg_hollow_and_solid_points(self):
        report = analyze(parse_poly(DEG12), 2, phi=parse_poly("x^2+x+1"))
        svg = render_svg(report)
        assert 'fill="#fff"' in svg  # (3,3) strictly above the hull
        assert 'fill="#000"' in svg
