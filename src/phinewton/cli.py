"""Command-line front end: parse, analyze, and render certificates.

`main` reads its options with `_read_argv`, a left-to-right reader over the
small grammar stated in its docstring: options by exact name, a value as the
next argument or after "=", and "--" before an expression that starts with
"-".  The reader writes nothing and never exits; on a malformed argv it
raises UsageError, and `main` prints the usage line and
"phinewton: error: <message>" and returns 1.  It imports neither argparse
nor the gettext and locale modules behind it.  -p takes an optional "-" and
ASCII digits only.  `main` then parses f and phi and hands them to
`criteria.analyze`, which alone decides whether p, f and phi are
acceptable; a syntax error is therefore named before a bad p.

Exit codes: 0 on success, 1 on input errors (syntax, non-prime p, non-monic
f, phi not monic of degree >= 1, a usage error such as a missing or
non-integer -p, an --output or a stdout that cannot take the report), 2
when the requested single-phi criteria are inapplicable to the input, so
batch scripts can tell "theorems don't apply" from "bad input".  An exact
power f = phi^n is certified with exit 0.  With --phi, --check-only runs the
same analysis and prints one line of the report instead of all of it, so it
exits with the code the full run would return; without --phi it only runs
the input validator of `analyze` on f and p.  --output takes whatever would
go to stdout, the --check-only line included.

The JSON report is stable under re-runs: feeding the embedded input, prime
and phi back through the tool reproduces the report byte for byte.
`render_json` writes the bytes that json.dumps(report_to_dict(report),
indent=2) writes, escapes included, without importing json.
Top-level keys: input, prime, mode, phi_reports, verdict, factor_bound (the
sum of a over the factor groups (q, a)), min_factor_degree (their least q,
present only when certified), notes, version.
Each phi_report carries phi, multiplicity, and per-side geometry with the
residual polynomial as the coefficient list [t_0 .. t_d] over F_phi (t_i is
the F_p coefficient list, ascending in x, of the coefficient of y^(d-i)).
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .criteria import INAPPLICABLE, AnalysisReport, _validate_input, analyze
from .expr import _escaped, parse_poly, render_poly
from .polygon import ratio
from .polyring import phi_expand
from .valuation import INFINITY


def report_to_dict(report: AnalysisReport) -> dict:
    phi_reports = []
    for pr in report.phi_reports:
        sides = []
        for rec in pr.sides:
            s = rec.side
            ts = reversed(rec.residual.coeffs)  # stored ascending; shown t_0..t_d
            sides.append({
                "start": list(s.start),
                "end": list(s.end),
                "length": s.length,
                "slope": {"num": -s.h, "den": s.e},  # every side is principal
                "h": s.h,
                "e": s.e,
                "degree": s.degree,
                "residual_poly": [list(t.coeffs) for t in ts],
                "residual_factor_count": rec.factor_count,
            })
        phi_reports.append({
            "phi": render_poly(pr.phi),
            "multiplicity": pr.multiplicity,
            "sides": sides,
        })
    out = {
        "input": report.input,
        "prime": report.prime,
        "mode": report.mode,
        "phi_reports": phi_reports,
        "verdict": report.verdict,
    }
    out["factor_bound"] = report.factor_bound
    if report.min_factor_degree is not None:
        out["min_factor_degree"] = report.min_factor_degree
    out["notes"] = list(report.notes)
    out["version"] = __version__
    return out


# What json.dumps escapes with ensure_ascii: '"', backslash, and every
# character outside printable ASCII.
_UNSAFE = re.compile(r'["\\]|[^ -~]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
            "\r": "\\r", "\t": "\\t"}


def _escape(match) -> str:
    c = match.group()
    if c in _ESCAPES:
        return _ESCAPES[c]
    n = ord(c)
    if n > 0xFFFF:  # a UTF-16 surrogate pair
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _json(value, indent: str = "") -> str:
    """A str, int, list or dict as json.dumps(value, indent=2) writes it,
    with its closing bracket at `indent`."""
    if isinstance(value, str):
        return '"' + _UNSAFE.sub(_escape, value) + '"'
    if isinstance(value, int):
        return str(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json(k)}: {_json(v, inner)}" for k, v in value.items()]
    else:
        items = [_json(v, inner) for v in value]
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def render_json(report: AnalysisReport) -> str:
    """The report as json.dumps(report_to_dict(report), indent=2) writes
    it, byte for byte, plus a newline."""
    return _json(report_to_dict(report)) + "\n"


def render_text(report: AnalysisReport) -> str:
    lines = []
    lines.append(f"input:  {report.input}")
    lines.append(f"prime:  {report.prime}    mode: {report.mode}")
    for pr in report.phi_reports:
        lines.append(f"phi = {render_poly(pr.phi)}   (multiplicity {pr.multiplicity})")
        verts = " -> ".join(f"({i}, {u})" for i, u in pr.polygon.vertices)
        lines.append(f"  polygon vertices: {verts}")
        if pr.exact_power_exponent:
            lines.append(f"  phi divides f exactly {pr.exact_power_exponent} time(s)")
        for k, rec in enumerate(pr.sides, 1):
            s = rec.side
            lines.append(
                f"  side {k}: ({s.start[0]},{s.start[1]})->({s.end[0]},{s.end[1]})"
                f"  length {s.length}  slope {ratio(-s.h, s.e)}"
                f"  h={s.h} e={s.e} degree {s.degree}"
            )
            irreducible = "yes" if rec.factor_count == 1 else "no"
            lines.append(
                f"    residual: {rec.residual}   irreducible over F_phi: "
                f"{irreducible}   factors: {rec.factor_count}"
            )
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"factor bound: {report.factor_bound}")
    if report.min_factor_degree is not None:
        lines.append(f"minimum factor degree: {report.min_factor_degree}")
    lines.append("notes:")  # never empty: the last note restates the bound
    lines.extend(f"  - {note}" for note in report.notes)
    return "\n".join(lines) + "\n"


_SX = 48   # pixels per abscissa unit
_SY = 32   # pixels per valuation unit
_MARGIN = 56


def _svg_phi_block(pr, y_offset: int) -> tuple[list[str], int, int]:
    # Full mode expands f only through the multiplicity; the drawing shows
    # every point, so it expands f again in full.
    exp = pr.expansion
    exp = phi_expand(exp.f, exp.phi, exp.p) if exp.is_truncated else exp
    finite = [(i, u) for i, u in exp.points() if u is not INFINITY]
    max_i = max(i for i, _ in finite)
    max_u = max(u for _, u in finite)
    width = _MARGIN * 2 + _SX * max(max_i, 1)
    height = _MARGIN * 2 + _SY * max(max_u, 1)

    def px(i):
        return _MARGIN + _SX * i

    def py(u):
        # SVG y grows downward; valuation axis points up
        return y_offset + _MARGIN + _SY * (max_u - u)

    parts = [f'<g font-family="monospace" font-size="12">']
    parts.append(
        f'<text x="{_MARGIN}" y="{y_offset + 24}">phi = {render_poly(pr.phi)} '
        f'(multiplicity {pr.multiplicity})</text>'
    )
    # axes
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(max_i)}" y2="{py(0)}" '
        f'stroke="#bbb"/>'
    )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(max_u)}" '
        f'stroke="#bbb"/>'
    )
    # hull
    if len(pr.polygon.vertices) >= 2:
        pointstr = " ".join(f"{px(i)},{py(u)}" for i, u in pr.polygon.vertices)
        parts.append(
            f'<polyline points="{pointstr}" fill="none" stroke="#000" '
            f'stroke-width="2"/>'
        )
    # points: solid when on a side's line inside its span, hollow when above
    for i, u in finite:
        # a point on a side's line outside its span would lie below the hull
        on_side = (i, u) in pr.polygon.vertices or any(
            s.above(i, u) == 0 for s in pr.polygon.sides)
        fill = "#000" if on_side else "#fff"
        parts.append(
            f'<circle cx="{px(i)}" cy="{py(u)}" r="4" fill="{fill}" '
            f'stroke="#000"/>'
        )
    # slope labels and residual annotations
    for k, rec in enumerate(pr.sides):
        s = rec.side
        label = "irreducible" if rec.factor_count == 1 else f"{rec.factor_count} factors"
        mx = (px(s.start[0]) + px(s.end[0])) / 2
        my = (py(s.start[1]) + py(s.end[1])) / 2 - 8
        parts.append(f'<text x="{mx:.1f}" y="{my:.1f}">slope {ratio(-s.h, s.e)}</text>')
        parts.append(
            f'<text x="{_MARGIN}" y="{y_offset + height - 28 + 14 * k}">'
            f'side {k + 1}: f_S = {rec.residual} '
            f'({label})'
            f'</text>'
        )
    parts.append("</g>")
    block_height = height + 14 * max(len(pr.sides), 1)
    return parts, width, block_height


def render_svg(report: AnalysisReport) -> str:
    blocks = []
    width = 480
    y = 0
    for pr in report.phi_reports:
        parts, w, h = _svg_phi_block(pr, y)
        blocks.extend(parts)
        width = max(width, w)
        y += h
    header_lines = [
        f'<text x="8" y="16" font-family="monospace" font-size="12">'
        f'{report.verdict}: factor bound {report.factor_bound}</text>'
    ]
    total_height = max(y, 48) + 24
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{total_height}" viewBox="0 0 {width} {total_height}">\n'
        + "\n".join(header_lines + blocks)
        + "\n</svg>\n"
    )


RENDERERS = {"text": render_text, "json": render_json, "svg": render_svg}


def _check_only_line(report: AnalysisReport) -> str:
    """The one line --check-only prints for a single-phi report."""
    if report.verdict == INAPPLICABLE:
        if not report.phi_reports:
            return f"inapplicable: {report.notes[0]}"
        return "inapplicable: single-side hypothesis fails"
    pr = report.phi_reports[0]
    if pr.is_exact_power:
        return f"ok: f equals phi^{pr.multiplicity} exactly"
    s = pr.sides[0].side
    return f"ok: single-side hypothesis holds (lambda = {ratio(s.h, s.e)})"


def _emit(rendered: str, output: str | None, code: int) -> int:
    """Write to the --output path, or to stdout; returns code, or 1 after an
    error line when the output cannot be written."""
    try:
        if output:
            Path(output).write_text(rendered, encoding="utf-8")
        elif sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError("stdout is closed")
        else:
            try:
                sys.stdout.write(rendered)
                sys.stdout.flush()
            except OSError:
                # What stays buffered goes to the null device, so the flush
                # at exit raises no second error.
                null = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(null, sys.stdout.fileno())
                finally:
                    os.close(null)
                raise
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


_USAGE = """\
usage: phinewton [-h] [--input INPUT] -p PRIME [--phi PHI]
                 [--format {text,json,svg}] [--check-only] [--output OUTPUT]
                 [expression]
"""

_HELP = _USAGE + """
phi-adic Newton polygons, residual polynomials, and irreducibility bounds for
monic integer polynomials.

positional arguments:
  expression            polynomial in x

options:
  -h, --help            show this help message and exit
  --input INPUT         file containing one expression (UTF-8)
  -p PRIME, --prime PRIME
                        prime for the p-adic valuation
  --phi PHI             monic phi for single-phi mode
  --format {text,json,svg}
  --check-only          validate input and hypothesis, print one line
  --output OUTPUT       write the report (or the --check-only line) to this
                        path
"""

# Option string -> field.
_OPTIONS = {
    "-h": "help", "--help": "help",
    "--input": "input",
    "-p": "prime", "--prime": "prime",
    "--phi": "phi",
    "--format": "fmt",
    "--check-only": "check_only",
    "--output": "output",
}
_FLAGS = ("help", "check_only")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(Exception):
    """A malformed argv; `main` prints it under the usage line."""


def _argument(field: str) -> str:
    return "argument " + "/".join(o for o, f in _OPTIONS.items() if f == field)


def _looks_like_option(arg: str) -> bool:
    return (arg.startswith("-") and arg != "-" and " " not in arg
            and not _NEGATIVE_NUMBER.match(arg))


def _value(field: str, value: str):
    """The typed value of an option: -p takes an optional "-" and ASCII
    digits, --format one of RENDERERS."""
    if field == "prime":
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:  # more digits than int() converts
                pass
        raise UsageError(f"{_argument(field)}: invalid int value: {value!r}")
    if field == "fmt" and value not in RENDERERS:
        choices = ", ".join(map(repr, RENDERERS))
        raise UsageError(f"{_argument(field)}: invalid choice: {value!r} (choose from {choices})")
    return value


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """The fields of argv: expression, input, prime, phi, fmt, check_only,
    output and help.  Writes nothing; a malformed argv raises UsageError.

    The grammar, read left to right:
    - An option is one of _OPTIONS by its exact name.  -h/--help and
      --check-only take no value; the others take one, either the next
      argument or after "=" in the same argument (--phi=-1+x, -p=3).
    - An argument looks like an option when it starts with "-", is not "-"
      alone, is not a negative number and holds no space; so -p -3 and
      --phi "-x + 1" read as values.  Such a next argument is not taken as a
      value: the option expected one argument.
    - "--" ends the options: every later argument is positional, and "--"
      itself is none.  There is at most one positional, the expression.
    - The last occurrence of an option wins.  -h/--help stops the reading
      where it stands, with every other field as read so far.
    - A missing -p is refused before an unknown option-like argument or a
      second positional ("unrecognized arguments", each shown as
      expr._escaped shows it).
    """
    fields = dict(expression=None, input=None, prime=None, phi=None, fmt="text",
                  check_only=False, output=None, help=False)
    extras, ended = [], False
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        field = None if ended else _OPTIONS.get(name)
        if field is None:
            if arg == "--" and not ended:
                ended = True
            elif fields["expression"] is None and (ended or not _looks_like_option(arg)):
                fields["expression"] = arg
            else:
                extras.append(arg)
        elif field in _FLAGS:
            if eq:
                raise UsageError(f"{_argument(field)}: ignored explicit argument {value!r}")
            fields[field] = True
            if field == "help":
                return SimpleNamespace(**fields)
        else:
            if not eq:
                value = next(args, None)
                if value is None or _looks_like_option(value):
                    raise UsageError(f"{_argument(field)}: expected one argument")
            fields[field] = _value(field, value)
    if fields["prime"] is None:
        raise UsageError("the following arguments are required: -p/--prime")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(map(_escaped, extras))}")
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    """Execute one analysis; returns the process exit code."""
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        if args.help:
            return _emit(_HELP, None, 0)
        if (args.expression is None) == (args.input is None):
            raise ValueError("supply exactly one input: a positional expression "
                             "or --input FILE")
        if args.input is not None:
            expression = Path(args.input).read_text(encoding="utf-8").strip()
        else:
            expression = args.expression
        f = parse_poly(expression)
        phi = parse_poly(args.phi) if args.phi is not None else None
        if args.check_only and phi is None:
            _validate_input(f, args.prime)
            line = f"ok: monic degree-{f.degree} polynomial, p = {args.prime}"
            return _emit(line + "\n", args.output, 0)
        report = analyze(f, args.prime, phi=phi, input_str=expression)
    except UsageError as exc:
        sys.stderr.write(f"{_USAGE}phinewton: error: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code = 2 if report.verdict == INAPPLICABLE else 0
    if args.check_only:
        return _emit(_check_only_line(report) + "\n", args.output, code)
    return _emit(RENDERERS[args.fmt](report), args.output, code)


if __name__ == "__main__":
    sys.exit(main())
