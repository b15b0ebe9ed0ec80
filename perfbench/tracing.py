"""Traced run: spans around the calls into each phinewton layer.

The tracer wraps public names at the place where callers look them up (for
example ``criteria.phi_expand``, not ``polyring.phi_expand``), so no file
under ``src/`` changes.  It is installed only inside a forked child that
runs one traced op; the untraced run never imports this module's wrappers.
A hooked name that no longer exists is reported as absent, and the metrics
that depend on it read 0.

Each wrapped call records a span (hook, start, end, parent span) in memory.
After the op has finished and its clock has stopped, a few counts are read
from the recorded arguments and results, so counting costs no traced time.
"""

from __future__ import annotations

import importlib
import time

# (span name, module where callers look the name up, attribute path)
HOOKS = (
    ("parse_poly", "phinewton.cli", "parse_poly"),
    ("analyze", "phinewton.cli", "analyze"),
    ("render_json", "phinewton.cli", "render_json"),
    ("phi_expand", "phinewton.criteria", "phi_expand"),
    ("is_power_of_phibar", "phinewton.criteria", "is_power_of_phibar"),
    ("fp_factorize", "phinewton.criteria", "fp_factorize"),
    ("fp_is_irreducible", "phinewton.criteria", "fp_is_irreducible"),
    ("ext_is_irreducible", "phinewton.criteria", "ext_is_irreducible"),
    ("ext_count", "phinewton.criteria", "ext_count_irreducible_factors"),
    ("build_polygon", "phinewton.criteria", "build_polygon"),
    ("residual_polynomial", "phinewton.criteria", "residual_polynomial"),
    ("ext_field", "phinewton.residual", "ext_field"),
    ("valuation", "phinewton.valuation", "ValuationDomain.valuation"),
    ("fp_pow_mod", "phinewton.residue_field", "FpPoly.pow_mod"),
    ("ext_pow_mod", "phinewton.residue_field", "ExtPoly.pow_mod"),
)
ROOT = "main"
SPAN_NAMES = (ROOT,) + tuple(h[0] for h in HOOKS)


def _expansion_info(args, result):
    bits = max((abs(c).bit_length() for a in result.coeffs for c in a.coeffs),
               default=0)
    return [len(result.coeffs), bits]


# Counts read after the op from (args, result) of a span.
INFO = {
    "parse_poly": lambda args, result: len(args[0]),
    "valuation": lambda args, result: result if isinstance(result, int) else 0,
    "phi_expand": _expansion_info,
    "fp_factorize": lambda args, result: len(result.factors),
    "build_polygon": lambda args, result: len(args[0]),
    "residual_polynomial": lambda args, result: result.degree,
}
KEEP = set(INFO) | {"ext_field"}


class Tracer:
    """Span recorder for one op in one process."""

    def __init__(self):
        self.spans = []          # [name index, start, end, parent, args, result]
        self.stack = [-1]        # -1 is the op's root span
        self.absent = []

    def install(self):
        for index, (name, module_name, path) in enumerate(HOOKS, start=1):
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original, name in KEEP)
            setattr(owner, attr, wrapper)
            if not parents:
                # Tables such as cli.RENDERERS hold the function itself.
                for value in list(vars(owner).values()):
                    if isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper

    def _wrap(self, index, original, keep):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [index, 0.0, 0.0, stack[-1], None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep:
                rec[4], rec[5] = args, result
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def export(self, start: float) -> list:
        """Spans as [name, start, end, parent, info], times relative to start."""
        seen = set()
        out = []
        for index, t0, t1, parent, args, result in self.spans:
            name = SPAN_NAMES[index]
            info = None
            if name == "ext_field":
                # a field object not seen before in this op was built
                info = int(id(result) not in seen)
                seen.add(id(result))
            elif args is not None:
                try:
                    info = INFO[name](args, result)
                except (AttributeError, IndexError, TypeError):
                    info = None
            out.append([name, t0 - start, t1 - start, parent, info])
        return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of traced ops.

# metric -> (span, what): "total" is the span's duration, "self" its duration
# minus the part its direct child spans cover.  residue_field totals include
# their own pow_mod child spans, which belong to the same layer.
TIME_METRICS = {
    "valuation.valuation_s": ("valuation", "total"),
    "polyring.phi_expand_s": ("phi_expand", "self"),
    "polyring.is_power_of_phibar_s": ("is_power_of_phibar", "self"),
    "residue_field.fp_factorize_s": ("fp_factorize", "total"),
    "residue_field.fp_is_irreducible_s": ("fp_is_irreducible", "total"),
    "residue_field.ext_field_s": ("ext_field", "total"),
    "residue_field.ext_is_irreducible_s": ("ext_is_irreducible", "total"),
    "residue_field.ext_count_s": ("ext_count", "total"),
    "expr.parse_s": ("parse_poly", "total"),
    "residual.self_s": ("residual_polynomial", "self"),
    "polygon.build_s": ("build_polygon", "total"),
    "criteria.self_s": ("analyze", "self"),
    "cli.self_s": (ROOT, "self"),
    "cli.render_s": ("render_json", "total"),
}

# Which end-to-end metric each layer's metrics should move, and where.
MOVES = (
    (("valuation.",),
     "cert_ms.p50, certs_per_s on huge_heights; none on full_large_p, deep_ext"),
    (("polyring.",), "cert_ms.p90 on deep_ext (long expansions)"),
    (("residue_field.fp_factor", "residue_field.fp_is_irreducible"),
     "cert_ms.p50, cert_ms.p90 on full_large_p; none on huge_heights"),
    (("residue_field.ext_field",), "cert_ms.p50 on full_large_p"),
    (("residue_field.ext_", "residue_field.fp_pow_mod", "residual.degree_sum"),
     "cert_ms.p90 on deep_ext"),
    (("expr.",), "cert_ms.p90 on deep_ext"),
    (("residual.", "polygon."), "small everywhere"),
    (("criteria.", "cli."), "certs_per_s on paper_batch"),
    (("trace.",), "traced minus untraced op time, over untraced"),
)


def moves(metric: str) -> str:
    for prefixes, text in MOVES:
        if metric.startswith(prefixes):
            return text
    return ""


def op_layers(spans: list, elapsed: float, out_bytes: int) -> tuple[dict, dict]:
    """Per-layer seconds and counts of one traced op."""
    child_time = [0.0] * len(spans)
    root_child_time = 0.0
    for name, t0, t1, parent, _ in spans:
        if parent < 0:
            root_child_time += t1 - t0
        else:
            child_time[parent] += t1 - t0
    by_span = {}
    for k, (name, t0, t1, _, _) in enumerate(spans):
        total, own = by_span.get(name, (0.0, 0.0))
        by_span[name] = (total + t1 - t0, own + t1 - t0 - child_time[k])
    by_span[ROOT] = (elapsed, elapsed - root_child_time)
    times = {}
    for metric, (span, what) in TIME_METRICS.items():
        total, own = by_span.get(span, (0.0, 0.0))
        times[metric] = total if what == "total" else own

    def infos(span):
        return [s[4] for s in spans if s[0] == span and s[4] is not None]

    def count(span):
        return sum(1 for s in spans if s[0] == span)

    expansions = infos("phi_expand")
    counts = {
        "valuation.calls": count("valuation"),
        "valuation.units": sum(infos("valuation")),
        "polyring.expansion_len": sum(e[0] for e in expansions),
        "polyring.coeff_bits_max": max((e[1] for e in expansions), default=0),
        "residue_field.fp_factors": sum(infos("fp_factorize")),
        "residue_field.ext_field_calls": count("ext_field"),
        "residue_field.ext_field_builds": sum(infos("ext_field")),
        "residue_field.ext_pow_mod_calls": count("ext_pow_mod"),
        "residue_field.fp_pow_mod_calls": count("fp_pow_mod"),
        "residual.degree_sum": sum(infos("residual_polynomial")),
        "expr.input_chars": sum(infos("parse_poly")),
        "polygon.points": sum(infos("build_polygon")),
        "cli.out_bytes": out_bytes,
    }
    return times, counts
