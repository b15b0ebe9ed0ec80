"""Seeded, layered certificate benchmark for phinewton.

One command runs one workload closed-loop from a single client, one
certificate in flight, through the documented entry point
``phinewton.cli.main(argv)``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

It runs from the root of a checkout and imports phinewton from ``src/``
there.  Steps:

1. generate the workload's pool of ops from the seed (``workloads.py``);
2. factor every input over Z with sympy in separate processes
   (``oracle.py``), outside the timed window and outside the measured
   process;
3. start ``zygote.py``, which imports the CLI and forks one child per op,
   and run the pool in whole passes until ``--seconds`` have passed and at
   least ``MIN_SAMPLES`` ops have run;
4. between ops, time ``setup_s``: the cold start from a fresh interpreter
   to ``phinewton.cli`` imported, the median of ``SETUP_SAMPLES`` processes;
5. check every certificate against the oracle and its own first run, and
   print the metrics, the output digest and, as the last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` each op runs twice in a row, untraced and traced (in
alternating order), and the metrics are the per-layer ones of ``tracing.py``
plus ``trace.overhead_frac``.  The spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Distinct inputs per run.  On a 2-core x86 VM one pass takes about 1 s
# (paper_batch), 6 s (full_large_p), 7 s (huge_heights) and 3 s (deep_ext),
# so a run of BENCHMARK.json's 35 s times every input several times.
POOL_SIZES = {
    "paper_batch": 100,
    "full_large_p": 54,
    "huge_heights": 36,
    "deep_ext": 36,
}
SMOKE_SIZES = {"paper_batch": 4, "full_large_p": 2, "huge_heights": 2, "deep_ext": 2}

# p90 needs at least ten samples above it.
MIN_SAMPLES = 100
SETUP_SAMPLES = 25
ORACLE_PROCESSES = 2


# ---------------------------------------------------------------------------
# Oracle and set-up time, both outside the measured process.

def oracle_degrees(ops: list) -> list:
    """Degrees of the irreducible factors over Z of each op's input."""
    inputs = [[format(c, "x") for c in op.coeffs] for op in ops]
    chunks = [inputs[k::ORACLE_PROCESSES] for k in range(ORACLE_PROCESSES)]
    procs = []
    try:
        for chunk in chunks:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "oracle.py"), str(STATE / "oracle")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            proc.stdin.write(json.dumps(chunk))
            proc.stdin.close()
            procs.append(proc)
        answers = []
        for proc in procs:
            answers.append(json.loads(proc.stdout.read()))
            if proc.wait() != 0:
                raise RuntimeError("oracle process failed")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    out = [None] * len(ops)
    for k, chunk_answers in enumerate(answers):
        out[k::ORACLE_PROCESSES] = chunk_answers
    return out


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("PHINEWTON_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_sample() -> float:
    """Wall time from spawning an interpreter to phinewton.cli imported."""
    code = "import phinewton.cli, sys; sys.stdout.write('1'); sys.stdout.flush()"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=cli_env(),
                            stdout=subprocess.PIPE)
    ready = proc.stdout.read(1)
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or ready != b"1":
        raise RuntimeError("importing phinewton.cli failed")
    return elapsed


class Zygote:
    """Client side of ``zygote.py``: one request and one reply per op."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "zygote.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=cli_env(), cwd=ROOT)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("the measured process did not start")

    def run(self, argv, trace: bool) -> dict:
        request = json.dumps({"argv": list(argv), "trace": int(trace)})
        self.proc.stdin.write(request.encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the measured process exited")
        return json.loads(line)

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Checking one certificate.

def certificate(result: dict) -> dict | None:
    """The op's JSON certificate, or None when it printed none."""
    try:
        doc = json.loads(result.get("out", ""))
    except ValueError:
        return None
    if isinstance(doc, dict) and isinstance(doc.get("factor_bound"), int):
        return doc
    return None


def check(op, result: dict, degrees: list) -> str | None:
    """Why this op failed, or None.  ``degrees`` is the oracle's answer."""
    if "harness_error" in result:
        return result["harness_error"].strip().splitlines()[-1]
    if result["traceback"]:
        return "traceback: " + result["traceback"].strip().splitlines()[-1]
    if result["code"] != op.expected_exit:
        return f"exit {result['code']}, expected {op.expected_exit}"
    doc = certificate(result)
    if doc is None:
        return "output is not a JSON certificate"
    verdict, bound = doc.get("verdict"), doc["factor_bound"]
    if verdict == "IRREDUCIBLE" and len(degrees) > 1:
        return f"IRREDUCIBLE, but the input has {len(degrees)} factors"
    if len(degrees) > bound:
        return f"factor_bound {bound} < true factor count {len(degrees)}"
    if doc.get("min_factor_degree", 0) > degrees[0]:
        return (f"min_factor_degree {doc['min_factor_degree']} > "
                f"smallest factor degree {degrees[0]}")
    return None


# ---------------------------------------------------------------------------
# The closed loop.

def drive(ops, seconds: float, trace: bool):
    """Run the pool in order, in whole passes, until the run is long enough.

    Returns the list of (pool index, traced, result) in execution order and
    the set-up time samples, which are taken between ops spread over the
    run so that a slow spell of the machine does not own all of them.
    """
    runs, setup = [], []
    n = len(ops)
    with Zygote() as zygote:
        start = time.perf_counter()
        i = 0
        while i % n or len(runs) < MIN_SAMPLES or time.perf_counter() - start < seconds:
            k = i % n
            if trace:
                order = (False, True) if (i // n) % 2 == 0 else (True, False)
                for traced in order:
                    runs.append((k, traced, zygote.run(ops[k].argv, traced)))
            else:
                runs.append((k, False, zygote.run(ops[k].argv, False)))
                elapsed = time.perf_counter() - start
                if len(setup) < SETUP_SAMPLES * min(1.0, elapsed / seconds):
                    setup.append(setup_sample())
            i += 1
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return runs, setup


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def evaluate(ops, degrees, runs):
    """Failures, digest and quality metrics over all runs of the pool."""
    first = {}
    failures = []
    for k, traced, result in runs:
        why = check(ops[k], result, degrees[k])
        if why is None:
            if k not in first:
                first[k] = result
            elif (result["out"], result["code"]) != (first[k]["out"], first[k]["code"]):
                why = "output differs from this input's first run"
        if why is not None:
            failures.append((k, traced, why))
            first.setdefault(k, result)
    digest = hashlib.sha256()
    for k in range(len(ops)):
        digest.update(first[k].get("out", "").encode())
    excess, irreducible, certified = [], 0, 0
    for k in range(len(ops)):
        doc = certificate(first[k])
        if doc is None:
            continue
        excess.append(doc["factor_bound"] - len(degrees[k]))
        if len(degrees[k]) == 1:
            irreducible += 1
            certified += doc["verdict"] == "IRREDUCIBLE"
    quality = {
        "bound_excess": statistics.mean(excess) if excess else float("nan"),
        "irreducible_certified_frac":
            certified / irreducible if irreducible else float("nan"),
    }
    return failures, digest.hexdigest(), quality, (certified, irreducible)


def end_to_end(runs, setup_s: float) -> dict:
    times = sorted(result["elapsed"] for _, _, result in runs if "elapsed" in result)
    return {
        "setup_s": setup_s,
        "cert_ms.p50": 1e3 * statistics.median(times),
        "cert_ms.p90": 1e3 * percentile(times, 90),
        "certs_per_s": len(times) / sum(times),
        "peak_rss_mb": max(r["maxrss_kb"] for _, _, r in runs if "maxrss_kb" in r) / 1024,
    }


def per_layer(runs, workload: str, seed: int) -> tuple[dict, float, list]:
    """Per-layer metrics of a traced run, the mean traced op time, and the
    hooks found absent.  Writes every traced op's spans to .perfbench/."""
    times, counts, absent = [], {}, set()
    overhead = [0.0, 0.0]  # traced, untraced seconds over complete pairs
    STATE.mkdir(exist_ok=True)
    with open(STATE / f"trace-{workload}-{seed}.jsonl", "w") as fh:
        for a, b in zip(runs[0::2], runs[1::2]):
            (k, _, traced), (_, _, untraced) = (a, b) if a[1] else (b, a)
            if "spans" not in traced or "elapsed" not in untraced:
                continue
            overhead[0] += traced["elapsed"]
            overhead[1] += untraced["elapsed"]
            absent.update(traced["absent"])
            fh.write(json.dumps({"op": len(times), "input": k,
                                 "elapsed": traced["elapsed"],
                                 "spans": traced["spans"]}) + "\n")
            t, c = tracing.op_layers(traced["spans"], traced["elapsed"],
                                   len(traced["out"].encode()))
            times.append(t)
            counts.setdefault(k, c)
    metrics = {name: statistics.mean(t[name] for t in times)
               for name in tracing.TIME_METRICS}
    for name in next(iter(counts.values())):
        values = [c[name] for c in counts.values()]
        metrics[name] = max(values) if name.endswith("_max") else statistics.mean(values)
    metrics["trace.overhead_frac"] = (overhead[0] - overhead[1]) / overhead[1]
    return metrics, overhead[0] / len(times), sorted(absent)


# ---------------------------------------------------------------------------
# Report.

def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def bench(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ops = workloads.generate(workload, seed, POOL_SIZES[workload])
    degrees = oracle_degrees(ops)
    runs, setup = drive(ops, seconds, trace)
    failures, digest, quality, (certified, irreducible) = evaluate(ops, degrees, runs)
    attempted = len(runs)
    print(f"workload {workload}  seed {seed}  pool {len(ops)} inputs  "
          f"ops {attempted}  trace {int(trace)}")
    for k, traced, why in failures[:20]:
        print(f"  FAILED input {k} ({ops[k].kind}{', traced' if traced else ''}): {why}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics, op_s, absent = per_layer(runs, workload, seed)
        print(f"  per-layer metrics, mean per traced op ({op_s * 1e3:.4g} ms):")
        for name, value in metrics.items():
            share = f"{100 * value / op_s:5.1f}% of op" if units[name] == "s" else ""
            print(f"  {name:36s} {fmt(value):>12s} {units[name]:6s} {share:12s} "
                  f"{tracing.moves(name)}")
        for name in absent:
            print(f"  layer absent: {name} (hook not found; its metrics read 0)")
    else:
        metrics = end_to_end(runs, statistics.median(setup))
        times = sum(1 for _, _, r in runs if "elapsed" in r)
        for name, value in metrics.items():
            note = f"(n={times} ops)" if name.startswith("cert") else ""
            if name == "setup_s":
                note = f"(median of {len(setup)} cold imports)"
            print(f"  {name:28s} {fmt(value):>12s} {units[name]:4s} {note}")
    if set(metrics) != set(units):
        raise RuntimeError("the metrics differ from those in BENCHMARK.json")
    print(f"  {'fail_frac':28s} {fmt(len(failures) / attempted):>12s} {'1':4s} "
          f"({len(failures)}/{attempted} ops)")
    print(f"  {'bound_excess':28s} {fmt(quality['bound_excess']):>12s} {'1':4s} "
          f"(mean over {len(ops)} inputs)")
    print(f"  {'irreducible_certified_frac':28s} "
          f"{fmt(quality['irreducible_certified_frac']):>12s} {'1':4s} "
          f"({certified}/{irreducible} oracle-irreducible inputs)")
    print(f"  digest sha256:{digest}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny size, untraced and traced, with determinism
    of the generators checked.  Exit code 0 when everything passes."""
    ok = True
    for workload, size in SMOKE_SIZES.items():
        ops = workloads.generate(workload, 7, size)
        if ops != workloads.generate(workload, 7, size):
            print(f"{workload}: generator is not deterministic for a fixed seed")
            ok = False
        if ops == workloads.generate(workload, 8, size):
            print(f"{workload}: seeds 7 and 8 give the same inputs")
            ok = False
        degrees = oracle_degrees(ops)
        with Zygote() as zygote:
            for k, op in enumerate(ops):
                for traced in (False, True):
                    result = zygote.run(op.argv, traced)
                    why = check(op, result, degrees[k])
                    if why is None and traced and result["absent"]:
                        why = f"hooks not found: {result['absent']}"
                    elif why is None and traced:
                        _, counts = tracing.op_layers(result["spans"], result["elapsed"], 0)
                        if not counts["valuation.calls"]:
                            why = "traced run recorded no valuation calls"
                    if why:
                        print(f"{workload} input {k} ({op.kind}, trace {int(traced)}): {why}")
                        ok = False
        print(f"{workload}: {len(ops)} inputs checked")
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(POOL_SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-check of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "phinewton" / "cli.py").is_file():
        print(f"error: no phinewton sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = bench(args.workload, args.seed, seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
