"""The measured process: imports ``phinewton.cli`` once, then forks per op.

Each op runs in a child forked from this parent, which has imported the CLI
and run nothing, so every op starts from the state of a just-imported CLI
process: no field built by an earlier op is still cached.  The child times
``cli.main(argv)`` alone, with stdout and stderr captured in memory, and
sends the result back through a pipe.

Protocol: the parent writes one JSON request per line, ``{"argv": [...],
"trace": 0|1}``, and reads one JSON result per line.  The first line this
process writes is ``ready``.

    python3 perfbench/zygote.py SRC_DIR
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback


def run_op(cli, request: dict) -> dict:
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    code, tb = None, None
    start = time.perf_counter()
    try:
        code = cli.main(list(request["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        tb = traceback.format_exc()
    elapsed = time.perf_counter() - start
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    result = {
        "code": code,
        "out": out.getvalue(),
        "err": err.getvalue(),
        "traceback": tb,
        "elapsed": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.export(start)
        result["absent"] = tracer.absent
    return result


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    import phinewton.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"phinewton imported from {cli.__file__}, not {src}")
    stdout = sys.stdout.buffer
    stdout.write(b"ready\n")
    stdout.flush()
    for line in sys.stdin.buffer:
        request = json.loads(line)
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rfd)
            try:
                data = json.dumps(run_op(cli, request)).encode()
            except BaseException:
                data = json.dumps({"harness_error": traceback.format_exc()}).encode()
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(data)
            os._exit(0)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status or not data:
            data = json.dumps({"harness_error": f"op process ended with status {status}"}).encode()
        stdout.write(data + b"\n")
        stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
