"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <seconds> <traced 0|1> <spans file or ->

Prints one JSON object: the monotonic clock reading once ``revequiv`` is
imported (the parent subtracts its spawn time to get the set-up time), each
op's time and verdict, the process's peak RSS and, for a traced pass, the
per-layer metrics.  ``run_pass`` is also what the self-test calls
in-process.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import revequiv  # noqa: E402,F401
import revequiv.cli  # noqa: E402,F401

READY = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(ops, traced: bool, spans_path=None) -> dict:
    """Time every op in order, then check every answer with the clock off."""
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    times, results = [], []
    try:
        for i, op in enumerate(ops):
            # Each op starts from an empty collector: otherwise collecting
            # the earlier ops' garbage lands in whichever op the seed put
            # next, and the same op's time spreads by about a third more.
            gc.collect()
            if tracer is not None:
                tracer.op = i
            elapsed, result = workloads.run(op)
            if tracer is not None:
                tracer.op = None
            times.append(elapsed)
            results.append(result)
        verdicts, errors = [], []
        for op, result in zip(ops, results):
            try:
                ok = workloads.check(op, result)
            except Exception as exc:  # a malformed answer fails its op
                ok, result = False, exc
            verdicts.append(ok)
            if not ok:
                errors.append(f"{op.kind} {op.key}: {result!r}"[:300])
        layers = None
        if tracer is not None:
            layers = tracer.metrics(ops, times)
            if spans_path:
                tracer.write(spans_path)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "times": times,
        "ok": verdicts,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }


def main(argv) -> int:
    workload, seed, seconds, traced, spans_path = argv
    rounds = workloads.rounds_for(float(seconds))
    ops = workloads.build(workload, int(seed), rounds)
    out = run_pass(ops, traced == "1", None if spans_path == "-" else spans_path)
    out["ready"] = READY
    out["rounds"] = rounds
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
