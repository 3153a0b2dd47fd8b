"""The revequiv benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` times the workload untraced
and prints the end-to-end metrics; ``--trace 1`` also runs it traced, in a
second fresh process, and prints the per-layer metrics, the tracing
overhead and the traced-run consistency check.  Every answer is checked.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are a readable report and the environment stamp; the full result is also
written to ``perfbench/out/``.  See ``perfbench/README.md``.
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

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("classify", "crosscheck", "normalize")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {"trace.overhead": "1", "trace.top_span_share": "1"}
SETUP_PROBES = 7
DEADLINE_S = 170.0
# The top-level spans of the traced pass must cover its op time to within
# this share; the rest is the benchmark's own time between the op's clock
# and the first traced call.
CONSISTENCY_TOLERANCE = 0.02

PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import revequiv, revequiv.cli; print(repr(time.perf_counter()))"
)


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_sample(deadline: float) -> float:
    """Spawn-to-imported time of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC], cwd=ROOT,
                          capture_output=True, text=True, timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"import revequiv failed:\n{proc.stderr}")
    return float(proc.stdout.strip()) - start


def run_worker(workload, seed, seconds, traced, spans_path, deadline):
    """One pass in a fresh process; returns its report and set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           repr(seconds), "1" if traced else "0", spans_path or "-"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def tail(times):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond it).  Below 21 samples that
    percentile would not reach the median, and the maximum is taken."""
    ordered = sorted(times)
    n = len(ordered)
    i = n - 11 if n >= 21 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def summarize(plain, traced, setup_samples):
    """Metrics of the untraced pass and, if given, the traced one.

    Returns (end-to-end metrics, info for the stamp, per-layer metrics or
    None, the final result object).
    """
    times = plain["times"]
    verified = sum(plain["ok"])
    value, percentile, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": verified / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "peak_rss_mb": plain["peak_rss_kb"] / 1024.0,
    }
    info = {
        "ops": len(times),
        "rounds": plain["rounds"],
        "fail_ratio": (len(times) - verified) / len(times),
        "op_tail_percentile": percentile,
        "op_tail_samples": len(times),
        "op_tail_beyond": beyond,
    }
    passes = [plain] + ([traced] if traced else [])
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["ok"]) - sum(p["ok"]) for p in passes)
    layers = None
    if traced:
        layers = dict(traced["layers"])
        traced_rate = sum(traced["ok"]) / sum(traced["times"])
        layers["trace.overhead"] = (
            metrics["ops_per_s"] / traced_rate - 1.0 if traced_rate else 0.0
        )
        info["traced_ops_per_s"] = traced_rate
        info["trace_consistent"] = (
            abs(1.0 - layers["trace.top_span_share"]) <= CONSISTENCY_TOLERANCE
        )
        reported, units = layers, {**LAYER_METRICS, **TRACE_METRICS}
    else:
        reported, units = metrics, END_TO_END
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return metrics, info, layers, final


def render(metrics, info, layers, final, errors):
    """The readable report printed above the result line."""
    lines = [f"  {name:<14} {value:.6g} {END_TO_END[name]}" for name, value in metrics.items()]
    lines.append(f"  {'fail_ratio':<14} {info['fail_ratio']:.6g} 1 "
                 f"({final['failed']} of {final['attempted']} ops failed)")
    lines.append(f"  op_tail_s is p{info['op_tail_percentile']:.4g} of "
                 f"{info['op_tail_samples']} ops ({info['op_tail_beyond']} beyond it)")
    if layers is not None:
        verdict = "consistent" if info["trace_consistent"] else "INCONSISTENT"
        lines.append(
            f"  tracing overhead {layers['trace.overhead']:.3g} (untraced "
            f"{metrics['ops_per_s']:.6g} ops/s, traced {info['traced_ops_per_s']:.6g} "
            f"ops/s); top-level spans cover {layers['trace.top_span_share']:.4f} "
            f"of traced op time ({verdict})")
        units = {**LAYER_METRICS, **TRACE_METRICS}
        lines += [f"  {name:<44} {value:.6g} {units[name]}" for name, value in layers.items()]
    lines += [f"  failed: {err}" for err in errors[:10]]
    return lines


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "revequiv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def stamp(args, info):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        **info,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "revequiv", "__init__.py")):
        print(f"error: no revequiv sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_samples = [setup_sample(deadline) for _ in range(SETUP_PROBES)]
        plain = run_worker(args.workload, args.seed, args.seconds, False, None, deadline)
        setup_samples.append(plain["setup_s"])
        traced = None
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{tag}.tsv.gz")
            traced = run_worker(args.workload, args.seed, args.seconds, True, spans_path,
                                deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, info, layers, final = summarize(plain, traced, setup_samples)
    errors = plain["errors"] + (traced["errors"] if traced else [])
    print(f"revequiv benchmark: workload={args.workload} seed={args.seed} "
          f"rounds={info['rounds']} ops={info['ops']} trace={args.trace}")
    for line in render(metrics, info, layers, final, errors):
        print(line)
    env = stamp(args, info)
    print("stamp " + json.dumps(env, sort_keys=True))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"stamp": env, "end_to_end": metrics, "result": final,
                   "op_times": plain["times"], "errors": errors},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
