"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

Smoke-size passes run in-process on a few ops of each workload; one test
drives the real command end to end on one round of ``classify``.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import worker  # noqa: E402  (puts src/ on the path and imports revequiv)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import revequiv.cli  # noqa: E402
from revequiv import normalform  # noqa: E402
from revequiv.exactalg import Mat4  # noqa: E402
from revequiv.vecfield import check_symmetry  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def smoke_ops(workload):
    """A few cheap ops of one round of the workload."""
    ops = workloads.build(workload, 1, 1)
    if workload == "classify":
        return [next(op for op in ops if op.key == (command, 2))
                for command in ("classify", "solve-involutions")]
    if workload == "crosscheck":
        return ops[:1]
    return [next(op for op in ops if op.kind == kind)
            for kind in ("normalize", "linearize")]


def smoke_pass(ops, traced):
    result = worker.run_pass(ops, traced)
    result["rounds"] = 1
    return result


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        **tracing.LAYER_METRICS, **run.TRACE_METRICS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    ops = smoke_ops(workload)
    plain = smoke_pass(ops, traced=False)
    main_before = revequiv.cli.main
    traced = smoke_pass(ops, traced=True)
    assert revequiv.cli.main is main_before, "tracing wrappers left installed"

    metrics, info, layers, final = run.summarize(plain, None, [0.1])
    assert final["correct"] and info["fail_ratio"] == 0
    assert list(final["metrics"]) == END_TO_END
    text = "\n".join(run.render(metrics, info, None, final, []))
    for name in END_TO_END + ["fail_ratio"]:
        assert name in text

    metrics, info, layers, final = run.summarize(plain, traced, [0.1])
    assert final["correct"]
    assert list(final["metrics"]) == PER_LAYER
    text = "\n".join(run.render(metrics, info, layers, final, []))
    for name in END_TO_END + PER_LAYER:
        assert name in text
    assert info["trace_consistent"]
    if workload == "classify":
        assert layers["linalg.rref.calls"] == 0
        assert layers["vecfield.Poly.mul.calls"] == 0
        assert layers["exactalg.Mat4.mul.calls"] > 0
    if workload == "crosscheck":
        assert layers["normalform.oracle.elim_s"] > 0
        assert layers["normalform.oracle.assembly_s"] > 0


def test_tail_has_ten_samples_beyond_it_or_is_the_maximum():
    assert run.tail(list(range(22))) == (11, 100.0 * 12 / 22, 10)
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21, 10)
    for n in (1, 8, 16, 20):
        assert run.tail(list(range(n)))[0] == n - 1


def test_wrong_reference_answer_raises_fail_ratio(monkeypatch):
    ops = smoke_ops("classify")
    ref = dict(workloads.reference()["classify"]["2"], solutions=5)
    monkeypatch.setitem(workloads.reference()["classify"], "2", ref)
    plain = smoke_pass(ops, traced=False)
    metrics, info, layers, final = run.summarize(plain, None, [0.1])
    assert info["fail_ratio"] > 0
    assert not final["correct"] and final["failed"] > 0


def test_wrong_kernel_dimension_fails_the_cell(monkeypatch):
    (op,) = smoke_ops("crosscheck")
    p, q, j = op.key
    cell = dict(workloads.reference()["kernel_dims"][f"{p}:{q}"][str(j)])
    cell["3"] += 1
    monkeypatch.setitem(workloads.reference()["kernel_dims"][f"{p}:{q}"], str(j), cell)
    plain = smoke_pass([op], traced=False)
    assert plain["ok"] == [False]


def test_command_end_to_end():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["attempted"] == 2 * sum(workloads.PAIRS_PER_ROUND.values())
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    for key in ("nproc", "python", "git_sha", "seed", "ops",
                "op_tail_percentile", "op_tail_samples"):
        assert key in stamp


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_normal_form_condition_matches_idempotency():
    """The run checks idempotency through the normal-form condition; here
    the literal second normalization is compared with it."""
    op = smoke_ops("normalize")[0]
    x, spec = op.args
    nf, _ = normalform.belitskii_normalize(x, spec, workloads.NORMALIZE_DEGREE)
    assert workloads.in_adjoint_kernel(nf, spec)
    assert not workloads.in_adjoint_kernel(x, spec)
    assert normalform.belitskii_normalize(nf, spec, workloads.NORMALIZE_DEGREE)[0] == nf


def test_drawn_fields_have_exactly_their_class_symmetry():
    def matrix(perm):
        return Mat4([[s if col == src else 0 for col in range(4)] for src, s in perm])

    rng = random.Random(0)
    for j in workloads.CLASSES:
        x = workloads.reversible_field(rng, rng, 2, 3, j)
        field = workloads.to_field(x, workloads.NORMALIZE_DEGREE)
        group = workloads.reversing_group([workloads.R0_PERM, workloads.CLASS_PERMS[j]])
        for c in workloads.CANDIDATES:
            assert check_symmetry(field, matrix(c), -1).ok == (group.get(c) == -1)
