"""Tests of the benchmark's own arithmetic, plus smoke runs at a tiny size.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
The smoke runs take about two minutes; the acceptance-gate count check
runs the suites at 10^4 samples and takes about twenty seconds more.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, covered, self_time  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([5, 1, 3], 50) == 3
    assert run.percentile([7], 90) == 7


def test_p90_has_ten_samples_beyond_it_from_a_hundred_on():
    assert run.beyond(100, 90) == 10
    assert run.beyond(99, 90) == 9
    assert run.beyond(1000, 90) == 100
    assert run.beyond(8, 90) == 0


def test_self_time_counts_overlapping_children_once():
    assert covered([(1, 4), (3, 6), (8, 12)]) == 9
    # children cover [1, 6) and [8, 10) of the span
    assert self_time((0, 10), [(1, 4), (3, 6), (8, 12)]) == 3
    assert self_time((0, 10), [(2, 3), (2, 3), (2.5, 3)]) == 9
    assert self_time((0, 10), [(11, 12)]) == 10
    assert self_time((0, 10), []) == 10


def test_tracer_self_times_add_up_to_the_operation():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("kernel.shift", lambda: None)

    def close():
        leaf()
        leaf()

    tracer.run_op(0, tracer.wrap("family.close", close))
    # clock reads: op 0, close 1, leaf 2-3, leaf 4-5, close 6, op 7
    tot = tracer.totals()
    assert tot["kernel.shift"] == [2, 2, 2]
    assert tot["family.close"] == [1, 5, 3]
    assert tot["bench.op"] == [1, 7, 2]
    assert tracer.spans == [("bench.op", 0, 7, None, 0),
                            ("family.close", 1, 6, 0, 0)]
    assert tracer.agg[("family.close", "kernel.shift")][0] == 2


def test_tracer_check_is_benchmark_time_only():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("kernel.shift", lambda: None)
    tracer.check(leaf)
    assert set(tracer.totals()) == {"bench.check"}


def test_error_ratio_is_failed_over_attempted():
    assert run.error_ratio(4, 100) == 0.04
    assert run.error_ratio(0, 1) == 0
    with pytest.raises(ValueError):
        run.error_ratio(0, 0)


def test_ops_per_s_uses_each_inputs_mean_run():
    m = workloads.Measured(latencies=[[1.0, 3.0, 2.0], [0.5, 1.5]],
                           units=[10, 1])
    assert run.input_latencies(m) == [2.0, 1.0]
    assert run.ops_per_s(m) == 11 / 3.0


def test_gate_round_runs_short_suites_more_often():
    suites = workloads.gate_setup(0, samples=30)
    schedule = workloads.gate_schedule(suites)
    runs = {name: schedule.count(i) for i, (name, _) in enumerate(suites)}
    assert runs["family-machinery"] == runs["green"] == 1
    assert runs["associativity"] == 1
    assert runs["oracle"] == workloads.GATE_SHORT_REPEATS
    # the repeats are interleaved, not back to back
    assert schedule[:len(suites)] == list(range(len(suites)))


def test_rounds_follow_the_schedule_and_run_it_once_at_least():
    assert list(workloads.rounds(3, 0, [0, 1, 0, 2])) == [
        (0, 0), (1, 1), (2, 0), (3, 2)]
    assert list(workloads.rounds(2, 0)) == [(0, 0), (1, 1)]


def test_cli_mix_has_no_hostile_input():
    commands = workloads.cli_setup(3)
    assert len(commands) == 100
    assert not [argv for argv in commands if argv in workloads.HOSTILE]


def test_cli_counts_each_unhandled_hostile_run_as_failed(monkeypatch):
    normal = ["order", "(0,0;[0))", "(0,0;[0))"]

    def fake_child(argv, env, timeout=workloads.CHILD_TIMEOUT_S):
        hostile = argv[3:] in workloads.HOSTILE
        return {"stdout": b"" if hostile else b'{"result":true}\n',
                "stderr": b"", "code": -9 if hostile else 0,
                "timed_out": hostile, "rss_mb": 1.0, "start": 0.0, "end": 0.1}

    monkeypatch.setattr(workloads, "run_child", fake_child)
    m = workloads.cli_measure([normal, workloads.HOSTILE[0]], 0)
    assert (m.attempted, m.failed, m.correct) == (2, 1, True)
    assert m.details["timeouts"] == 1
    assert run.error_ratio(m.failed, m.attempted) == 0.5


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload,extra", [
    ("closure", []), ("cli", []), ("hostile", []),
    ("gate", ["--samples", "30"])])
def test_smoke_run_reports_every_end_to_end_metric(workload, extra):
    report, result = _run("--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", "0", *extra)
    _assert_metrics(result, SPEC["end_to_end"])
    assert report["env"]["kernel_backend"] in ("pure", "compiled")
    # only hostile inputs may fail; today each does, by a timeout or a raw
    # MemoryError, and each failure is counted
    assert result["failed"] == report["details"][0].get("hostile_failed", 0)
    if workload != "hostile":
        assert result["failed"] == 0


def test_smoke_traced_run_reports_every_per_layer_metric():
    report, result = _run("--workload", "closure", "--seed", "3",
                          "--seconds", "0", "--trace", "1")
    _assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["family.close.calls"] > 0
    assert metrics["kernel.intersect.calls"] > 0
    assert 0.95 < metrics["trace.accounted_ratio"] <= 1.0001
    assert os.path.isfile(os.path.join(ROOT, report["spans_file"]))


def test_closure_outcomes_repeat_for_a_seed():
    first, _ = _run("--workload", "closure", "--seed", "5", "--seconds", "0")
    again, _ = _run("--workload", "closure", "--seed", "5", "--seconds", "0")
    for key in ("digest", "diverged", "kinds"):
        assert first["details"][0][key] == again["details"][0][key]


def test_gate_check_counts_match_the_acceptance_gate():
    report, result = _run("--workload", "gate", "--seed", "7", "--seconds", "0",
                          "--samples", "10000")
    assert result["correct"] is True
    checks = report["details"][0]["checks"]
    assert {k: checks[k] for k in workloads.GATE_COUNTS[10_000]} \
        == workloads.GATE_COUNTS[10_000]
