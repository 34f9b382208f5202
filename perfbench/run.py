#!/usr/bin/env python3
"""Layered benchmark for epshift: the acceptance gate, closure and the CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gate|closure|cli|hostile --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics,
and the spans are written to ``perfbench/out/``.  The line before it is a
JSON report: the environment, what the workload checked, and its counts.
The exit code is 0 only when the workload ran; a wrong output sets
``correct`` to false.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 4  # set-ups timed before the measurement, and again after
KERNEL_OPS = ("canon", "shift", "intersect", "subset", "exists_shift_subset")
SUITE_NAMES = ("associativity", "inverse-axioms", "natural-order", "green",
               "oracle", "classification", "morphisms", "family-machinery")
LAYERS = ("kernel", "omega_sets", "family", "core", "classify", "morphisms",
          "partial_maps", "selftest", "grammar", "cli", "bench")


def percentile(values, pct):
    """Nearest-rank percentile: the least value with ``pct``% of them at or below.

    Integer arithmetic keeps the rank exact (``0.9 * 100`` is not 90).
    """
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def beyond(count, pct):
    """How many of ``count`` samples lie above the ``pct`` percentile's rank."""
    return count - max(1, -(-pct * count // 100))


def error_ratio(failed, attempted):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    return failed / attempted


def environment(load_start):
    import epshift

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": epshift.KERNEL_BACKEND,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def time_setups(workload, seed):
    """Wall times of fresh interpreters that import epshift and build inputs."""
    from workloads import child_env

    code = (f"import sys; sys.path.insert(0, {HERE!r}); import workloads; "
            f"workloads.WORKLOADS[{workload!r}][0]({seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def input_latencies(m):
    """Each input's latency, in seconds: the mean of its runs.

    The machine slows every operation by up to 1.8x, in spells from a
    second to minutes long.  The mean of runs spread over the whole run
    averages the spells; an input's median or fastest run jumps between the
    fast and the slow value from one run of the benchmark to the next.
    """
    return [statistics.fmean(runs) for runs in m.latencies]


def ops_per_s(m):
    """The closed-loop rate of one pass over the inputs."""
    return sum(m.units) / sum(input_latencies(m))


def end_to_end(m, setup_s):
    ms = [x * 1000 for x in input_latencies(m)]
    runs = [len(r) for r in m.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(m), "1/s"),
        "p50_ms": (statistics.median(ms), "ms"),
        "p90_ms": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }, {"inputs": len(ms), "runs_per_input": [min(runs), max(runs)],
        "p90_inputs_beyond": beyond(len(ms), 90), "elapsed_s": m.elapsed}


def per_layer(tracer, plain, traced):
    """Every per-layer metric from one traced phase."""
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(rec[2] for name, rec in tot.items()
                   if name.split(".", 1)[0] == layer)

    def mean_ms(seconds, n):
        return seconds / n * 1000 if n else 0.0

    m = {}
    for op in KERNEL_OPS:
        name = f"kernel.{op}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.ns_per_call"] = (total(name) / calls(name) * 1e9
                                    if calls(name) else 0.0, "ns")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    m["omega_sets.calls"] = (sum(rec[0] for name, rec in tot.items()
                                 if name.startswith("omega_sets.")), "count")
    candidates = tracer.agg.get(("family.close", "omega_sets.intersect"), [0])[0]
    members_out = counts["family.members_out"]
    m.update({
        "family.close.calls": (calls("family.close"), "count"),
        "family.close.self_s": (own("family.close"), "s"),
        "family.validate.self_s": (own("family.validate"), "s"),
        "family.candidates": (candidates, "count"),
        "family.members_out": (members_out, "count"),
        "family.diverged": (counts["family.diverged"], "count"),
        "family.useful_ratio": (members_out / candidates if candidates else 0.0,
                                "ratio"),
        "core.mul.calls": (calls("core.mul"), "count"),
        "core.mul.self_s": (own("core.mul"), "s"),
        "core.cache_hit_ratio": (
            1 - counts["core.cache_misses"] / counts["core.cache_lookups"]
            if counts["core.cache_lookups"] else 0.0, "ratio"),
        "core.green.calls": (calls("core.green"), "count"),
        "core.green.self_s": (own("core.green"), "s"),
        "core.order.calls": (calls("core.order"), "count"),
        "classify.calls": (calls("classify.classify"), "count"),
        "grammar.parse.calls": (calls("grammar.parse"), "count"),
        "grammar.parse_ms": (mean_ms(total("grammar.parse"),
                                     calls("grammar.parse")), "ms"),
        "cli.interp_ms": (mean_ms(counts["cli.interp_s"], counts["cli.children"]),
                          "ms"),
        "cli.import_ms": (mean_ms(total("cli.import"), calls("cli.import")), "ms"),
        "cli.run_ms": (mean_ms(total("cli.run"), calls("cli.run")), "ms"),
        "cli.timeouts": (counts["cli.timeouts"], "count"),
    })
    for suite in SUITE_NAMES:
        m[f"selftest.{suite}_s"] = (total(f"selftest.{suite}"), "s")
    accounted = sum(m[f"{layer}.self_s"][0] for layer in LAYERS)
    m["trace.wall_s"] = (traced.elapsed, "s")
    m["trace.accounted_ratio"] = (accounted / traced.elapsed, "ratio")
    m["trace.overhead_ratio"] = (ops_per_s(traced) / ops_per_s(plain), "ratio")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gate", "closure", "cli", "hostile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="gate only: samples per suite (default 1000)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "epshift", "__init__.py")):
        sys.exit(f"no epshift sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    load_start = list(os.getloadavg())
    import epshift
    if os.path.dirname(os.path.dirname(epshift.__file__)) != SRC:
        sys.exit(f"epshift was imported from {epshift.__file__}, not {SRC}")
    from workloads import WORKLOADS

    setup, measure = WORKLOADS[args.workload]
    if args.samples is not None and args.workload == "gate":
        inputs = setup(args.seed, args.samples)
    else:
        inputs = setup(args.seed)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer, install

        plain = measure(inputs, args.seconds / 2)
        tracer = Tracer()
        in_process = args.workload in ("gate", "closure")
        restore = install(tracer) if in_process else None
        try:
            traced = measure(inputs, args.seconds / 2, tracer)
        finally:
            if restore:
                restore()
        metrics = per_layer(tracer, plain, traced)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_file = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_file)
        report["spans_file"] = os.path.relpath(spans_file, ROOT)
        phases = (plain, traced)
    else:
        # the machine's speed drifts over tens of seconds, so set-up is
        # timed on both sides of the measurement and the median taken
        setups = time_setups(args.workload, args.seed)
        plain = measure(inputs, args.seconds)
        setups += time_setups(args.workload, args.seed)
        metrics, report["latency"] = end_to_end(plain, statistics.median(setups))
        phases = (plain,)

    correct = all(p.correct for p in phases)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report["error_ratio"] = error_ratio(failed, attempted)
    report["details"] = [p.details for p in phases]
    report["env"] = environment(load_start)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
