#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python one.

Times the raw kernel functions on a fixed random workload, plus two macro
workloads (closures of up to 256 members and an associativity storm) with
the kernel swapped underneath.  Usage::

    python benchmarks/bench_kernel.py [--trials 200000] [--seed 1]
"""

import argparse
import random
import time

from epshift import _kernel_py as pure

try:
    from epshift import _speedups as compiled
except ImportError:
    compiled = None


def make_workload(trials, seed):
    rng = random.Random(seed)
    quads = []
    for _ in range(512):
        t = rng.randint(0, 8)
        p = rng.randint(1, 6)
        h = rng.getrandbits(t) if t else 0
        r = rng.getrandbits(p) if rng.random() < 0.8 else 0
        quads.append(pure.canon(h, t, p, r))
    pairs = [(rng.choice(quads), rng.choice(quads), rng.randint(-12, 12))
             for _ in range(trials)]
    return pairs


# generator sets closed by the closure macro, and their member cap: large
# enough that the macro takes about half a second with the compiled kernel
CLOSURE_DRAWS = 300
CLOSURE_CAP = 256


def bench_micro(kernel, pairs):
    out = {}
    t0 = time.perf_counter()
    for a, b, d in pairs:
        kernel.shift(*a, d)
    out["shift"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b, d in pairs:
        kernel.intersect(*a, *b)
    out["intersect"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b, d in pairs:
        kernel.subset(*a, *b)
    out["subset"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b, d in pairs:
        kernel.exists_shift_subset(*a, *b)
    out["exists_shift_subset"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b, d in pairs:
        kernel.canon(*a)
    out["canon"] = time.perf_counter() - t0
    return out


def bench_macro(kernel, seed):
    """Closure fixpoints and an associativity storm through the kernel."""
    import epshift.kernel as selector
    saved = {name: getattr(selector, name)
             for name in ("canon", "member", "window", "shift", "intersect",
                          "union", "subset", "exists_shift_subset")}
    try:
        for name in saved:
            setattr(selector, name, getattr(kernel, name))
        from epshift.core import SemigroupCtx
        from epshift.errors import ClosureDiverged
        from epshift.family import close
        from epshift.selftest import SuiteOptions, random_closed_family, \
            random_element, random_epset

        rng = random.Random(seed)
        opts = SuiteOptions()
        draws = [[random_epset(rng, opts.max_threshold, opts.max_period)
                  for _ in range(rng.randint(2, 4))]
                 for _ in range(CLOSURE_DRAWS)]
        t0 = time.perf_counter()
        for gens in draws:
            try:
                close(gens, cap=CLOSURE_CAP)
            except ClosureDiverged:
                pass  # giving up at the cap is closure work too
        closure_dt = time.perf_counter() - t0

        fams = [random_closed_family(rng, opts) for _ in range(30)]
        t0 = time.perf_counter()
        for fam in fams:
            ctx = SemigroupCtx(fam)
            for _ in range(2000):
                a = random_element(rng, fam)
                b = random_element(rng, fam)
                c = random_element(rng, fam)
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        storm_dt = time.perf_counter() - t0
        return {"closure": closure_dt, "associativity-storm": storm_dt}
    finally:
        for name, fn in saved.items():
            setattr(selector, name, fn)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    pairs = make_workload(args.trials, args.seed)
    print(f"workload: {args.trials} calls per micro benchmark, seed {args.seed}")
    print()

    pure_micro = bench_micro(pure, pairs)
    comp_micro = bench_micro(compiled, pairs) if compiled else None

    header = f"{'kernel op':24s} {'pure':>9s}"
    if comp_micro:
        header += f" {'compiled':>9s} {'speedup':>8s}"
    print(header)
    for name, pdt in pure_micro.items():
        line = f"{name:24s} {pdt:8.3f}s"
        if comp_micro:
            cdt = comp_micro[name]
            line += f" {cdt:8.3f}s {pdt / cdt:7.1f}x"
        print(line)

    print()
    pure_macro = bench_macro(pure, args.seed)
    comp_macro = bench_macro(compiled, args.seed) if compiled else None
    print(f"{'macro workload':24s} {'pure':>9s}"
          + (f" {'compiled':>9s} {'speedup':>8s}" if comp_macro else ""))
    for name, pdt in pure_macro.items():
        line = f"{name:24s} {pdt:8.3f}s"
        if comp_macro:
            cdt = comp_macro[name]
            line += f" {cdt:8.3f}s {pdt / cdt:7.1f}x"
        print(line)

    if compiled is None:
        print("\ncompiled kernel not built; showing the pure backend only")


if __name__ == "__main__":
    main()
