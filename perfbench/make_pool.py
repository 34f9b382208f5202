#!/usr/bin/env python3
"""Regenerate ``closure_pool.json``, the closure workload's larger draws.

Usage, from the root of a checkout (takes several minutes)::

    python3 perfbench/make_pool.py

A random draw's closure time is heavy-tailed, so a few hundred random
draws per run would make the run's total depend on the seed far more than
on the code.  This script draws candidates from a fixed seed once and keeps

* ``small``: one to three generators closed under the suites' cap of 16,
  like the suites' own random families (about half exceed it),
* ``large``: four generators whose closure has between 30 members and the
  larger cap, and
* ``wide``: four generators with longer thresholds and periods whose
  closure exceeds the larger cap,

each with its resolve time on the machine that made the pool.  The
workload sorts each kind by that time into equal strata and lets the run's
seed pick one draw per stratum, so every seed gets the same spread of
costs.  Sets are stored as raw ``(head, threshold, period, residues)``.
"""

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from epshift.errors import ClosureDiverged  # noqa: E402
from epshift.family import close  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20210729
WANT = {"small": 1024, "large": 256, "wide": 128}
# generator count range, max threshold, max period, cap
SHAPES = {"small": ((1, 3), 8, 6, workloads.SMALL_CAP),
          "large": ((4, 4), 8, 6, workloads.LARGE_CAP),
          "wide": ((4, 4), 10, 8, workloads.LARGE_CAP)}


def timed_resolve(sets, cap):
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        workloads.resolve(("pool", sets, cap))
        took = time.perf_counter() - t0
        best = took if best is None else min(best, took)
    return best


def main():
    rng = random.Random(POOL_SEED)
    pool = {kind: [] for kind in WANT}
    while any(len(pool[k]) < WANT[k] for k in WANT):
        for kind, ((lo, hi), max_t, max_p, cap) in SHAPES.items():
            if len(pool[kind]) >= WANT[kind]:
                continue
            sets = [workloads.draw_set(rng, max_t, max_p)
                    for _ in range(rng.randint(lo, hi))]
            try:
                size = len(close(sets, cap=cap))
            except ClosureDiverged:
                size = None
            if kind == "large" and (size or 0) < 30 or \
                    kind == "wide" and size is not None:
                continue
            pool[kind].append({"sets": [list(f.raw) for f in sets],
                               "size": size,
                               "seconds": round(timed_resolve(sets, cap), 6)})
    with open(os.path.join(HERE, "closure_pool.json"), "w") as fh:
        json.dump({"seed": POOL_SEED, **pool}, fh,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
