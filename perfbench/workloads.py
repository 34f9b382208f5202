"""The three workloads: inputs from a seed, a closed measuring loop, checks.

Every workload is single-client and closed-loop: the next operation starts
when the previous one has finished.  ``setup(seed)`` builds a fixed list of
inputs.  ``measure(inputs, seconds, tracer)`` runs them round-robin, every
input at least once and then until ``seconds`` have passed, so each input
runs several times, spread over the run; ``run.py`` takes the mean of an
input's runs as its latency.  Every outcome is checked, and the repeats of
an input must give the same outcome.

With a tracer the in-process layers are already rebound (see
``tracing.install``); the ``cli`` workload traces its children through
``cli_driver.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import selectors
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from tracing import TRACE_MARK, self_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


@dataclass
class Measured:
    """What one measuring phase saw."""

    elapsed: float = 0.0
    latencies: list = field(default_factory=list)  # per input: seconds per run
    units: list = field(default_factory=list)      # per input: what ops_per_s counts
    attempted: int = 0       # units over all runs
    failed: int = 0          # units whose outcome was wrong or missing
    correct: bool = True     # every completed outcome matched its check
    peak_rss_mb: float = 0.0
    details: dict = field(default_factory=dict)

    def fail(self, why):
        self.correct = False
        problems = self.details.setdefault("problems", [])
        if len(problems) < 20:
            problems.append(why)


def rounds(count, seconds, schedule=None):
    """Yield ``(k, i)``, run ``k`` of input ``i``, round-robin over ``count``
    inputs until every input ran once and ``seconds`` have passed.

    ``schedule``, a list of input indices, replaces ``range(count)`` as the
    order of one round, so that an input listed twice runs twice as often.
    """
    schedule = schedule or list(range(count))
    start = time.perf_counter()
    k = 0
    while k < len(schedule) or time.perf_counter() - start < seconds:
        yield k, schedule[k % len(schedule)]
        k += 1


def _self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _call(tracer, k, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.run_op(k, fn, *args)


def _check(tracer, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.check(fn, *args)


# -- gate -------------------------------------------------------------------

# The gate runs at the acceptance seed whatever the benchmark's seed: with
# other seeds family-machinery's random closures alone vary the gate's time
# by a quarter (4.2 to 9.2 s of CPU over seeds 1-10 at 1000 samples).
GATE_SEED = 7
GATE_SAMPLES = 1000

# per-suite check counts at seed 7, which must not change; the 10^4 ones are
# the acceptance gate's, as ROADMAP.md records them
GATE_COUNTS = {
    1000: {"associativity": 24000, "inverse-axioms": 3489,
           "natural-order": 2576, "green": 7276, "oracle": 3020,
           "classification": 1934, "morphisms": 11502,
           "family-machinery": 1654},
    10_000: {"associativity": 240000, "inverse-axioms": 35044,
             "natural-order": 25796, "green": 68523, "oracle": 29925,
             "classification": 17432, "morphisms": 110502,
             "family-machinery": 13837},
}


# runs of each suite per round.  Family-machinery alone takes 5-7.5 s and
# the five short suites 50-150 ms each; the short ones run three times a
# round, so that in a 55 s run family-machinery runs about seven times and
# each short suite about twenty, and each suite's runs are spread over the
# whole run.
GATE_REPEATS = {"family-machinery": 1, "green": 1, "associativity": 1}
GATE_SHORT_REPEATS = 3


def gate_schedule(suites):
    """One round: each suite's index as often as it repeats, interleaved."""
    reps = [GATE_REPEATS.get(name, GATE_SHORT_REPEATS) for name, _ in suites]
    return [i for r in range(max(reps)) for i in range(len(suites))
            if r < reps[i]]


def gate_setup(seed, samples=GATE_SAMPLES):
    """The eight suites, one input each, at the acceptance seed."""
    from epshift.selftest import SUITES, SuiteOptions

    opts = SuiteOptions(samples=samples, seed=GATE_SEED)
    return [(name, opts) for name in SUITES]


def gate_measure(suites, seconds, tracer=None):
    from epshift.selftest import SUITES

    out = Measured(latencies=[[] for _ in suites], units=[None] * len(suites))
    start = time.perf_counter()
    for k, i in rounds(len(suites), seconds, gate_schedule(suites)):
        name, opts = suites[i]
        t0 = time.perf_counter()
        res = _call(tracer, k, SUITES[name], opts)
        out.latencies[i].append(time.perf_counter() - t0)
        out.attempted += res.checks
        out.failed += res.failures
        if res.failures:
            out.fail(f"{name} at seed {opts.seed}: {res.first_failure}")
        if out.units[i] is None:
            out.units[i] = res.checks
        elif res.checks != out.units[i]:
            out.fail(f"{name} ran {res.checks} checks, before {out.units[i]}")
    out.elapsed = time.perf_counter() - start
    out.peak_rss_mb = _self_rss_mb()
    opts = suites[0][1]
    checks = {name: n for (name, _), n in zip(suites, out.units)}
    out.details["checks"] = {"seed": opts.seed, "samples": opts.samples, **checks}
    want = GATE_COUNTS.get(opts.samples)
    if want is not None and {k: checks[k] for k in want} != want:
        out.fail(f"check counts {checks} differ from {want}")
    return out


# -- closure ----------------------------------------------------------------

POOL_FILE = os.path.join(HERE, "closure_pool.json")
SMALL_CAP = 16
LARGE_CAP = 48
# inputs per run: draws from the pool, one per stratum of resolve time, and
# member lists that are rarely closed.  Larger draws are two thirds of the
# inputs so that the median falls among them: millisecond operations slow
# down more than the others when the machine is busy.
STRATA = {"small": 24, "large": 80, "wide": 8}
CAPS = {"small": SMALL_CAP, "large": LARGE_CAP, "wide": LARGE_CAP}
NONCLOSED_DRAWS = 8


def draw_set(rng, max_threshold, max_period):
    """A random eventually periodic set, empty or not."""
    from epshift.omega_sets import EpSet

    t = rng.randint(0, max_threshold)
    p = rng.randint(1, max_period)
    h = rng.getrandbits(t) if t else 0
    r = rng.getrandbits(p) if rng.random() < 0.75 else 0
    return EpSet.from_raw(h, t, p, r)


def closure_setup(seed):
    from epshift.omega_sets import EpSet

    with open(POOL_FILE) as fh:
        pool = json.load(fh)
    rng = random.Random(f"closure:{seed}")
    draws = []
    for kind, strata in STRATA.items():
        ranked = sorted(pool[kind], key=lambda entry: entry["seconds"])
        width = len(ranked) // strata
        for s in range(strata):
            entry = rng.choice(ranked[s * width:(s + 1) * width])
            draws.append((kind, [EpSet.from_raw(*q) for q in entry["sets"]],
                          CAPS[kind]))
    for _ in range(NONCLOSED_DRAWS):
        sets = [draw_set(rng, 8, 6) for _ in range(rng.randint(3, 5))]
        draws.append(("nonclosed", sets, None))
    rng.shuffle(draws)
    return draws


def resolve(draw):
    """One operation: close (or take as given), validate, classify.

    Returns the outcome as text, so that repeats can be compared exactly.
    """
    from epshift.classify import classify
    from epshift.core import SemigroupCtx
    from epshift.errors import ClosureDiverged, NotOmegaClosed
    from epshift.family import Family, close

    kind, sets, cap = draw
    try:
        members = close(sets, cap=cap).members if cap else sets
        fam = Family(members)  # validation on: the omega-closure scan
    except ClosureDiverged:
        return "diverged", None
    except NotOmegaClosed as exc:
        d = exc.details
        return f"rejected {d['f1']} {d['f2']} {d['n']}", exc
    report = classify(SemigroupCtx(fam))
    return " ".join(str(f) for f in fam.members) + " " + report.iso_type, fam


def _check_resolution(draw, text, value):
    """Why the outcome of ``draw`` is wrong, or ``None``."""
    from epshift.omega_sets import EpSet, intersect, shift

    kind, sets, cap = draw
    if text == "diverged":
        return None if cap else "a member list cannot diverge"
    if text.startswith("rejected"):
        if cap:
            return "Family rejected the output of close()"
        d = value.details
        f1, f2 = EpSet.parse(d["f1"]), EpSet.parse(d["f2"])
        ok = (f1 in sets and f2 in sets
              and intersect(f1, shift(f2, -d["n"])) not in sets)
        return None if ok else f"bad closure witness {d}"
    # Family(members) has already passed the omega-closure scan
    if not all(g in value for g in sets):
        return "family lacks a generator"
    if cap and len(value) > cap:
        return f"{len(value)} members exceed the cap {cap}"
    return None


def closure_measure(draws, seconds, tracer=None):
    out = Measured(latencies=[[] for _ in draws], units=[1] * len(draws))
    texts = [None] * len(draws)
    start = time.perf_counter()
    for k, i in rounds(len(draws), seconds):
        t0 = time.perf_counter()
        text, value = _call(tracer, k, resolve, draws[i])
        out.latencies[i].append(time.perf_counter() - t0)
        out.attempted += 1
        if texts[i] is None:
            texts[i] = text
            problem = _check(tracer, _check_resolution, draws[i], text, value)
        elif text != texts[i]:
            problem = "the outcome changed when the draw was resolved again"
        else:
            continue
        if problem:
            out.failed += 1
            out.fail(f"draw {i}: {problem}")
    out.elapsed = time.perf_counter() - start
    out.peak_rss_mb = _self_rss_mb()
    kinds = [kind for kind, _, _ in draws]
    out.details.update({
        "kinds": {kind: kinds.count(kind) for kind in sorted(set(kinds))},
        "diverged": texts.count("diverged"),
        "digest": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
    })
    return out


# -- cli --------------------------------------------------------------------

CHILD_TIMEOUT_S = 1.0
CHILD_ADDRESS_SPACE = 1 << 30

# inputs that are a denial of service today; each must answer with a JSON
# error and exit code 1 within the timeout to count as handled.  They are
# the ``hostile`` workload, not part of ``cli``: a benchmarked workload must
# be one on which no operation fails.
HOSTILE = (
    ["eval", "(0,0;2+10007*w) * (0,0;3+10009*w)"],
    ["eval", "(0,0;{100000000}) * (5,0;[0))"],
    ["green", "(0,0;1+100003*w)", "(0,0;2+100019*w)", "J"],
)

# one slot per command, repeated
CLI_SCHEDULE = (
    "eval", "green", "closure", "order", "classify", "map-sigma", "syntax",
    "map-brandt", "eval", "green", "domain", "order", "map-reindex",
    "classify-family", "eval", "map-sigma", "closure", "green", "map-reindex",
    "order", "map-brandt", "syntax", "eval", "domain", "classify",
)
CLI_VARIANTS = 4


def _element(rng, fset, span=9):
    return f"({rng.randint(-span, span)},{rng.randint(-span, span)};{fset})"


def _nonempty(rng, max_threshold, max_period):
    while True:
        f = draw_set(rng, max_threshold, max_period)
        if not f.is_empty:
            return f


def _cli_command(rng, kind, variant):
    from epshift.omega_sets import EpSet

    if kind == "eval":
        f = _nonempty(rng, 6, 4)
        return ["eval", " * ".join(_element(rng, f)
                                   for _ in range(rng.randint(2, 3)))]
    if kind == "closure":
        return [f"closure{{ {_nonempty(rng, 6, 4)} }}"]
    if kind == "classify":
        return ["classify", f"closure{{ {_nonempty(rng, 6, 4)} }}"]
    if kind == "classify-family":
        start, step = rng.randint(0, 8), rng.randint(1, 6)
        return ["classify", f"family{{ {{}}; {start}+{step}*w }}"]
    if kind == "map-sigma":
        # rays give an answer; other sets mostly close to a family with {}
        f = EpSet.ray(rng.randint(0, 6)) if variant % 2 else _nonempty(rng, 6, 4)
        return ["map", "sigma", _element(rng, f)]
    if kind == "green":
        return ["green", _element(rng, _nonempty(rng, 8, 6)),
                _element(rng, _nonempty(rng, 8, 6)), rng.choice("RLHDJ")]
    if kind == "order":
        f = _nonempty(rng, 8, 6)
        g = f if rng.random() < 0.5 else _nonempty(rng, 8, 6)
        return ["order", _element(rng, f), _element(rng, g)]
    if kind == "map-brandt":
        f = EpSet.of(rng.randint(0, 9)) if variant % 4 else _nonempty(rng, 8, 6)
        return ["map", "brandt", _element(rng, f)]
    if kind == "map-reindex":
        a, b, step = rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 5)
        return ["map", f"reindex({a},{b},{step})",
                _element(rng, EpSet.progression(a, step))]
    if kind == "syntax":
        f = _nonempty(rng, 6, 4)
        return rng.choice((
            ["eval", f"{_element(rng, f)} *"],
            ["green", _element(rng, f), _element(rng, f), "Q"],
            [f"closure{{ {f}; "],
            ["order", f"({rng.randint(0, 9)},;{f})", _element(rng, f)],
        ))
    if kind == "domain":
        k = rng.randint(0, 8)
        return rng.choice((
            ["classify", f"family{{ {{{k}}}; {{{k + 1}}} }}"],
            ["map", "sigma", _element(rng, EpSet.of(k))],
            ["map", "brandt", _element(rng, EpSet.ray(k))],
        ))
    raise ValueError(f"unknown command kind {kind!r}")


def cli_setup(seed):
    """``CLI_VARIANTS`` seeded commands per schedule slot, as argv lists."""
    rng = random.Random(f"cli:{seed}")
    return [_cli_command(rng, kind, v)
            for v in range(CLI_VARIANTS) for kind in CLI_SCHEDULE]


def hostile_setup(seed):
    """ROADMAP item 3's inputs; they do not depend on the seed."""
    return [list(argv) for argv in HOSTILE]


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion or timeout; returns its outcome.

    The child runs under an address-space limit and is reaped with
    ``wait4`` so that its own peak RSS is known.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, preexec_fn=_limit_child)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                ready = sel.select(left) if left > 0 else []
                if not ready:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()  # never leave a child behind
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"stdout": b"".join(chunks[proc.stdout]),
            "stderr": b"".join(chunks[proc.stderr]),
            "code": proc.returncode, "timed_out": timed_out,
            "rss_mb": usage.ru_maxrss / 1024, "start": t0, "end": t1}


def _merge_child_trace(tracer, index, k, res):
    """Fold a traced child's spans into the operation span at ``index``."""
    _, t0, t1, _, _ = tracer.spans[index]
    before, mark, after = res["stderr"].partition(b"\n" + TRACE_MARK)
    if not mark:
        return  # killed by the timeout before it could report
    # a traceback, if any, follows the trace line
    payload, _, rest = after.partition(b"\n")
    res["stderr"] = before + rest
    dumped = json.loads(payload)
    tracer.merge(dumped, index, k)
    roots = [(s, e) for _, s, e, parent, _ in dumped["spans"] if parent is None]
    # the child's spans are not nested in-process, so the operation's self
    # time (interpreter start, exit, pipes) is what they leave uncovered
    tracer.agg[("bench", "bench.op")][2] -= (t1 - t0) - self_time((t0, t1), roots)
    tracer.counts["cli.interp_s"] += dumped["started"] - t0
    tracer.counts["cli.children"] += 1


def reference_output(argv):
    """What in-process ``epshift.cli`` prints and returns for ``argv``."""
    from epshift import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return buf.getvalue().encode(), code


def cli_measure(commands, seconds, tracer=None):
    env = child_env()
    if tracer is None:
        prefix = [sys.executable, "-m", "epshift.cli"]
    else:
        prefix = [sys.executable, os.path.join(HERE, "cli_driver.py")]
    out = Measured(latencies=[[] for _ in commands], units=[1] * len(commands))
    results = [[] for _ in commands]
    start = time.perf_counter()
    for k, i in rounds(len(commands), seconds):
        if tracer is None:
            res = run_child(prefix + commands[i], env)
        else:
            index = len(tracer.spans)
            res = tracer.run_op(k, run_child, prefix + commands[i], env)
            _merge_child_trace(tracer, index, k, res)
        out.latencies[i].append(res["end"] - res["start"])
        out.attempted += 1
        if not res["timed_out"]:
            out.peak_rss_mb = max(out.peak_rss_mb, res["rss_mb"])
        results[i].append((res["stdout"], res["code"], res["timed_out"]))
    out.elapsed = time.perf_counter() - start

    # checks, after the clock has stopped
    timeouts = hostile_failed = 0
    codes = {}
    for argv, runs in zip(commands, results):
        want = None if argv in HOSTILE else reference_output(argv)
        for stdout, code, timed_out in runs:
            timeouts += timed_out
            codes[str(code)] = codes.get(str(code), 0) + 1
            if want is None:
                # a hostile input is handled only by a JSON error, in time
                if timed_out or code != 1 or not stdout.startswith(b'{"error"'):
                    out.failed += 1
                    hostile_failed += 1
            elif timed_out:
                out.failed += 1
                out.fail(f"{argv} timed out after {CHILD_TIMEOUT_S}s")
            elif (stdout, code) != want:
                out.failed += 1
                out.fail(f"{argv}: exit {code} {stdout[:200]!r}, expected "
                         f"exit {want[1]} {want[0][:200]!r}")
    if tracer is not None:
        tracer.counts["cli.timeouts"] += timeouts
    out.details.update({"timeouts": timeouts, "hostile_failed": hostile_failed,
                        "exit_codes": codes})
    return out


WORKLOADS = {
    "gate": (gate_setup, gate_measure),
    "closure": (closure_setup, closure_measure),
    "cli": (cli_setup, cli_measure),
    "hostile": (hostile_setup, cli_measure),
}
