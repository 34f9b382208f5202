"""Acceptance gate: one test per criterion, full sample counts.

Each criterion runs its verification suite at 10^4 random instances
(indices within +-20, set thresholds <= 8, periods <= 6, families of at
most 16 members) under a fixed seed, and prints one PASS/FAIL line.
Run with ``pytest -v`` (or ``-s`` to watch the lines appear).
"""

import hashlib
import time
from typing import Tuple

import pytest

from epshift import cli
from epshift.selftest import (ORACLE_WINDOW, SUITES, SuiteOptions,
                              SuiteResult)

ACCEPTANCE_SEED = 7
SAMPLES = 10_000
# of ``epshift selftest --samples 10000 --seed 7``: a change that moves any
# check, count or rng draw moves it
SELFTEST_MD5 = "0f629eb47478bf044c3bdc8000a9e53e"

# (number, title, suite, checks at seed 7 and 10^4 samples); the counts
# catch a referee rewrite that silently drops checks
CRITERIA = [
    (1, "associativity over fixed and random closed families",
     "associativity", 240000),
    (2, "inverse axioms, inverse uniqueness, commuting idempotents",
     "inverse-axioms", 35044),
    (3, "natural order criterion vs definitional product check",
     "natural-order", 25796),
    (4, "Green criteria vs witnesses, sweeps, and brute scans",
     "green", 68523),
    (5, "product formula vs pointwise window composition at width "
        f"{ORACLE_WINDOW}",
     "oracle", 29925),
    (6, "classification golden cases and cross-validation",
     "classification", 17432),
    (7, "morphism suites: quotient, pair, matrix-unit, triple, reindexing",
     "morphisms", 110502),
    (8, "closure verification and shift-containment brute scans",
     "family-machinery", 13837),
]

# suite -> (result, seconds), filled by the first test that needs a suite,
# so each suite runs once per session whichever tests are selected
_runs = {}


def _run(number, title, suite) -> Tuple[SuiteResult, float]:
    if suite not in _runs:
        opts = SuiteOptions(samples=SAMPLES, seed=ACCEPTANCE_SEED)
        start = time.perf_counter()
        result = SUITES[suite](opts)
        _runs[suite] = (result, time.perf_counter() - start)
        verdict = "PASS" if result.passed else "FAIL"
        print(f"criterion {number} ({title}): {verdict} "
              f"[{result.checks} checks, {result.failures} failures, "
              f"{_runs[suite][1]:.1f}s]")
    return _runs[suite]


@pytest.mark.parametrize("number,title,suite,checks", CRITERIA,
                         ids=[f"criterion-{n}-{s}" for n, _, s, _ in CRITERIA])
def test_acceptance_criterion(number, title, suite, checks):
    result, _ = _run(number, title, suite)
    assert result.failures == 0, (
        f"criterion {number} failed {result.failures}/{result.checks} "
        f"checks; first failure: {result.first_failure}")
    assert result.checks == checks


def test_acceptance_total_runtime_report():
    total = sum(_run(number, title, suite)[1]
                for number, title, suite, _ in CRITERIA)
    print(f"acceptance suites total runtime: {total:.1f}s "
          f"(target < 60s on a desktop machine)")
    assert len(_runs) == len(CRITERIA)


def test_selftest_output_bytes():
    by_suite = {suite: (number, title) for number, title, suite, _ in CRITERIA}
    results = [_run(*by_suite[suite], suite)[0] for suite in SUITES]
    out = cli._dump({"result": cli._suite_payload(results)}, cli.RunOptions())
    assert hashlib.md5((out + "\n").encode()).hexdigest() == SELFTEST_MD5
