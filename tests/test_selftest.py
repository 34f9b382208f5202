"""The verification harness's own shortcuts against the routes they replace.

The draws must consume the rng stream exactly as ``randint`` and ``choice``
do, or the pinned check counts and the byte-identical ``selftest`` output
would change; the green sweep's D table must give the verdicts of a
per-window connecting-element search.
"""

import random

import pytest

import epshift.selftest as selftest
from epshift.core import ZERO, Element, SemigroupCtx, green
from epshift.family import close
from epshift.omega_sets import EMPTY, EpSet
from epshift.selftest import (SWEEP_MARGIN, SuiteResult, _below, _clamp,
                              _connecting_table, _connects, _contexts,
                              _sweep_family, random_closed_family,
                              random_element, random_epset)

SEEDS = range(200)
RANGES = [(-20, 20), (0, 8), (1, 6), (0, 0), (0, 31), (0, 32), (-16, 16)]


def fixed_families():
    # with no random families asked for, the builder draws nothing
    return [ctx.family for ctx in _contexts(random.Random(0), 0)]


# -- draws -----------------------------------------------------------------------

def test_below_draws_as_randint():
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in RANGES:
            assert lo + _below(ours.getrandbits, hi - lo + 1) == \
                theirs.randint(lo, hi)
        assert ours.getstate() == theirs.getstate()


def test_below_draws_as_choice():
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 18):
            seq = tuple(range(100, 100 + n))
            assert seq[_below(ours.getrandbits, n)] == theirs.choice(seq)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -41])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _below(random.Random(0).getrandbits, n)


def public_random_epset(rng, max_threshold=8, max_period=6):
    # the draws written with the public API, as the harness had them
    t = rng.randint(0, max_threshold)
    p = rng.randint(1, max_period)
    h = rng.getrandbits(t) if t else 0
    r = rng.getrandbits(p) if rng.random() < 0.75 else 0
    return EpSet.from_raw(h, t, p, r)


def public_random_element(rng, fam, span=20, zero_prob=0.06):
    choices = fam.nonempty_members
    if not choices or (fam.has_empty and rng.random() < zero_prob):
        return ZERO
    return Element(rng.randint(-span, span), rng.randint(-span, span),
                   rng.choice(choices))


def test_random_epset_equals_the_public_draws():
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for kw in ({}, {"max_threshold": 0, "max_period": 1},
                   {"max_threshold": 3, "max_period": 2},
                   {"max_threshold": 31, "max_period": 32}):
            assert random_epset(ours, **kw) == public_random_epset(theirs, **kw)
        assert ours.getstate() == theirs.getstate()


def test_random_element_equals_the_public_draws():
    families = fixed_families()
    families += [random_closed_family(random.Random(s)) for s in range(6)]
    families.append(close([EpSet.progression(1, 2), EMPTY]))
    assert any(f.has_empty for f in families)
    assert any(not f.nonempty_members for f in families)
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for fam in families:
            for span, zero_prob in ((20, 0.06), (0, 0.5), (1, 0.03), (9, 0.0)):
                a = random_element(ours, fam, span, zero_prob)
                b = public_random_element(theirs, fam, span, zero_prob)
                assert a == b
                assert a.is_zero == b.is_zero
        assert ours.getstate() == theirs.getstate()


# -- the green sweep -------------------------------------------------------------

def sweep_families():
    randoms = [random_closed_family(random.Random(s)) for s in (0, 1, 3)]
    assert all(f.nonempty_members for f in randoms)
    return fixed_families() + randoms


def sweep_pairs(fam, seed, count=12):
    # clamped pairs of nonzero elements, half of them sharing a set
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = random_element(rng, fam, zero_prob=0.0)
        b = random_element(rng, fam, zero_prob=0.0)
        if rng.random() < 0.5:
            b = Element(b.i, b.j, a.fset)
        pairs.append((_clamp(a), _clamp(b)))
    return pairs


def run_sweep(fam, pairs):
    res = SuiteResult("green", 0)
    _sweep_family(res, SemigroupCtx(fam), pairs)
    return res


def test_sweep_passes():
    for k, fam in enumerate(sweep_families()):
        pairs = sweep_pairs(fam, k)
        res = run_sweep(fam, pairs)
        assert res.failures == 0, res.first_failure
        assert res.checks == 3 * len(pairs)


@pytest.mark.parametrize("rel", ["R", "L", "D"])
def test_sweep_catches_a_wrong_criterion(monkeypatch, rel):
    def flipped(a, b, r):
        return green(a, b, r) != (r == rel)

    monkeypatch.setattr(selftest, "green", flipped)
    for k, fam in enumerate(sweep_families()):
        pairs = sweep_pairs(fam, k)
        res = run_sweep(fam, pairs)
        assert res.failures == len(pairs)
        assert res.first_failure.startswith(f"{rel} sweep disagrees")


def window_d(ctx, fam, sa, sb):
    # the per-window connecting-element scan the table replaced
    lo = min(sa.i, sa.j, sb.i, sb.j) - SWEEP_MARGIN
    hi = max(sa.i, sa.j, sb.i, sb.j) + SWEEP_MARGIN
    aa, bb = ctx.mul(sa, sa.inverse()), ctx.mul(sb.inverse(), sb)
    return any(_connects(ctx, Element(p, q, f), aa, bb)
               for p in range(lo, hi + 1)
               for q in range(lo, hi + 1)
               for f in fam.nonempty_members)


def test_table_d_verdict_equals_the_window_scan():
    grid = (-6, -1, 4)
    for fam in fixed_families():
        ctx = SemigroupCtx(fam)
        table = _connecting_table(ctx, fam.nonempty_members,
                                  6 + SWEEP_MARGIN)
        elems = [Element(i, j, f) for i in grid for j in grid
                 for f in fam.nonempty_members]
        verdicts = set()
        for sa in elems:
            for sb in elems:
                got = (ctx.mul(sa, sa.inverse()),
                       ctx.mul(sb.inverse(), sb)) in table
                assert got == window_d(ctx, fam, sa, sb), (sa, sb)
                verdicts.add(got)
        assert verdicts == ({True, False} if len(fam.nonempty_members) > 1
                            else {True})
