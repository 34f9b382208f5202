"""The verification harness's own shortcuts against the routes they replace.

The draws must consume the rng stream exactly as ``randint`` and ``choice``
do, or the pinned check counts and the byte-identical ``selftest`` output
would change.  The green sweep's R and L row search must give the verdicts
of a search over the whole window, and the facts it rests on (a row of
products shares its index and set) are checked through ``ctx.mul``; its D
table must give the verdicts of a per-window connecting-element search.
A failing check must report the text its template and values spell.
"""

import random

import pytest

import epshift.selftest as selftest
from epshift.core import ZERO, Element, SemigroupCtx, green
from epshift.family import close
from epshift.omega_sets import EMPTY, EpSet
from epshift.selftest import (SWEEP_MARGIN, SuiteResult, _below, _clamp,
                              _connecting_table, _connects, _contexts,
                              _element_or_zero, _solvable, _sweep_family,
                              _table_connects, element_drawer,
                              random_closed_family, random_epset)

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


DRAW_PARAMS = ((20, 0.06), (0, 0.5), (1, 0.03), (9, 0.0))


def draw_families():
    families = fixed_families()
    families += [random_closed_family(random.Random(s)) for s in range(6)]
    families.append(close([EpSet.progression(1, 2), EMPTY]))
    families.append(close([EMPTY]))
    assert any(f.has_empty for f in families)
    assert any(not f.has_empty for f in families)
    assert any(not f.nonempty_members for f in families)
    return families


def test_random_element_equals_the_public_draws():
    # one fresh drawer per draw, over every family in turn on one rng
    families = draw_families()
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for fam in families:
            for span, zero_prob in DRAW_PARAMS:
                a = element_drawer(ours, fam, span, zero_prob)()
                b = public_random_element(theirs, fam, span, zero_prob)
                assert a == b
                assert a.is_zero == b.is_zero
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("span,zero_prob", DRAW_PARAMS)
def test_one_drawer_equals_the_public_draws(span, zero_prob):
    for seed, fam in enumerate(draw_families()):
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = element_drawer(ours, fam, span, zero_prob)
        for _ in range(200):
            a = draw()
            b = public_random_element(theirs, fam, span, zero_prob)
            assert a == b
            assert a.is_zero == b.is_zero
        assert ours.getstate() == theirs.getstate()
        if not fam.nonempty_members:
            # nothing to choose from: every draw is the zero, drawn from
            # no randomness at all
            assert ours.getstate() == random.Random(seed).getstate()


# -- the green sweep -------------------------------------------------------------

def sweep_families():
    randoms = [random_closed_family(random.Random(s)) for s in (0, 1, 3)]
    assert all(f.nonempty_members for f in randoms)
    return fixed_families() + randoms


def sweep_pairs(fam, seed, count=8):
    # clamped pairs with R-true and L-true cases (a shared index and set),
    # and a shared index with a set that may differ
    draw = element_drawer(random.Random(seed), fam, zero_prob=0.0)
    pairs = []
    for _ in range(count):
        a = _clamp(draw())
        b = _clamp(draw())
        pairs += [(a, b), (a, Element(a.i, b.j, a.fset)),
                  (a, Element(b.i, a.j, a.fset)),
                  (a, Element(a.i, b.j, b.fset)),
                  (a, Element(b.i, a.j, b.fset))]
    return pairs


def window(sa, sb, margin):
    lo = min(sa.i, sa.j, sb.i, sb.j) - margin
    hi = max(sa.i, sa.j, sb.i, sb.j) + margin
    return range(lo, hi + 1)


def square_solvable(ctx, a, b, span, members, left):
    # the full-square scan the row search replaced
    if left:
        return any(ctx.mul(a, Element(p, q, f)) == b
                   for p in span for q in span for f in members)
    return any(ctx.mul(Element(p, q, f), a) == b
               for p in span for q in span for f in members)


@pytest.mark.parametrize("margin", [0, SWEEP_MARGIN])
def test_row_search_equals_the_full_square_scan(margin):
    verdicts = {True: set(), False: set()}
    for k, fam in enumerate(sweep_families()):
        ctx = SemigroupCtx(fam)
        members = fam.nonempty_members
        for sa, sb in sweep_pairs(fam, k):
            span = window(sa, sb, margin)
            for left in (True, False):
                for a, b in ((sa, sb), (sb, sa)):
                    got = _solvable(ctx.mul, a, b, span, members, left)
                    assert got == square_solvable(ctx, a, b, span, members,
                                                  left), (a, b, left)
                    verdicts[left].add(got)
    assert verdicts == {True: {True, False}, False: {True, False}}


def test_a_row_of_products_shares_its_index_and_set():
    qs = range(-9, 10)
    for k, fam in enumerate(sweep_families()):
        ctx = SemigroupCtx(fam)
        draw = element_drawer(random.Random(100 + k), fam, zero_prob=0.0)
        for _ in range(6):
            a = draw()
            for p in range(-9, 10, 3):
                for f in fam.nonempty_members:
                    # R side: a*(p, q, f) keeps its first index and set
                    row = [ctx.mul(a, Element(p, q, f)) for q in qs]
                    assert len({(c.i, c.fset) for c in row}) == 1, (a, p, f)
                    # L side: (q, p, f)*a keeps its second index and set
                    col = [ctx.mul(Element(q, p, f), a) for q in qs]
                    assert len({(c.j, c.fset) for c in col}) == 1, (a, p, f)
                    # c*c^-1 along a row, c^-1*c along a column
                    cs = [Element(p, q, f) for q in qs]
                    assert len({ctx.mul(c, c.inverse()) for c in cs}) == 1
                    cs = [Element(q, p, f) for q in qs]
                    assert len({ctx.mul(c.inverse(), c) for c in cs}) == 1


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


@pytest.mark.parametrize("rel", ["R", "L"])
def test_sweep_catches_a_criterion_that_ignores_the_set(monkeypatch, rel):
    # this criterion is wrong only on pairs with a shared index and
    # different sets, so the sweep must fail on exactly those
    def shared_index(a, b):
        return a.i == b.i if rel == "R" else a.j == b.j

    def mutated(a, b, r):
        return shared_index(a, b) if r == rel else green(a, b, r)

    monkeypatch.setattr(selftest, "green", mutated)
    failures = wrong = 0
    for k, fam in enumerate(sweep_families()):
        pairs = sweep_pairs(fam, k)
        res = run_sweep(fam, pairs)
        failures += res.failures
        wrong += sum(shared_index(sa, sb) and sa.fset != sb.fset
                     for sa, sb in pairs)
        if res.failures:
            assert res.first_failure.startswith(f"{rel} sweep disagrees")
    assert failures == wrong > 0


def window_d(ctx, fam, sa, sb):
    # the per-window connecting-element scan the table replaced
    span = window(sa, sb, SWEEP_MARGIN)
    aa, bb = ctx.mul(sa, sa.inverse()), ctx.mul(sb.inverse(), sb)
    return any(_connects(ctx, Element(p, q, f), aa, bb)
               for p in span for q in span for f in fam.nonempty_members)


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
                got = _table_connects(table, ctx.mul(sa, sa.inverse()),
                                      ctx.mul(sb.inverse(), sb))
                assert got == window_d(ctx, fam, sa, sb), (sa, sb)
                verdicts.add(got)
        assert verdicts == ({True, False} if len(fam.nonempty_members) > 1
                            else {True})


# -- the check protocol -----------------------------------------------------------

class Unprintable:
    def __format__(self, spec):
        raise AssertionError("a passing check formatted its message")


def test_a_check_formats_only_its_first_failure():
    res = SuiteResult("x", 0)
    res.check(True, "{0}", Unprintable())
    res.check(0, "singleton {{{0}}} and {1}", 3, [(1, True)])
    res.check(False, "{0}", Unprintable())
    assert (res.checks, res.failures) == (3, 2)
    assert res.first_failure == "singleton {3} and [(1, True)]"
    assert res.as_dict() == {"name": "x", "seed": 0, "checks": 3,
                             "failures": 2, "passed": False,
                             "first_failure": res.first_failure}


# the n-th check of a suite at 40 samples and seed 3, forced to fail, and
# the first failure it reports: one row per suite and per morphism map
INJECTED = [
    ("associativity", 1, 960,
     "associativity broke: ((-15,-3;[0))*(1,-6;[0)))*(11,14;[0)) = "
     "(6,14;[0)) but (-15,-3;[0))*((1,-6;[0))*(11,14;[0))) = (6,14;[0))"),
    ("inverse-axioms", 7, 143,
     "second inverse (14,-10;{3}) found for (-10,14;{3})"),
    ("natural-order", 1, 103,
     "order criterion says False for (-5,-2;[0)) vs (5,-8;[0)) but the "
     "definitional product check disagrees"),
    ("green", 285, 396, "D sweep disagrees on (6,6;[0)), (6,-6;[0))"),
    ("oracle", 2, 113,
     "indices of (-3,1;{1,3,4,5})*(-9,-11;{3,4}|[6)) = (-3,-1;{1,3,4,5}) "
     "disagree with a[-3->-1]"),
    ("classification", 6, 147,
     "singleton family {0} misclassified: MatrixUnitsOmega"),
    ("morphisms", 401, 482,
     "not all six product case splits were exercised: [(-1, False), "
     "(-1, True), (0, False), (0, True), (1, False), (1, True)]"),
    ("family-machinery", 1, 341,
     "closure of ['{0}', '{3,4,5,6}|8+3*w'] not closed: witness None"),
    ("hom-sigma", 14, 80,
     "sigma classes say True on (-17,-3;[0)), (-4,10;[0)) but the "
     "merging-idempotent scan disagrees"),
    ("hom-ext-bicyclic", 4, 160,
     "shift composition square broke on a[-15->-2], a[8->-7]"),
    ("hom-matrix-units", 1, 120,
     "matrix-unit map not a homomorphism on (-3,2;{7}), (17,16;{7})"),
    ("hom-brandt", 1, 81,
     "triple map not a homomorphism on (2,-4;{0}), (-7,2;{0}): 0 vs 0"),
    ("hom-reindex", 1, 41,
     "progression reindexing not a homomorphism on (-12,-3;5+3*w), "
     "(12,-14;5+3*w)"),
]


@pytest.mark.parametrize("name,nth,checks,text", INJECTED,
                         ids=[row[0] for row in INJECTED])
def test_an_injected_failure_reports_its_text(monkeypatch, name, nth, checks,
                                              text):
    check = SuiteResult.check
    calls = []

    def flip_nth(res, ok, *rest):
        calls.append(None)
        return check(res, not ok if len(calls) == nth else ok, *rest)

    monkeypatch.setattr(SuiteResult, "check", flip_nth)
    opts = selftest.SuiteOptions(samples=40, seed=3)
    if name.startswith("hom-"):
        res = selftest.run_check_hom(name[4:], opts)
    else:
        res = selftest.run_suite(name, opts)
    assert (res.checks, res.failures) == (checks, 1)
    assert res.first_failure == text


# the draws the matrix-unit and reindexing maps made inline before
# ``_element_or_zero`` replaced them

def matrix_units_draw(rng, fset):
    if rng.random() < 0.08:
        return ZERO
    return Element(rng.randint(-20, 20), rng.randint(-20, 20), fset)


def reindex_draw(rng, fset):
    if rng.random() < 0.06:
        return ZERO
    return Element(rng.randint(-16, 16), rng.randint(-16, 16), fset)


@pytest.mark.parametrize("referee,span,zero_prob", [
    (matrix_units_draw, 20, 0.08), (reindex_draw, 16, 0.06)],
    ids=["matrix-units", "reindex"])
def test_element_or_zero_draws_as_the_inline_draws(referee, span, zero_prob):
    fset = EpSet.progression(2, 3)
    zeros = 0
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            got = _element_or_zero(ours, fset, span, zero_prob)
            assert got == referee(theirs, fset)
            zeros += got is ZERO
        assert ours.getstate() == theirs.getstate()
    assert zeros > 0
