"""Canonical eventually periodic sets: examples and invariants."""

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epshift import kernel
from epshift.omega_sets import (EMPTY, EpSet, _bits, as_arith_progression,
                                as_singleton, exists_shift_subset, intersect,
                                is_inductive, is_subset, shift, union)

from conftest import epset_members, naive_members, random_epset, random_raw


def raws(max_threshold=9, max_period=7, true_random=False):
    return st.tuples(
        st.integers(0, max_threshold),
        st.integers(1, max_period),
        st.randoms(use_true_random=true_random),
    ).map(lambda tpr: (
        tpr[2].getrandbits(tpr[0]) if tpr[0] else 0,
        tpr[0],
        tpr[1],
        tpr[2].getrandbits(tpr[1]) if tpr[2].random() < 0.75 else 0,
    ))


def epsets(**kw):
    return raws(**kw).map(lambda q: EpSet.from_raw(*q))


# quadruples within one machine word, and ones whose head and residue masks
# run past 64 bits; the wide ones take uniform bits, since Hypothesis's own
# random leaves the high bits of a wide draw almost always zero
any_raws = st.one_of(raws(),
                     raws(max_threshold=120, max_period=80, true_random=True))


def members_through_tail(q1, q2):
    """A width past both thresholds and one common period of the tails."""
    return max(q1[1], q2[1]) + lcm(q1[2], q2[2])


# -- construction and canonical form ---------------------------------------

def test_empty_set_canonical_fields():
    assert EMPTY.head == ()
    assert EMPTY.threshold == 0
    assert EMPTY.period == 1
    assert EMPTY.residues == frozenset()
    assert EMPTY.is_empty and EMPTY.size == 0
    assert 0 not in EMPTY


def test_constructor_validates():
    with pytest.raises(ValueError):
        EpSet(head=[3], threshold=2)
    with pytest.raises(ValueError):
        EpSet(period=0)
    with pytest.raises(ValueError):
        EpSet(threshold=2, period=2, residues=[2])
    with pytest.raises(ValueError):
        EpSet.from_members([-1])


def test_membership_of_negatives_is_false():
    assert -1 not in EpSet.ray(0)
    assert -5 not in EpSet.of(0, 1, 2)


@given(raws())
@settings(max_examples=400)
def test_canonical_form_preserves_membership(q):
    f = EpSet.from_raw(*q)
    width = 4 * (q[1] + q[2]) + 16
    assert epset_members(f, width) == naive_members(*q, width)


@given(raws())
@settings(max_examples=400)
def test_canonical_form_is_minimal_and_stable(q):
    f = EpSet.from_raw(*q)
    # stable: rebuilding from the canonical fields changes nothing
    again = EpSet(head=f.head, threshold=f.threshold, period=f.period,
                  residues=f.residues)
    assert again == f
    # empty residues force period one
    if not f.residues:
        assert f.period == 1
    # no smaller threshold: the element just below must break the pattern
    if f.threshold > 0:
        n = f.threshold - 1
        assert (n in f) != ((n % f.period) in f.residues)
    # no smaller period among its divisors
    for d in range(1, f.period):
        if f.period % d == 0:
            assert any(((c in f.residues) != (((c + d) % f.period)
                                              in f.residues))
                       for c in range(f.period))


def loop_canon(h, t, p, r):
    """The canonical form with the threshold lowered one bit at a time."""
    h &= (1 << t) - 1
    r &= (1 << p) - 1
    if r == 0:
        p = 1
    for d in range(1, p):
        if p % d == 0 and all((r >> c) & 1 == (r >> (c % d)) & 1
                              for c in range(p)):
            r &= (1 << d) - 1
            p = d
            break
    while t > 0 and ((h >> (t - 1)) & 1) == ((r >> ((t - 1) % p)) & 1):
        t -= 1
        h &= (1 << t) - 1
    return h, t, p, r


def test_canon_threshold_matches_bitwise_loop(rng):
    for _ in range(4000):
        t = rng.randint(0, 120)
        p = rng.randint(1, 9)
        r = rng.getrandbits(p) if rng.random() < 0.8 else 0
        # a head that follows the tail pattern except in its lowest bits,
        # plus junk at and above the threshold
        pattern = sum(((r >> (n % p)) & 1) << n for n in range(t))
        h = pattern ^ rng.getrandbits(rng.randint(0, t))
        h |= rng.getrandbits(3) << t
        assert kernel.canon(h, t, p, r) == loop_canon(h, t, p, r)
    for _ in range(2000):
        q = random_raw(rng)
        assert kernel.canon(*q) == loop_canon(*q)
    # periods in the thousands whose pattern repeats with a proper divisor
    for _ in range(40):
        d = rng.randint(1, 60)
        p = d * rng.randint(1000 // d + 1, 4000 // d)
        r = rng.getrandbits(d) * (((1 << p) - 1) // ((1 << d) - 1))
        t = rng.randint(0, 120)
        h = rng.getrandbits(t) if rng.random() < 0.5 else 0
        assert kernel.canon(h, t, p, r) == loop_canon(h, t, p, r)


@given(epsets(), epsets())
@settings(max_examples=300)
def test_equality_iff_same_members(f1, f2):
    width = 2 * (f1.threshold + f2.threshold
                 + f1.period * f2.period) + 8
    same = epset_members(f1, width) == epset_members(f2, width)
    assert (f1 == f2) == same
    if f1 == f2:
        assert hash(f1) == hash(f2)


# -- shift -------------------------------------------------------------------

def test_shift_examples():
    assert shift(EMPTY, 5) == EMPTY
    for k in (0, 1, 3, 7):
        assert shift(EpSet.ray(k), -1) == EpSet.ray(max(k - 1, 0))
    assert shift(EpSet.of(3), -3) == EpSet.of(0)
    # enumerated cross-check below 64
    got = epset_members(shift(EpSet.ray(3), -1), 64)
    assert got == {n for n in range(64) if n + 1 >= 3}


@given(any_raws, st.integers(-20, 20))
@settings(max_examples=400)
def test_shift_matches_translation(q, d):
    width = max(64, members_through_tail(q, q) + 20)
    expect = {m + d for m in naive_members(*q, width + abs(d) + 1)
              if 0 <= m + d < width}
    assert naive_members(*shift(EpSet.from_raw(*q), d).raw, width) == expect


@given(epsets(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=300)
def test_shift_composes_upwards(f, a, b):
    assert shift(shift(f, a), b) == shift(f, a + b)


@given(epsets(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=300)
def test_shift_down_after_up_cancels(f, a, c):
    if c <= a:
        assert shift(shift(f, a), -c) == shift(f, a - c)


@given(epsets(), st.integers(-12, 0), st.integers(-12, 0))
@settings(max_examples=300)
def test_shift_down_composes_when_nothing_clips(f, a, b):
    from epshift.omega_sets import EpSet as E
    if is_subset(f, E.ray(-a - b)):
        assert shift(shift(f, a), b) == shift(f, a + b)


# -- intersection and union ---------------------------------------------------

def test_intersect_examples():
    f = EpSet.progression(2, 3)
    assert intersect(f, f) == f
    assert intersect(EpSet.ray(0), f) == f
    assert intersect(shift(f, -1), f) == EMPTY


@given(epsets(), epsets(), epsets())
@settings(max_examples=300)
def test_intersect_algebra(f1, f2, f3):
    assert intersect(f1, f2) == intersect(f2, f1)
    assert intersect(f1, f1) == f1
    assert (intersect(intersect(f1, f2), f3)
            == intersect(f1, intersect(f2, f3)))


@given(any_raws, any_raws)
@settings(max_examples=300)
def test_intersect_and_union_members(q1, q2):
    width = max(96, members_through_tail(q1, q2))
    f1, f2 = EpSet.from_raw(*q1), EpSet.from_raw(*q2)
    a, b = naive_members(*q1, width), naive_members(*q2, width)
    assert naive_members(*intersect(f1, f2).raw, width) == a & b
    assert naive_members(*union(f1, f2).raw, width) == a | b
    assert intersect(f1, f2).period == 1 or (
        (f1.period * f2.period) % intersect(f1, f2).period == 0)


# -- subset and shift-subset ---------------------------------------------------

def test_is_subset_examples():
    assert is_subset(EMPTY, EpSet.of(5))
    assert is_subset(EpSet.ray(3), EpSet.ray(1))
    assert is_subset(EpSet.of(0, 2), EpSet.progression(0, 2))
    assert not is_subset(EpSet.ray(1), EpSet.ray(3))


@given(any_raws, any_raws)
@settings(max_examples=300)
def test_is_subset_matches_enumeration(q1, q2):
    # a random pair is rarely one member away from containment, so also
    # compare q1 with itself with the member just below its threshold flipped
    h1, t1, p1, r1 = q1
    near = (h1 ^ (1 << (t1 - 1)), t1, p1, r1) if t1 else q2
    for a, b in ((q1, q2), (q1, near), (near, q1)):
        width = members_through_tail(a, b)
        assert is_subset(EpSet.from_raw(*a), EpSet.from_raw(*b)) == (
            naive_members(*a, width) <= naive_members(*b, width))


def test_exists_shift_subset_examples():
    f = EpSet.progression(2, 3)
    assert exists_shift_subset(f, f) == 0
    assert exists_shift_subset(EpSet.of(5), EpSet.of(3)) is None
    assert exists_shift_subset(EpSet.ray(4), EpSet.ray(0)) == 0
    assert exists_shift_subset(EpSet.ray(0), EpSet.ray(4)) == 4


@given(epsets(), epsets())
@settings(max_examples=300)
def test_exists_shift_subset_sound_and_least(f1, f2):
    k = exists_shift_subset(f1, f2)
    if k is not None:
        assert is_subset(shift(f1, k), f2)
        for smaller in range(k):
            assert not is_subset(shift(f1, smaller), f2)


def test_exists_shift_subset_complete_against_brute(rng):
    # scan far beyond the documented decision bound
    from epshift.selftest import brute_least_shift_subset, decision_bound
    for _ in range(600):
        f1, f2 = random_epset(rng), random_epset(rng)
        bound = decision_bound(f1, f2)
        assert exists_shift_subset(f1, f2) == brute_least_shift_subset(
            f1, f2, 4 * bound)
    # multi-word sets; every other second set holds a shift of the first,
    # so its period shares the first one's factors
    for i in range(60):
        f1 = random_epset(rng, max_threshold=120, max_period=80)
        f2 = random_epset(rng, max_threshold=120, max_period=80)
        if i % 2:
            f2 = union(f2, shift(f1, rng.randint(0, 150)))
        assert exists_shift_subset(f1, f2) == brute_least_shift_subset(
            f1, f2, decision_bound(f1, f2))


def test_exists_shift_subset_builds_one_window_per_set(monkeypatch):
    windows = []
    real_window = kernel.window

    def counting_window(*args):
        windows.append(args)
        return real_window(*args)

    monkeypatch.setattr(kernel, "window", counting_window)
    for f1, f2, k in ((EpSet.of(0), EpSet.ray(50), 50),
                      (EpSet.of(0, 1), EpSet.parse("{0}|[300)"), 300),
                      (EpSet.ray(0), EpSet.progression(3, 7), None),
                      (EpSet.of(0, 2), EpSet.progression(1, 997), None)):
        windows.clear()
        assert exists_shift_subset(f1, f2) == k
        assert len(windows) == 2


# -- shape predicates ----------------------------------------------------------

def test_is_inductive_examples():
    assert is_inductive(EpSet.ray(3))
    assert not is_inductive(EpSet.of(0, 2))
    assert is_inductive(EMPTY)


@given(epsets())
@settings(max_examples=300)
def test_is_inductive_cross_characterization(f):
    # nonempty inductive sets are exactly the fixpoints of down-shift-meet
    if not f.is_empty:
        assert is_inductive(f) == (intersect(shift(f, -1), f) == f)
    successors_closed = all(
        (n + 1) in f
        for n in range(f.threshold + 2 * f.period + 2) if n in f)
    assert is_inductive(f) == successors_closed


def test_as_singleton_examples():
    assert as_singleton(EpSet.of(7)) == 7
    assert as_singleton(EMPTY) is None
    assert as_singleton(EpSet.ray(2)) is None
    assert as_singleton(EpSet.of(1, 2)) is None


def test_as_arith_progression_examples():
    assert as_arith_progression(EpSet.progression(2, 3)) == (2, 3)
    assert as_arith_progression(EpSet.ray(5)) == (5, 1)
    assert as_arith_progression(EpSet.of(0, 1, 3)) is None
    assert as_arith_progression(EMPTY) is None


@given(st.integers(0, 30), st.integers(1, 9))
@settings(max_examples=200)
def test_as_arith_progression_round_trip(start, step):
    f = EpSet.progression(start, step)
    assert as_arith_progression(f) == (start, step)
    assert epset_members(f, start + 4 * step) == {
        start + step * n for n in range(4) if step * n < 4 * step}


@given(epsets())
@settings(max_examples=300)
def test_progression_detection_is_exact(f):
    prog = as_arith_progression(f)
    width = f.threshold + 4 * f.period + 8
    if prog is not None:
        i0, j0 = prog
        assert epset_members(f, width) == {
            i0 + j0 * n for n in range((width - i0) // j0 + 1)
            if i0 + j0 * n < width}


# -- misc accessors -------------------------------------------------------------

def test_enumeration_matches_naive_members_on_wide_sets(rng):
    for i in range(100):
        h, t, p, r = random_raw(rng, max_threshold=3000, max_period=2000)
        # half of the sets have no head, so that min() reads the tail
        f = EpSet.from_raw(h if i % 2 else 0, t, p, r)
        h, t, p, r = f.raw
        width = t + 2 * p + 3
        members = sorted(naive_members(h, t, p, r, width))
        head = tuple(n for n in members if n < t)
        tails = [n for n in members if t <= n < t + p]
        assert f.head == head
        assert f.residues == {n % p for n in tails}
        assert f.min() == (members[0] if members else None)
        assert f.members(width) == tuple(members)
        parts = (["{" + ",".join(map(str, head)) + "}"] if head else []) + [
            f"[{n})" if p == 1 else f"{n}+{p}*w" for n in tails]
        assert str(f) == ("|".join(parts) or "{}")


def positions(x):
    # one character per bit, lowest first
    return [i for i, c in enumerate(reversed(bin(x)[2:])) if c == "1"]


def chunk_edge_masks():
    # chunks are cut from the top, so their edges sit both at fixed
    # positions and at fixed distances below the highest bit
    edges = (4095, 4096, 4097, 8191, 8192)
    for top in edges:
        for gap in (0, 1, 2, *edges):
            if gap <= top:
                yield 1 | 1 << (top - gap) | 1 << top
    yield sum(1 << e for e in range(4090, 4100)) | 1 << 8192


def test_bits_equal_a_positional_scan():
    masks = [0, (1 << 20000) - 1, int("10" * 100001, 2),
             random.Random(5).getrandbits(300000), *chunk_edge_masks()]
    for x in masks:
        assert list(_bits(x)) == positions(x)


def test_bits_of_a_single_high_bit():
    assert list(_bits(1 << 10**7)) == [10**7]


def test_min_and_size():
    assert EMPTY.min() is None and EMPTY.size == 0
    assert EpSet.progression(5, 3).min() == 5
    assert EpSet.of(2, 9).size == 2
    assert EpSet.ray(1).size is None


def test_operators():
    a, b = EpSet.of(0, 2), EpSet.ray(2)
    assert (a & b) == EpSet.of(2)
    assert (a | b) == EpSet.parse("{0}|[2)")
    assert bool(a) and not bool(EMPTY)
