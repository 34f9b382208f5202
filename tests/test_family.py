"""Closure and verification of shift-closed families."""

import pytest

from epshift.errors import ClosureDiverged, NotOmegaClosed
from epshift.family import (Family, SingletonFamily, close, is_omega_closed,
                            omega_closure_witness)
from epshift.omega_sets import EMPTY, EpSet, intersect, shift

from conftest import random_epset


def pairwise_closure(gens):
    """The definition read literally: add every ``F1 & shift(F2, -n)``
    until nothing changes.  Slow, so only for small families."""
    members = set(gens)
    while True:
        new = {intersect(f1, shift(f2, -n))
               for f1 in members for f2 in members
               for n in range(f2.threshold + f2.period)} - members
        if not new:
            return members
        members |= new


def test_close_fixpoint_examples():
    assert set(close([EpSet.ray(0)]).members) == {EpSet.ray(0)}
    assert set(close([EpSet.progression(2, 3)]).members) == {
        EMPTY, EpSet.progression(2, 3)}
    assert set(close([EpSet.of(0, 1)]).members) == {
        EMPTY, EpSet.of(0), EpSet.of(0, 1)}


def test_close_requires_generators():
    with pytest.raises(ValueError):
        close([])


def test_close_cap_raises_not_truncates():
    # dense residue generators explode combinatorially
    gens = [EpSet.from_raw(0, 0, 5, 0b10110), EpSet.from_raw(0, 0, 6, 0b101101)]
    with pytest.raises(ClosureDiverged):
        close(gens, cap=8)
    # generators count against the cap like every other member
    with pytest.raises(ClosureDiverged):
        close([EMPTY, EpSet.ray(0)], cap=1)
    assert len(close([EMPTY, EpSet.ray(0)], cap=2)) == 2


def test_is_omega_closed_examples():
    ok, witness = is_omega_closed([EMPTY])
    assert ok and witness is None
    ok, witness = is_omega_closed([EpSet.of(0, 1)])
    assert not ok
    f1, f2, n = witness
    assert (f1, f2, n) == (EpSet.of(0, 1), EpSet.of(0, 1), 1)
    assert intersect(f1, shift(f2, -n)) == EpSet.of(0)
    ok, _ = is_omega_closed([EpSet.ray(0)])
    assert ok


def test_ray_families_are_closed():
    # down-shifts only ever lower a ray, so ray intervals are closed
    ok, _ = is_omega_closed([EpSet.ray(0), EpSet.ray(1), EMPTY])
    assert ok
    ok, _ = is_omega_closed([EpSet.ray(k) for k in range(4)])
    assert ok
    # a gap in the interval breaks closure
    ok, witness = is_omega_closed([EpSet.ray(0), EpSet.ray(2)])
    assert not ok and witness is not None


def test_family_constructor_verifies():
    with pytest.raises(NotOmegaClosed):
        Family([EpSet.of(0, 1)])
    fam = Family([EMPTY, EpSet.of(3)])
    assert fam.has_empty
    assert fam.nonempty_members == (EpSet.of(3),)
    assert EpSet.of(3) in fam and EpSet.of(4) not in fam
    assert len(fam) == 2


def test_closure_is_closed_idempotent_monotone(rng):
    for _ in range(120):
        gens = [random_epset(rng, max_threshold=6, max_period=5)
                for _ in range(rng.randint(1, 3))]
        try:
            fam = close(gens, cap=64)
        except ClosureDiverged:
            continue
        assert omega_closure_witness(fam.members) is None
        if len(fam) <= 16:
            # closed alone is not enough: nothing beyond the closure either
            assert set(fam.members) == pairwise_closure(gens)
        assert close(fam.members, cap=len(fam) + 1) == fam
        try:
            bigger = close(gens + [random_epset(rng, max_threshold=6,
                                                max_period=5)], cap=96)
        except ClosureDiverged:
            continue
        assert all(f in bigger for f in fam.members)


def test_closure_contains_every_product_set(rng):
    # multiplication only ever produces down-shift meets of members
    for _ in range(40):
        try:
            fam = close([random_epset(rng, max_threshold=5, max_period=4)
                         for _ in range(2)], cap=48)
        except ClosureDiverged:
            continue
        for f1 in fam.members:
            for f2 in fam.members:
                for n in range(f2.threshold + f2.period + 3):
                    assert intersect(f1, shift(f2, -n)) in fam


def test_singleton_family_membership():
    fam = SingletonFamily()
    assert fam.has_empty
    assert EMPTY in fam
    assert EpSet.of(7) in fam
    assert EpSet.of(1, 2) not in fam
    assert EpSet.ray(0) not in fam
    with pytest.raises(TypeError):
        len(fam)
    with pytest.raises(TypeError):
        iter(fam)


def test_family_printing_is_sorted_and_stable():
    fam = Family([EpSet.of(0, 1), EpSet.of(0), EMPTY], check=True)
    assert str(fam) == "family{ {}; {0}; {0,1} }"
