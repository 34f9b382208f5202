"""Closure and verification of shift-closed families."""

import pytest

from epshift import kernel
from epshift.errors import ClosureDiverged, NotOmegaClosed
from epshift.family import (Family, SingletonFamily, close, is_omega_closed,
                            omega_closure_witness)
from epshift.omega_sets import EMPTY, EpSet, intersect, shift, sort_key

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


def pairwise_witness(members):
    """The closure check read literally: the first ``(F1, F2, n)`` in sorted
    order whose cut falls outside the members.  Slow, so only for small
    lists."""
    pool = frozenset(members)
    ordered = sorted(pool, key=sort_key)
    for f1 in ordered:
        for f2 in ordered:
            for n in range(f2.threshold + f2.period):
                if intersect(f1, shift(f2, -n)) not in pool:
                    return (f1, f2, n)
    return None


def expected_message(witness):
    """``NotOmegaClosed``'s message for a witness; the CLI prints it."""
    f1, f2, n = witness
    return (f"{f1} ∩ shift({f2}, -{n}) = {intersect(f1, shift(f2, -n))} "
            "is outside the family")


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


def test_witness_matches_pairwise_scan(rng):
    kinds = {"closed": 0, "dropped": 0, "added": 0}
    while sum(kinds.values()) < 1200:
        gens = [random_epset(rng, max_threshold=5, max_period=4)
                for _ in range(rng.randint(1, 3))]
        try:
            closed = list(close(gens, cap=16).members)
        except ClosureDiverged:
            continue
        lists = {"closed": closed,
                 "added": closed + [random_epset(rng, max_threshold=6,
                                                 max_period=5)]}
        if len(closed) > 1:
            dropped = list(closed)
            dropped.pop(rng.randrange(len(dropped)))
            lists["dropped"] = dropped
        for kind, members in lists.items():
            rng.shuffle(members)
            want = pairwise_witness(members)
            assert omega_closure_witness(members) == want, (kind, members)
            if kind == "closed":
                assert want is None
            kinds[kind] += 1
            if want is None:
                Family(members, check=True)
                continue
            with pytest.raises(NotOmegaClosed) as info:
                Family(members, check=True)
            f1, f2, n = want
            assert str(info.value) == expected_message(want)
            assert info.value.details == {"f1": str(f1), "f2": str(f2), "n": n}
    assert min(kinds.values()) >= 300, kinds


def test_not_closed_message_is_stable():
    with pytest.raises(NotOmegaClosed) as info:
        Family([EpSet.of(0, 1)])
    assert str(info.value) == \
        "{0,1} ∩ shift({0,1}, -1) = {0} is outside the family"
    with pytest.raises(NotOmegaClosed) as info:
        Family([EpSet.ray(0), EpSet.ray(2)])
    assert str(info.value) == \
        "[0) ∩ shift([2), -1) = [1) is outside the family"


def test_witness_stops_at_first_violation(monkeypatch):
    # {0,100000} has 100001 down-shifts of up to 100000 bits each, but its
    # cut with the one at n = 1 is already outside, so no more are built
    shifts = []
    real_shift = kernel.shift

    def counting_shift(*args):
        shifts.append(args[-1])
        return real_shift(*args)

    monkeypatch.setattr(kernel, "shift", counting_shift)
    big = EpSet.of(0, 100000)
    with pytest.raises(NotOmegaClosed) as info:
        Family([big])
    assert info.value.details == {"f1": str(big), "f2": str(big), "n": 1}
    assert len(shifts) < 10


def test_long_finite_member_validates():
    # every down-shift of {0,4000} canonicalises a head about 4000 bits long
    fam = Family([EMPTY, EpSet.of(0), EpSet.of(0, 4000)])
    assert len(fam) == 3


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
