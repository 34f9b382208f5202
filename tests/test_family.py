"""Closure and verification of shift-closed families."""

import random
from math import gcd, lcm

import pytest

from epshift import family, kernel
from epshift.errors import ClosureDiverged, NotOmegaClosed, ResourceLimit
from epshift.family import (MAX_WINDOW_BITS, Family, SingletonFamily, close,
                            is_omega_closed, omega_closure_witness)
from epshift.omega_sets import EMPTY, EpSet, intersect, shift, sort_key

from conftest import random_epset


def pairwise_closure(gens, cap=None):
    """The definition read literally: add every ``F1 & shift(F2, -n)``
    until nothing changes; a round skips the pairs an earlier round cut.
    Slow, so only for small families.  With a ``cap``, ``None`` once the
    members outnumber it."""
    members, fresh = set(gens), set(gens)
    while fresh:
        if cap is not None and len(members) > cap:
            return None
        fresh = {intersect(f1, shift(f2, -n))
                 for f1 in members for f2 in members
                 if f1 in fresh or f2 in fresh
                 for n in range(f2.threshold + f2.period)} - members
        members |= fresh
    return members


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


def test_closure_checks_require_members():
    with pytest.raises(ValueError):
        is_omega_closed([])
    with pytest.raises(ValueError):
        omega_closure_witness([])


def test_a_window_over_the_bound_is_refused_before_any_mask(monkeypatch):
    windows = []
    real_window = kernel.window

    def counting_window(*args):
        windows.append(args)
        return real_window(*args)

    monkeypatch.setattr(kernel, "window", counting_window)
    # first the threshold alone, then the lcm of the periods, takes the
    # window past the bound
    for gens, width in (([EpSet.of(MAX_WINDOW_BITS)], MAX_WINDOW_BITS + 2),
                        ([EpSet.progression(0, 1025),
                          EpSet.progression(0, 1024)], 1025 * 1024)):
        # closure and validation share the one bound check
        for build in (close, Family, is_omega_closed):
            with pytest.raises(ResourceLimit) as info:
                build(gens)
            assert info.value.code == "resource_limit"
            assert info.value.details == {"quantity": "window_bits",
                                          "value": width,
                                          "limit": MAX_WINDOW_BITS}
    assert windows == []
    # just under the bound the closure runs, here until the cap stops it
    assert 1024 * 1023 <= MAX_WINDOW_BITS
    with pytest.raises(ClosureDiverged):
        close([EpSet.progression(0, 1024), EpSet.progression(0, 1023)], cap=2)
    assert windows


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
    # cut with the one at n = 1 is already outside; every cut is a shift and
    # an & of window ints, so the kernel never shifts or intersects
    def refuse(*args):
        raise AssertionError("validation called the kernel")

    monkeypatch.setattr(kernel, "shift", refuse)
    monkeypatch.setattr(kernel, "intersect", refuse)
    big = EpSet.of(0, 100000)
    assert omega_closure_witness([big]) == (big, big, 1)


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


def sparse_epset(rng, period, max_threshold=12):
    """A set with at most two head members below ``max_threshold`` and at
    most two residues mod ``period``; canonicalizing may lower its period
    and its threshold."""
    t = rng.randint(0, max_threshold)
    h = 0
    for _ in range(rng.randint(0, 2) if t else 0):
        h |= 1 << rng.randrange(t)
    r = 0
    if rng.random() < 0.85:
        for _ in range(rng.randint(1, 2)):
            r |= 1 << rng.randrange(period)
    return EpSet.from_raw(h, t, period, r)


REFEREE_CAPS = (4, 10, 20)


def test_closure_matches_the_pairwise_fixpoint_on_mixed_periods():
    # pairs of periods up to 12, coprime and not, and thresholds up to 12:
    # close() must find the referee's closure, or diverge exactly when the
    # referee's closure outnumbers the cap
    rng = random.Random(0xC105E)
    seen = {"coprime": 0, "shared": 0, "closed": 0, "diverged": 0,
            "wide": 0, "deep": 0}
    for case in range(150):
        p1 = rng.randint(2, 12)
        coprime = [q for q in range(2, 13) if gcd(p1, q) == 1]
        shared = [q for q in range(2, 13) if gcd(p1, q) > 1]
        p2 = rng.choice(coprime if case % 2 else shared)
        gens = [sparse_epset(rng, p1), sparse_epset(rng, p2)]
        if rng.random() < 0.3:
            gens.append(sparse_epset(rng, rng.randint(1, 12)))
        periods = [g.period for g in gens]
        pairs = [(a, b) for a in periods for b in periods
                 if a > 1 and b > 1 and a != b]
        seen["coprime"] += any(gcd(a, b) == 1 for a, b in pairs)
        seen["shared"] += any(gcd(a, b) > 1 for a, b in pairs)
        want = pairwise_closure(gens, cap=max(REFEREE_CAPS))
        for cap in REFEREE_CAPS:
            if want is None or len(want) > cap:
                with pytest.raises(ClosureDiverged):
                    close(gens, cap=cap)
            else:
                assert set(close(gens, cap=cap).members) == want, gens
        if want is None:
            seen["diverged"] += 1
        else:
            seen["closed"] += 1
            seen["wide"] += lcm(*periods) > 12
            seen["deep"] += max(g.threshold for g in gens) > 6
    assert min(seen.values()) >= 10, seen


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


def test_closure_at_its_exact_cap():
    # a closure of s members closes at cap s and diverges at cap s - 1, also
    # when the generators alone are already more than s - 1
    rng = random.Random(0xCA9)
    seen = {"cases": 0, "generators_over_cap": 0}
    for _ in range(120):
        gens = [sparse_epset(rng, rng.randint(1, 8), max_threshold=8)
                for _ in range(rng.randint(1, 3))]
        want = pairwise_closure(gens, cap=16)
        if want is None or len(want) > 16:
            continue
        # a closed family as its own generators, in a scrambled order
        lists = [gens, rng.sample(sorted(want, key=sort_key), len(want))]
        for gl in lists:
            s = len(want)
            assert set(close(gl, cap=s).members) == want, gl
            with pytest.raises(ClosureDiverged):
                close(gl, cap=s - 1)
            seen["cases"] += 1
            seen["generators_over_cap"] += len(set(gl)) > s - 1
    assert seen["cases"] >= 100 and seen["generators_over_cap"] >= 50, seen


def test_closure_with_a_large_threshold_matches_the_pairwise_fixpoint():
    # a threshold far above the seeded cases' windows, as in
    # eval '(0,0;{0,9999}) * (3,1;5+7*w)', kept small for the referee
    gens = [EpSet.of(0, 150), EpSet.progression(5, 7)]
    want = pairwise_closure(gens)
    assert set(close(gens, cap=len(want)).members) == want
    with pytest.raises(ClosureDiverged):
        close(gens, cap=len(want) - 1)


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


def cut_cases(rng):
    """Random closures, a directly built family with mixed periods, and a
    family that skipped verification and is not closed."""
    families = []
    while len(families) < 25:
        try:
            families.append(close([random_epset(rng, max_threshold=6,
                                                max_period=5)
                                   for _ in range(rng.randint(1, 3))], cap=24))
        except ClosureDiverged:
            continue
    mixed = close([EpSet.progression(1, 2), EpSet.from_raw(0b101, 3, 3, 0b011)])
    families.append(Family(mixed.members))
    families.append(Family([EpSet.of(0), EpSet.of(2), EpSet.of(0, 1),
                            EpSet.progression(1, 4)], check=False))
    return families


def test_cut_equals_the_kernel_expression(rng):
    seen = {"member": 0, "outside": 0, "empty": 0}
    for fam in cut_cases(rng):
        by_value = {f: f for f in fam.members}
        for f1 in fam.members:
            for f2 in fam.members:
                for n in range(f2.threshold + f2.period + 3):
                    want = intersect(f1, shift(f2, -n))
                    got = fam.cut(f1, f2, n)
                    assert got == want, (fam, f1, f2, n)
                    if want in fam:
                        # the family's own object, not an equal copy
                        assert got is by_value[want]
                        seen["member"] += 1
                    else:
                        seen["outside"] += 1
                    seen["empty"] += want.is_empty
    assert min(seen.values()) >= 20, seen


def test_cut_of_a_non_member_takes_the_kernel_and_a_wide_window_is_refused(monkeypatch):
    calls = []

    def counting_intersect(f1, f2):
        calls.append((f1, f2))
        return intersect(f1, f2)

    monkeypatch.setattr(family, "intersect", counting_intersect)
    fam = close([EpSet.of(0, 2), EpSet.progression(1, 3)])
    for f1 in fam.members:
        for f2 in fam.members:
            for n in range(12):
                fam.cut(f1, f2, n)
    assert calls == []  # members are cut on the window
    for f1, f2 in ((EpSet.of(5), EpSet.of(0, 2)),
                   (EpSet.progression(1, 3), EpSet.of(4, 6, 9))):
        for n in range(12):
            assert fam.cut(f1, f2, n) == intersect(f1, shift(f2, -n))
    assert len(calls) == 24
    # a family built unchecked past the bound refuses its first cut, whether
    # the threshold or the lcm of the periods takes it there
    for members in ([EMPTY, EpSet.of(0), EpSet.of(0, MAX_WINDOW_BITS)],
                    [EpSet.progression(0, 1025), EpSet.progression(0, 1024)]):
        wide = Family(members, check=False)
        with pytest.raises(ResourceLimit) as info:
            wide.cut(members[0], members[1], 0)
        assert info.value.details["quantity"] == "window_bits"
