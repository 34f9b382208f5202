"""The semigroup itself: product, inverses, order, Green's relations."""

import sys

import pytest

from epshift import core
from epshift.core import (Element, SemigroupCtx, ZERO, green, green_witness,
                          idempotent_leq, inverse, is_idempotent, multiply,
                          natural_leq)
from epshift.errors import (ClosureDiverged, EmptyOutsideFamily, NotIdempotent,
                            NotRelated, OutsideFamily)
from epshift.family import Family, SingletonFamily, close
from epshift.omega_sets import EMPTY, EpSet, intersect, shift

from conftest import random_epset

RAY = EpSet.ray(0)
PROG = EpSet.progression(2, 3)


def ray_ctx():
    return SemigroupCtx(close([RAY]))


def prog_ctx():
    return SemigroupCtx(close([PROG]))


# -- element construction -----------------------------------------------------

def test_element_validation():
    with pytest.raises(ValueError):
        Element(0, 0, EMPTY)
    with pytest.raises(TypeError):
        Element(0, 0, "not a set")
    assert ZERO.is_zero
    assert str(ZERO) == "0"
    assert str(Element(1, -2, RAY)) == "(1,-2;[0))"


def test_ctx_validation():
    ctx = ray_ctx()
    assert ctx.element(3, -5, RAY) == Element(3, -5, RAY)
    with pytest.raises(OutsideFamily):
        ctx.element(0, 0, EpSet.of(2))
    with pytest.raises(EmptyOutsideFamily):
        ctx.zero()
    assert prog_ctx().zero() is ZERO
    assert ctx.contains(Element(0, 0, RAY))
    assert not ctx.contains(ZERO)


# -- multiplication ------------------------------------------------------------

def test_multiply_case_split_examples():
    ctx = ray_ctx()
    # right factor starts past the left one's end
    assert ctx.mul(Element(0, 0, RAY), Element(1, 1, RAY)) == Element(1, 1, RAY)
    assert ctx.mul(Element(-3, -1, RAY), Element(2, 4, RAY)) == Element(0, 4, RAY)
    # idempotent square
    e = Element(4, 4, RAY)
    assert ctx.mul(e, e) == e


def test_multiply_zero_collapse():
    ctx = prog_ctx()
    a = Element(0, 5, PROG)
    b = Element(1, 0, PROG)
    assert ctx.mul(a, b) is ZERO
    assert ctx.mul(ZERO, a) is ZERO
    assert ctx.mul(a, ZERO) is ZERO
    assert ctx.mul(ZERO, ZERO) is ZERO


def test_multiply_free_function_and_chain():
    ctx = ray_ctx()
    a = Element(0, 0, RAY)
    assert multiply(ctx, a, a) == a
    assert ctx.mul_all(a, Element(1, 1, RAY), Element(2, 2, RAY)) \
        == Element(2, 2, RAY)


def test_zero_in_family_without_empty_raises():
    ctx = ray_ctx()
    with pytest.raises(EmptyOutsideFamily):
        ctx.mul(ZERO, Element(0, 0, RAY))


def test_corrupted_context_surfaces_empty_product():
    # a family that skipped verification and is not actually closed
    broken = Family([EpSet.of(0), EpSet.of(2)], check=False)
    ctx = SemigroupCtx(broken)
    with pytest.raises(EmptyOutsideFamily):
        ctx.mul(Element(0, 0, EpSet.of(0)), Element(0, 0, EpSet.of(2)))


def test_product_set_stays_in_family(rng):
    from epshift.errors import ClosureDiverged
    from epshift.selftest import element_drawer
    for _ in range(60):
        try:
            fam = close([random_epset(rng, max_threshold=5, max_period=4)
                         for _ in range(2)], cap=32)
        except ClosureDiverged:
            continue
        ctx = SemigroupCtx(fam)
        draw = element_drawer(rng, fam, span=10)
        for _ in range(40):
            a = draw()
            b = draw()
            c = ctx.mul(a, b)
            assert ctx.contains(c)


def reference_mul(family, a, b):
    """The three-case product formula on plain sets, with no cache."""
    if a.is_zero or b.is_zero:
        if not family.has_empty:
            raise EmptyOutsideFamily("zero factor")
        return ZERO
    if a.j < b.i:
        i, j = a.i - a.j + b.i, b.j
        f = intersect(shift(a.fset, a.j - b.i), b.fset)
    elif a.j == b.i:
        i, j = a.i, b.j
        f = intersect(a.fset, b.fset)
    else:
        i, j = a.i, a.j - b.i + b.j
        f = intersect(a.fset, shift(b.fset, b.i - a.j))
    if f.is_empty:
        if not family.has_empty:
            raise EmptyOutsideFamily("empty product set")
        return ZERO
    return Element(i, j, f)


def _outcome(mul, a, b):
    try:
        return mul(a, b)
    except EmptyOutsideFamily:
        return "raises"


def _offset_pairs(rng, sets, count, zero_prob=0.0):
    """Pairs whose shifted factor is moved by ``n`` below, at and above its
    threshold, tagged with where ``n`` fell."""
    out = []
    for _ in range(count):
        f1, f2 = rng.choice(sets), rng.choice(sets)
        left = rng.random() < 0.5  # the left factor's set gets shifted
        moved = f1 if left else f2
        n = rng.randrange(moved.threshold + 2 * moved.period + 3)
        d = -n if left else n  # d = a.j - b.i
        a = Element(rng.randint(-9, 9), rng.randint(-9, 9), f1)
        b = Element(a.j - d, rng.randint(-9, 9), f2)
        if rng.random() < zero_prob:
            a, b = rng.choice([(ZERO, b), (a, ZERO)])
        t = moved.threshold
        out.append((a, b, "below" if n < t else "at" if n == t else "above"))
    return out


def test_mul_matches_reference_formula(rng):
    families = [close([RAY]), close([PROG]), close([EpSet.of(0, 1)]),
                # not closed: products can be empty with no empty member
                Family([EpSet.of(0), EpSet.of(2)], check=False)]
    while len(families) < 12:
        try:
            families.append(close([random_epset(rng, max_threshold=5,
                                                max_period=4)
                                   for _ in range(rng.randint(1, 3))], cap=24))
        except ClosureDiverged:
            continue
    seen = {"below": 0, "at": 0, "above": 0, "collapse": 0, "raises": 0}
    for fam in families:
        pairs = _offset_pairs(rng, fam.nonempty_members, 300, zero_prob=0.05)
        want = [_outcome(lambda a, b: reference_mul(fam, a, b), a, b)
                for a, b, _ in pairs]
        cold = [_outcome(SemigroupCtx(fam).mul, a, b) for a, b, _ in pairs]
        assert cold == want
        ctx = SemigroupCtx(fam)
        for _ in range(2):  # the second pass only hits the cache
            assert [_outcome(ctx.mul, a, b) for a, b, _ in pairs] == want
        for (a, b, where), got in zip(pairs, want):
            seen[where] += 1
            if got is ZERO and not (a.is_zero or b.is_zero):
                seen["collapse"] += 1
            elif got == "raises":
                seen["raises"] += 1
    assert min(seen.values()) >= 20, seen


def test_mul_matches_reference_over_singletons(rng):
    fam = SingletonFamily()
    sets = [EpSet.of(k) for k in range(4)]
    pairs = _offset_pairs(rng, sets, 2000, zero_prob=0.05)
    want = [reference_mul(fam, a, b) for a, b, _ in pairs]
    assert [SemigroupCtx(fam).mul(a, b) for a, b, _ in pairs] == want
    ctx = SemigroupCtx(fam)
    for _ in range(2):
        assert [ctx.mul(a, b) for a, b, _ in pairs] == want
    assert sum(p is ZERO for p in want) >= 100
    assert sum(p is not ZERO for p in want) >= 100


def test_products_over_a_family_are_its_member_objects(rng):
    # a product's set is the family's own object, cold and from the cache
    families = [close([RAY]), close([EpSet.of(0, 1), EpSet.progression(1, 2)]),
                Family(close([PROG, EpSet.of(1, 4)]).members)]
    for fam in families:
        own = {id(f) for f in fam.members}
        ctx = SemigroupCtx(fam)
        pairs = _offset_pairs(rng, fam.nonempty_members, 200)
        for _ in range(2):
            products = [ctx.mul(a, b) for a, b, _ in pairs]
            assert all(id(p.fset) in own for p in products if p is not ZERO)
            assert sum(p is not ZERO for p in products) >= 20


def test_a_full_product_cache_is_cleared_and_stays_exact(rng, monkeypatch):
    monkeypatch.setattr(core, "PROD_CACHE_LIMIT", 7)
    families = [close([EpSet.of(0, 1), EpSet.progression(1, 2)]),
                Family([EpSet.of(0), EpSet.of(2)], check=False),
                SingletonFamily()]
    sets = [None, None, [EpSet.of(k) for k in range(4)]]
    for fam, members in zip(families, sets):
        pairs = _offset_pairs(rng, members or fam.nonempty_members, 200,
                              zero_prob=0.05)
        want = [_outcome(lambda a, b: reference_mul(fam, a, b), a, b)
                for a, b, _ in pairs]
        ctx = SemigroupCtx(fam)
        clears = 0
        for _ in range(2):
            for (a, b, _), expected in zip(pairs, want):
                before = len(ctx._prod_cache)
                assert _outcome(ctx.mul, a, b) == expected
                after = len(ctx._prod_cache)
                assert after <= 7
                clears += after < before
        assert clears >= 5


def test_products_are_plain_elements(rng):
    # products skip the public constructor's checks (test_element_validation)
    fam = close([EpSet.of(0, 1), EpSet.progression(1, 2)])
    ctx = SemigroupCtx(fam)
    for a, b, _ in _offset_pairs(rng, fam.nonempty_members, 300):
        for p in (ctx.mul(a, b), a.inverse()):
            if p is ZERO:
                continue
            q = Element(p.i, p.j, EpSet.from_raw(*p.fset.raw))
            assert type(p) is Element and p.fset in fam
            assert p == q and q == p and hash(p) == hash(q)
            assert str(p) == str(q)


def _python_calls(thunk):
    """Names of the Python functions ``thunk`` calls, in order."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    assert names[0] == thunk.__code__.co_name
    return names[1:]


def test_warm_product_and_shared_set_equality_call_counts():
    # the hot path of the self-test sweeps: a cached product makes no call
    # beyond the two set hashes of its cache key, and comparing triples
    # that hold the same set object needs no call to EpSet.__eq__
    f, g = EpSet.progression(1, 2), EpSet.of(0, 1, 3)
    ctx = SemigroupCtx(close([f, g]))
    for a, b in ((Element(0, 4, f), Element(2, 1, g)),  # j1 > i2
                 (Element(0, 2, g), Element(2, 1, f)),  # j1 = i2
                 (Element(0, 2, g), Element(4, 1, f))):  # j1 < i2
        want = ctx.mul(a, b)
        assert want is not ZERO
        assert _python_calls(lambda: ctx.mul(a, b)) == [
            "mul", "__hash__", "__hash__"]
        p, q = ctx.mul(a, b), ctx.mul(a, b)
        assert p.fset is q.fset and p == want
        assert _python_calls(lambda: p == q) == ["__eq__"]


def test_equality_by_value_across_distinct_objects():
    f, g = EpSet.parse("{1}|2+3*w"), EpSet.from_raw(*EpSet.parse("{1}|2+3*w").raw)
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != EpSet.progression(2, 3) and f != f.raw
    a, b = Element(1, -2, f), Element(1, -2, g)
    assert a == b and hash(a) == hash(b)
    assert a != Element(1, -2, EpSet.progression(2, 3))
    assert a != Element(0, -2, f) and a != Element(1, 2, f)
    assert a != ZERO and ZERO != a
    assert (a == object()) is False and (ZERO == object()) is False


# -- inverses and idempotents ----------------------------------------------------

def test_inverse_examples():
    assert inverse(Element(2, 5, RAY)) == Element(5, 2, RAY)
    assert inverse(ZERO) is ZERO
    e = Element(3, 3, PROG)
    assert inverse(e) == e


def test_is_idempotent():
    assert is_idempotent(Element(4, 4, EpSet.of(0)))
    assert not is_idempotent(Element(4, 5, EpSet.of(0)))
    assert is_idempotent(ZERO)


def test_inverse_axioms_randomized(rng):
    ctx = prog_ctx()
    fam = ctx.family
    from epshift.selftest import element_drawer
    draw = element_drawer(rng, fam, span=15)
    for _ in range(800):
        a = draw()
        ai = inverse(a)
        assert ctx.mul(ctx.mul(a, ai), a) == a
        assert ctx.mul(ctx.mul(ai, a), ai) == ai


# -- natural partial order --------------------------------------------------------

def test_natural_leq_examples():
    assert natural_leq(Element(1, 1, RAY), Element(0, 0, RAY))
    assert not natural_leq(Element(0, 0, RAY), Element(1, 1, RAY))
    a = Element(2, 7, PROG)
    assert natural_leq(a, a)
    assert natural_leq(ZERO, a)
    assert not natural_leq(a, ZERO)


def test_natural_leq_definitional(rng):
    from epshift.selftest import element_drawer
    ctx = prog_ctx()
    draw = element_drawer(rng, ctx.family, span=12)
    for _ in range(800):
        a = draw()
        b = draw()
        assert natural_leq(a, b) == (ctx.mul(ctx.mul(a, inverse(a)), b) == a)


def test_idempotent_leq_examples():
    assert idempotent_leq(Element(3, 3, RAY), Element(1, 1, RAY))
    assert not idempotent_leq(Element(1, 1, RAY), Element(3, 3, RAY))
    e = Element(2, 2, RAY)
    assert idempotent_leq(e, e)
    assert idempotent_leq(ZERO, e)
    assert not idempotent_leq(e, ZERO)
    with pytest.raises(NotIdempotent):
        idempotent_leq(Element(0, 1, RAY), e)
    with pytest.raises(NotIdempotent):
        idempotent_leq(e, Element(0, 1, RAY))


def test_idempotent_leq_agrees_with_natural(rng):
    for _ in range(500):
        f1 = random_epset(rng, max_threshold=5, max_period=4)
        f2 = random_epset(rng, max_threshold=5, max_period=4)
        if f1.is_empty or f2.is_empty:
            continue
        e = Element(rng.randint(-8, 8), 0, f1)
        e = Element(e.i, e.i, f1)
        f = Element(rng.randint(-8, 8), 0, f2)
        f = Element(f.i, f.i, f2)
        assert idempotent_leq(e, f) == natural_leq(e, f)


# -- Green's relations ---------------------------------------------------------------

def test_green_criteria_examples():
    f = EpSet.of(2)
    assert green(Element(0, 3, f), Element(0, 7, f), "R")
    assert not green(Element(0, 3, f), Element(1, 3, f), "R")
    assert green(Element(0, 3, f), Element(5, 3, f), "L")
    assert green(Element(0, 3, f), Element(5, 8, f), "D")
    assert not green(Element(0, 3, f), Element(5, 8, f), "H")
    assert green(Element(0, 0, EpSet.ray(1)), Element(0, 0, EpSet.ray(5)), "J")
    assert not green(Element(0, 0, EpSet.of(0, 1)), Element(0, 0, EpSet.of(0)),
                     "J")
    # the zero is related only to itself
    for rel in ("R", "L", "H", "D", "J"):
        assert green(ZERO, ZERO, rel)
        assert not green(ZERO, Element(0, 0, f), rel)
    with pytest.raises(ValueError):
        green(ZERO, ZERO, "X")


def test_green_h_is_equality(rng):
    from epshift.selftest import element_drawer
    draw = element_drawer(rng, close([EpSet.of(0, 1)]), span=6)
    for _ in range(500):
        a = draw()
        b = draw()
        assert green(a, b, "H") == (a == b)


def test_green_witness_r_example():
    f = EpSet.of(2)
    a, b = Element(0, 3, f), Element(0, 7, f)
    x, y = green_witness(a, b, "R")
    assert (x, y) == (Element(3, 7, f), Element(7, 3, f))
    ctx = SemigroupCtx(close([f]))
    assert ctx.mul(a, x) == b and ctx.mul(b, y) == a


def test_green_witness_l_and_d():
    f = EpSet.ray(2)
    ctx = SemigroupCtx(close([f]))
    a, b = Element(1, 5, f), Element(-3, 5, f)
    x, y = green_witness(a, b, "L")
    assert ctx.mul(x, a) == b and ctx.mul(y, b) == a
    a, b = Element(1, 5, f), Element(-3, 9, f)
    c, cinv = green_witness(a, b, "D")
    assert ctx.mul(c, cinv) == ctx.mul(a, inverse(a))
    assert ctx.mul(cinv, c) == ctx.mul(inverse(b), b)
    # the trivial self-witness is the right idempotent
    x, _ = green_witness(a, a, "R")
    assert x == ctx.mul(inverse(a), a)


def test_green_witness_errors():
    f = EpSet.of(2)
    with pytest.raises(NotRelated):
        green_witness(Element(0, 3, f), Element(1, 3, f), "R")
    with pytest.raises(ValueError):
        green_witness(Element(0, 3, f), Element(0, 3, f), "J")
    assert green_witness(ZERO, ZERO, "D") == (ZERO, ZERO)


def test_idempotents_commute_randomized(rng):
    fam = close([EpSet.of(0, 1)])
    ctx = SemigroupCtx(fam)
    sets = fam.nonempty_members
    for _ in range(600):
        e = Element(rng.randint(-10, 10), 0, rng.choice(sets))
        e = Element(e.i, e.i, e.fset)
        f = Element(rng.randint(-10, 10), 0, rng.choice(sets))
        f = Element(f.i, f.i, f.fset)
        assert ctx.mul(e, f) == ctx.mul(f, e)
