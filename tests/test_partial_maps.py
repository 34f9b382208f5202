"""Partial shifts and the pointwise composition oracle."""

import random

import pytest

from epshift.core import Element
from epshift.omega_sets import EMPTY, EpSet
from epshift.partial_maps import (PartialShift, WindowFn, compose_shifts,
                                  eval_window, restricted_compose_dom,
                                  restricted_compose_dom_closed)
from epshift.selftest import _free_ctx

from conftest import random_epset


def test_partial_shift_basics():
    a = PartialShift(2, -1)
    assert a.defined_at(2) and not a.defined_at(1)
    assert a.apply(5) == 2
    with pytest.raises(ValueError):
        a.apply(1)
    assert a.inverse() == PartialShift(-1, 2)


def test_compose_shifts_examples():
    assert compose_shifts(PartialShift(0, 0), PartialShift(0, 0)) \
        == PartialShift(0, 0)
    assert compose_shifts(PartialShift(0, 1), PartialShift(1, 0)) \
        == PartialShift(0, 0)
    assert compose_shifts(PartialShift(0, 1), PartialShift(0, 1)) \
        == PartialShift(0, 2)
    # derived pointwise: the identity on [1) leaves the left factor alone
    assert compose_shifts(PartialShift(5, 2), PartialShift(1, 1)) \
        == PartialShift(5, 2)


def test_compose_shifts_is_pointwise_composition(rng):
    width = 64
    for _ in range(400):
        a = PartialShift(rng.randint(-12, 12), rng.randint(-12, 12))
        b = PartialShift(rng.randint(-12, 12), rng.randint(-12, 12))
        c = compose_shifts(a, b)
        for n in range(-20, 20):
            via_pointwise = None
            if n >= a.i and (n - a.i + a.j) >= b.i:
                via_pointwise = n - a.i + a.j - b.i + b.j
            via_formula = (n - c.i + c.j) if n >= c.i else None
            assert via_pointwise == via_formula, (a, b, n)


def test_eval_window_examples():
    assert eval_window(PartialShift(0, 0), 2).graph() == (
        (0, 0), (1, 1), (2, 2))
    assert eval_window(PartialShift(1, 0), 2).graph() == ((1, 0), (2, 1))
    assert eval_window(PartialShift(0, 0), 3,
                       dom_restrict={0, 2}).graph() == ((0, 0), (2, 2))
    assert eval_window(PartialShift(0, 5), 2).graph() == ()
    with pytest.raises(ValueError):
        eval_window(PartialShift(0, 0), 0)


def test_window_fn_injective_and_compose():
    with pytest.raises(ValueError):
        WindowFn({0: 1, 2: 1})
    f = WindowFn({0: 1, 1: 2})
    g = WindowFn({1: 5, 2: 7})
    assert f.compose(g).graph() == ((0, 5), (1, 7))
    assert f.dom == {0, 1} and f.ran == {1, 2}
    assert f.get(0) == 1 and f.get(9) is None
    assert len(f) == 2


def test_restricted_compose_dom_same_index_case():
    # matching endpoints with equal sets: the domain is the translated set
    f = EpSet.of(0, 2, 5)
    a, b = PartialShift(3, 4), PartialShift(4, 0)
    dom = restricted_compose_dom(a, f, b, f, 64)
    assert dom == frozenset(3 + m for m in (0, 2, 5))


def test_restricted_compose_dom_empty_restriction():
    a, b = PartialShift(0, 3), PartialShift(1, 1)
    assert restricted_compose_dom(a, EMPTY, b, EpSet.of(1, 4), 64) == frozenset()


def test_restricted_compose_dom_concrete_case():
    a, b = PartialShift(0, 3), PartialShift(1, 1)
    f1, f2 = EpSet.of(0, 2), EpSet.of(1, 4)
    dom = restricted_compose_dom(a, f1, b, f2, 64)
    base, s = restricted_compose_dom_closed(a, f1, b, f2)
    assert dom == frozenset({2})
    assert (base, s) == (0, EpSet.of(2))


def test_closed_form_matches_pointwise(rng):
    width = 128
    for _ in range(400):
        a = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        b = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        f1 = random_epset(rng, max_threshold=8, max_period=6)
        f2 = random_epset(rng, max_threshold=8, max_period=6)
        dom = restricted_compose_dom(a, f1, b, f2, width)
        base, s = restricted_compose_dom_closed(a, f1, b, f2)
        expect = frozenset(base + m for m in s.members(width - base + 1)
                           if -width <= base + m <= width)
        assert dom == expect, (a, b, f1, f2)


def test_closed_form_matches_triple_product(rng):
    # the product's set, translated by its first index, is the composite domain
    ctx = _free_ctx()
    width = 128
    for _ in range(400):
        a = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        b = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        f1 = random_epset(rng, max_threshold=8, max_period=6)
        f2 = random_epset(rng, max_threshold=8, max_period=6)
        if f1.is_empty or f2.is_empty:
            continue
        prod = ctx.mul(Element(a.i, a.j, f1), Element(b.i, b.j, f2))
        dom = restricted_compose_dom(a, f1, b, f2, width)
        if prod.is_zero:
            assert dom == frozenset()
            continue
        comp = compose_shifts(a, b)
        assert (prod.i, prod.j) == (comp.i, comp.j)
        expect = frozenset(prod.i + m
                           for m in prod.fset.members(width - prod.i + 1)
                           if -width <= prod.i + m <= width)
        assert dom == expect


def in_based_compose_dom(a, f1, b, f2, width):
    """The pointwise domain read literally, one ``in`` query per point."""
    return frozenset(n for n in range(-width, width + 1)
                     if (n - a.i) in f1 and (n - a.i + a.j - b.i) in f2)


def test_compose_dom_equals_the_membership_queries():
    # offsets past the window on either side, empty sets and widths down to 1
    rng = random.Random(0x0DA1)
    seen = {"empty_set": 0, "empty_dom": 0, "nonempty_dom": 0,
            "a_outside": 0}
    for _ in range(1500):
        width = rng.choice((1, 2, 5, 17, 64))
        a = PartialShift(rng.randint(-70, 70), rng.randint(-70, 70))
        b = PartialShift(rng.randint(-70, 70), rng.randint(-70, 70))
        f1, f2 = (EMPTY if rng.random() < 0.1
                  else random_epset(rng, max_threshold=10, max_period=6)
                  for _ in range(2))
        want = in_based_compose_dom(a, f1, b, f2, width)
        assert restricted_compose_dom(a, f1, b, f2, width) == want, \
            (a, f1, b, f2, width)
        seen["empty_set"] += f1.is_empty or f2.is_empty
        seen["empty_dom" if not want else "nonempty_dom"] += 1
        seen["a_outside"] += abs(a.i) > width
    assert min(seen.values()) >= 100, seen
