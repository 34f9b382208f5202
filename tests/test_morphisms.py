"""Named maps onto the reference semigroups."""

import pytest

from epshift.core import Element, SemigroupCtx, ZERO
from epshift.errors import (NotSingletonSet, WrongIsoType, WrongProgression,
                            ZeroInFamily)
from epshift.family import Family, close
from epshift.morphisms import (BRANDT_ZERO, BrandtElt, ExtBicyclicElt,
                               MATRIX_ZERO, MatrixUnitElt, brandt_mul,
                               ext_bicyclic_mul, int_to_nat, matrix_unit_mul,
                               partial_shift_iso,
                               progression_reindex, sigma_hom, singleton_ctx,
                               to_brandt, to_ext_bicyclic, to_matrix_units,
                               to_matrix_units_nat)
from epshift.omega_sets import EMPTY, EpSet
from epshift.partial_maps import PartialShift, compose_shifts

RAY = EpSet.ray(0)


def test_ext_bicyclic_mul_examples():
    assert ext_bicyclic_mul(ExtBicyclicElt(0, 1), ExtBicyclicElt(1, 0)) \
        == ExtBicyclicElt(0, 0)
    assert ext_bicyclic_mul(ExtBicyclicElt(0, 0), ExtBicyclicElt(2, 3)) \
        == ExtBicyclicElt(2, 3)
    # right factor acts as the identity on [1): left factor unchanged
    assert ext_bicyclic_mul(ExtBicyclicElt(5, 2), ExtBicyclicElt(1, 1)) \
        == ExtBicyclicElt(5, 2)


def test_matrix_unit_mul():
    assert matrix_unit_mul(MatrixUnitElt(0, 1), MatrixUnitElt(1, 5)) \
        == MatrixUnitElt(0, 5)
    assert matrix_unit_mul(MatrixUnitElt(0, 1), MatrixUnitElt(2, 0)) \
        is MATRIX_ZERO
    assert matrix_unit_mul(MATRIX_ZERO, MatrixUnitElt(0, 0)) is MATRIX_ZERO


def test_brandt_mul():
    assert brandt_mul(BrandtElt(0, 3, 2), BrandtElt(2, 5, 1)) \
        == BrandtElt(0, 3, 1)
    assert brandt_mul(BrandtElt(0, 3, 2), BrandtElt(1, 5, 1)) is BRANDT_ZERO
    assert brandt_mul(BRANDT_ZERO, BrandtElt(0, 0, 0)) is BRANDT_ZERO
    with pytest.raises(ValueError):
        BrandtElt(0, -1, 0)


def test_sigma_hom():
    ctx = SemigroupCtx(close([RAY]))
    assert sigma_hom(Element(2, 5, RAY), ctx) == -3
    assert sigma_hom(Element(4, 4, RAY)) == 0
    with pytest.raises(ZeroInFamily):
        sigma_hom(ZERO)
    with pytest.raises(ZeroInFamily):
        sigma_hom(Element(0, 0, EpSet.of(3)),
                  SemigroupCtx(close([EpSet.of(3)])))


def test_sigma_classes(rng):
    ctx = SemigroupCtx(close([RAY]))
    for _ in range(300):
        a = Element(rng.randint(-15, 15), rng.randint(-15, 15), RAY)
        b = Element(rng.randint(-15, 15), rng.randint(-15, 15), RAY)
        same = sigma_hom(a) == sigma_hom(b)
        m = max(a.i, b.i)
        e = Element(m, m, RAY)
        assert same == (ctx.mul(e, a) == ctx.mul(e, b))


def test_to_ext_bicyclic():
    ctx = SemigroupCtx(close([RAY]))
    assert to_ext_bicyclic(ctx, Element(3, -2, RAY)) == ExtBicyclicElt(3, -2)
    bad = SemigroupCtx(close([EpSet.of(3)]))
    with pytest.raises(WrongIsoType):
        to_ext_bicyclic(bad, Element(0, 0, EpSet.of(3)))


def test_to_matrix_units():
    fset = EpSet.of(3)
    ctx = SemigroupCtx(close([fset]))
    assert to_matrix_units(ctx, Element(0, 1, fset)) == MatrixUnitElt(0, 1)
    assert to_matrix_units(ctx, ZERO) is MATRIX_ZERO
    a, b = Element(0, 1, fset), Element(2, 0, fset)
    assert matrix_unit_mul(to_matrix_units(ctx, a), to_matrix_units(ctx, b)) \
        is MATRIX_ZERO
    assert ctx.mul(a, b) is ZERO
    with pytest.raises(WrongIsoType) as exc:
        to_matrix_units(SemigroupCtx(close([RAY])), Element(0, 0, RAY))
    # the family in the grammar's notation, with single braces
    assert str(exc.value) == "family is not family{ {}; {k} }"


def test_zigzag_bijection():
    # [-k, k) goes one to one onto the first 2k naturals
    for k in (1, 2, 50):
        assert {int_to_nat(n) for n in range(-k, k)} == set(range(2 * k))


def test_to_matrix_units_nat_is_still_a_homomorphism(rng):
    fset = EpSet.of(2)
    ctx = SemigroupCtx(close([fset]))
    for _ in range(300):
        a = Element(rng.randint(-9, 9), rng.randint(-9, 9), fset)
        b = Element(rng.randint(-9, 9), rng.randint(-9, 9), fset)
        assert to_matrix_units_nat(ctx, ctx.mul(a, b)) == matrix_unit_mul(
            to_matrix_units_nat(ctx, a), to_matrix_units_nat(ctx, b))


def test_to_brandt_examples():
    assert to_brandt(Element(0, 0, EpSet.of(5))) == BrandtElt(5, 5, 5)
    assert to_brandt(Element(-2, 3, EpSet.of(4))) == BrandtElt(2, 4, 7)
    assert to_brandt(ZERO) is BRANDT_ZERO
    with pytest.raises(NotSingletonSet):
        to_brandt(Element(0, 0, EpSet.of(1, 2)))


def test_to_brandt_bijective(rng):
    # explicit preimages witness surjectivity; distinct triples stay distinct
    seen = {}
    for _ in range(400):
        left, mid = rng.randint(-10, 10), rng.randint(0, 8)
        right = rng.randint(-10, 10)
        pre = Element(left - mid, right - mid, EpSet.of(mid))
        img = to_brandt(pre)
        assert img == BrandtElt(left, mid, right)
        assert seen.setdefault(img, pre) == pre
    ctx = singleton_ctx()
    assert ctx.contains(Element(0, 0, EpSet.of(4)))


def test_to_brandt_homomorphism_all_cases(rng):
    ctx = singleton_ctx()
    cases = set()
    for _ in range(2000):
        k1, k2 = rng.randint(0, 6), rng.randint(0, 6)
        a = Element(rng.randint(-8, 8), rng.randint(-8, 8), EpSet.of(k1))
        b = Element(rng.randint(-8, 8), rng.randint(-8, 8), EpSet.of(k2))
        if rng.random() < 0.5:
            b = Element(a.j + k1 - k2, b.j, EpSet.of(k2))
        lhs = to_brandt(ctx.mul(a, b))
        rhs = brandt_mul(to_brandt(a), to_brandt(b))
        assert lhs == rhs, (a, b)
        sign = (a.j > b.i) - (a.j < b.i)
        cases.add((sign, a.j + k1 == b.i + k2))
    assert len(cases) == 6


def test_singleton_family_semigroup_is_associative(rng):
    ctx = singleton_ctx()
    for _ in range(600):
        def rnd():
            if rng.random() < 0.05:
                return ZERO
            return Element(rng.randint(-10, 10), rng.randint(-10, 10),
                           EpSet.of(rng.randint(0, 8)))
        a, b, c = rnd(), rnd(), rnd()
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_progression_reindex():
    prog = EpSet.progression(2, 3)
    assert progression_reindex(Element(0, 1, prog), 2, 0, 3) \
        == Element(0, 1, EpSet.progression(0, 3))
    assert progression_reindex(ZERO, 2, 0, 3) is ZERO
    with pytest.raises(WrongProgression):
        progression_reindex(Element(0, 1, prog), 1, 0, 3)


def test_progression_reindex_homomorphism(rng):
    c1 = SemigroupCtx(Family([EMPTY, EpSet.progression(4, 2)]))
    c2 = SemigroupCtx(Family([EMPTY, EpSet.progression(1, 2)]))
    prog = EpSet.progression(4, 2)
    for _ in range(400):
        a = Element(rng.randint(-10, 10), rng.randint(-10, 10), prog)
        b = Element(rng.randint(-10, 10), rng.randint(-10, 10), prog)
        fa = progression_reindex(a, 4, 1, 2)
        fb = progression_reindex(b, 4, 1, 2)
        assert progression_reindex(c1.mul(a, b), 4, 1, 2) == c2.mul(fa, fb)


def test_partial_shift_iso():
    assert partial_shift_iso(PartialShift(0, 0)) == ExtBicyclicElt(0, 0)
    assert partial_shift_iso(PartialShift(2, -1)) == ExtBicyclicElt(2, -1)


def test_partial_shift_iso_commuting_square(rng):
    for _ in range(400):
        a = PartialShift(rng.randint(-12, 12), rng.randint(-12, 12))
        b = PartialShift(rng.randint(-12, 12), rng.randint(-12, 12))
        assert partial_shift_iso(compose_shifts(a, b)) == ext_bicyclic_mul(
            partial_shift_iso(a), partial_shift_iso(b))


def test_sigma_is_a_congruence(rng):
    ctx = SemigroupCtx(close([RAY]))
    for _ in range(300):
        a = Element(rng.randint(-10, 10), rng.randint(-10, 10), RAY)
        b = Element(rng.randint(-10, 10), rng.randint(-10, 10), RAY)
        c = Element(rng.randint(-10, 10), rng.randint(-10, 10), RAY)
        if sigma_hom(a) == sigma_hom(b):
            assert sigma_hom(ctx.mul(c, a)) == sigma_hom(ctx.mul(c, b))
            assert sigma_hom(ctx.mul(a, c)) == sigma_hom(ctx.mul(b, c))
