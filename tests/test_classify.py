"""Structure reports: golden families and cross-validation."""

import pytest

from epshift.classify import (ISO_EXTENDED_BICYCLIC, ISO_GENERAL,
                              ISO_MATRIX_UNITS, ISO_PROGRESSION, ISO_TRIVIAL,
                              classify, d_class_count)
from epshift.core import Element, SemigroupCtx, ZERO, green, natural_leq
from epshift.family import Family, SingletonFamily, close
from epshift.omega_sets import EMPTY, EpSet


def ctx_of(*sets, closure=True):
    fam = close(sets) if closure else Family(sets)
    return SemigroupCtx(fam)


def test_extended_bicyclic_family():
    for k in (0, 2, 5):
        r = classify(ctx_of(EpSet.ray(k)))
        assert r.iso_type == ISO_EXTENDED_BICYCLIC
        assert r.bisimple and r.simple and r.e_unitary
        assert not r.has_zero and not r.has_identity
        assert r.contains_extended_bicyclic
        assert r.d_classes == 1


def test_matrix_units_family():
    for k in (0, 3, 7):
        r = classify(ctx_of(EpSet.of(k)))
        assert r.iso_type == ISO_MATRIX_UNITS and r.iso_params == (k,)
        assert r.zero_bisimple and r.zero_simple and r.has_zero
        assert not r.simple and not r.bisimple and not r.e_unitary
        assert r.d_classes == 1


def test_progression_family():
    r = classify(ctx_of(EpSet.progression(2, 3)))
    assert r.iso_type == ISO_PROGRESSION and r.iso_params == (2, 3)
    assert r.zero_bisimple and r.zero_simple
    # step one: the nonzero part is the pair semigroup with a zero attached
    r = classify(SemigroupCtx(Family([EMPTY, EpSet.ray(3)])))
    assert r.iso_type == ISO_PROGRESSION and r.iso_params == (3, 1)
    assert r.contains_extended_bicyclic


def test_trivial_family():
    r = classify(SemigroupCtx(Family([EMPTY])))
    assert r.iso_type == ISO_TRIVIAL
    assert r.has_zero and r.has_identity and r.bisimple
    assert r.e_unitary  # one-element semigroup, vacuously
    assert not r.zero_simple and not r.simple
    assert r.d_classes == 0


def test_general_family_with_two_nonzero_classes():
    ctx = ctx_of(EpSet.of(0, 1))
    r = classify(ctx)
    assert r.iso_type == ISO_GENERAL
    assert r.has_zero and not r.zero_bisimple
    # {0,1} can never shift inside the singleton {0}
    assert not r.zero_simple
    assert r.d_classes == d_class_count(ctx) == 2
    assert "zero_simple" in r.witnesses


def test_ray_interval_family_is_zero_simple():
    r = classify(SemigroupCtx(Family([EMPTY, EpSet.ray(0), EpSet.ray(1)])))
    assert r.zero_simple and not r.zero_bisimple
    assert r.iso_type == ISO_GENERAL
    assert r.contains_extended_bicyclic
    assert r.d_classes == 2


def test_no_zero_interval_family_is_simple():
    r = classify(SemigroupCtx(Family([EpSet.ray(0), EpSet.ray(1)])))
    assert r.simple and not r.bisimple and r.e_unitary
    assert not r.has_zero


def test_witnesses_are_validated():
    ctx = ctx_of(EpSet.progression(2, 3))
    r = classify(ctx)
    # E-unitarity fails through the zero below a non-idempotent
    e, s = r.witnesses["e_unitary"]
    assert e is ZERO and natural_leq(e, s) and s.i != s.j
    # no identity: the recorded product moves the probe
    e, x, prod = r.witnesses["has_identity"]
    assert ctx.mul(e, x) == prod and prod != x


def test_simple_agrees_with_green_j():
    for sets in ([EpSet.ray(0)], [EpSet.of(0, 1)], [EpSet.progression(1, 2)],
                 [EpSet.of(2), EpSet.of(0, 3)]):
        ctx = ctx_of(*sets)
        r = classify(ctx)
        reps = [Element(0, 0, f) for f in ctx.family.nonempty_members]
        every = all(green(x, y, "J") for x in reps for y in reps)
        if r.has_zero:
            assert r.zero_simple == (bool(reps) and every)
        else:
            assert r.simple == every


def test_report_as_dict_round_trips_to_json():
    import json
    r = classify(ctx_of(EpSet.progression(2, 3)))
    d = r.as_dict()
    assert d["iso_type"] == "ZeroBisimpleProgression"
    assert (d["i0"], d["j0"]) == (2, 3)
    json.dumps(d)  # everything JSON-serializable
    r = classify(ctx_of(EpSet.of(4)))
    assert r.as_dict()["k"] == 4


def test_classify_requires_finite_family():
    from epshift.selftest import _free_ctx

    for ctx in (SemigroupCtx(SingletonFamily()), _free_ctx()):
        with pytest.raises(TypeError, match="needs a finite family"):
            classify(ctx)
        with pytest.raises(TypeError, match="needs a finite family"):
            d_class_count(ctx)


class _TupleFamily:
    """The least a finite family offers classification: no ``Family``."""

    def __init__(self, fam):
        self.has_empty = fam.has_empty
        self.members = fam.members
        self.nonempty_members = fam.nonempty_members
        self._members = set(fam.members)

    def __contains__(self, f):
        return f in self._members


@pytest.mark.parametrize("gens", [
    (EpSet.ray(2),), (EpSet.of(3),), (EpSet.progression(2, 3),),
    (EpSet.of(0, 1),), (EMPTY,), (EpSet.ray(0), EpSet.of(0, 2)),
])
def test_classify_takes_any_family_with_members(gens):
    fam = close(gens)
    duck = SemigroupCtx(_TupleFamily(fam))
    assert classify(duck) == classify(SemigroupCtx(fam))
    assert d_class_count(duck) == len(fam.nonempty_members)


def test_report_is_cached_on_context():
    ctx = ctx_of(EpSet.ray(1))
    assert classify(ctx) is classify(ctx)
