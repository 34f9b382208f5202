"""The value types: equality, hashing, repr, immutability and pickling."""

import copy
import pickle

import pytest

from epshift.classify import StructureReport, classify
from epshift.core import SemigroupCtx
from epshift.family import close
from epshift.morphisms import BrandtElt, ExtBicyclicElt, MatrixUnitElt
from epshift.omega_sets import EMPTY
from epshift.partial_maps import PartialShift
from epshift.selftest import SuiteOptions, SuiteResult


def trivial_report():
    return classify(SemigroupCtx(close([EMPTY])))


# each frozen type's constructor, arguments and repr
FROZEN = [
    (ExtBicyclicElt, (1, -2), "ExtBicyclicElt(i=1, j=-2)"),
    (MatrixUnitElt, (3, 4), "MatrixUnitElt(row=3, col=4)"),
    (BrandtElt, (-1, 0, 5), "BrandtElt(left=-1, mid=0, right=5)"),
    (PartialShift, (2, 7), "PartialShift(i=2, j=7)"),
]

TRIVIAL_REPR = (
    "StructureReport(has_zero=True, has_identity=True, simple=False, "
    "zero_simple=False, bisimple=True, zero_bisimple=False, e_unitary=True, "
    "iso_type='Trivial', iso_params=(), contains_extended_bicyclic=False, "
    "d_classes=0, witnesses={'simple': ('0',), 'zero_simple': "
    "('no nonzero elements',), 'zero_bisimple': (EpSet.parse('{}'),)})")


@pytest.mark.parametrize("cls,args,text", FROZEN)
def test_frozen_values(cls, args, text):
    x, y = cls(*args), cls(*args)
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != cls(*args[:-1], args[-1] + 1)
    assert repr(x) == text
    field = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(x, field, 9)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.other = 9
    assert getattr(x, field) == args[0]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is cls and back == x
    assert copy.copy(x) == x and copy.deepcopy(x) == x


def test_same_fields_in_two_classes_are_unequal():
    assert ExtBicyclicElt(1, 2) != PartialShift(1, 2)
    assert PartialShift(1, 2) != ExtBicyclicElt(1, 2)
    assert MatrixUnitElt(1, 2) != ExtBicyclicElt(1, 2)
    assert ExtBicyclicElt(1, 2) != (1, 2)
    assert len({ExtBicyclicElt(1, 2), PartialShift(1, 2)}) == 2


def test_match_by_position():
    match BrandtElt(1, 2, 3):
        case BrandtElt(left, mid, right):
            assert (left, mid, right) == (1, 2, 3)
        case _:
            raise AssertionError("no match")


def test_structure_report():
    r = trivial_report()
    assert repr(r) == TRIVIAL_REPR
    assert r == trivial_report() and r is not trivial_report()
    with pytest.raises(TypeError):
        hash(r)  # the witnesses are a dict
    with pytest.raises(AttributeError):
        r.simple = True
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert back == r and back.witnesses is not r.witnesses
    assert copy.copy(r).witnesses is r.witnesses
    # positional fields in declaration order, as the keywords classify uses
    values = [getattr(r, name) for name in StructureReport.__match_args__]
    assert StructureReport(*values) == r
    a = StructureReport(*values[:-1])
    b = StructureReport(*values[:-1])
    assert a.witnesses == {} and a.witnesses is not b.witnesses


def test_suite_records_stay_mutable():
    assert repr(SuiteOptions()) == "SuiteOptions(samples=10000, seed=7)"
    assert SuiteOptions(samples=5, seed=3) == SuiteOptions(5, 3)
    res = SuiteResult("x", 1, 2, 3, "bad")
    assert repr(res) == ("SuiteResult(name='x', seed=1, checks=2, failures=3, "
                         "first_failure='bad')")
    assert res == SuiteResult("x", 1, 2, 3, "bad")
    with pytest.raises(TypeError):
        hash(res)
    back = pickle.loads(pickle.dumps(res))
    res.checks += 1
    assert back.checks == 2 and res.checks == 3 and back != res
