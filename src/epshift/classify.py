"""Structural classification of the semigroup from its family.

Everything is decided on the family alone: the zero exists iff the empty
set is a member, D-classes of nonzero elements correspond to nonempty
members, and (0-)simplicity reduces to mutual shift-containment between
members.  The isomorphism type is resolved in a fixed priority order, with
witnesses recorded for every negative verdict.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Tuple

from .core import (ISO_EXTENDED_BICYCLIC, ISO_GENERAL, ISO_MATRIX_UNITS,
                   ISO_PROGRESSION, ISO_TRIVIAL, Element, SemigroupCtx, ZERO)
from .omega_sets import (as_arith_progression, as_singleton, exists_shift_subset,
                         is_inductive)
from .values import Frozen


class StructureReport(Frozen):
    """The verdicts of :func:`classify`, with a witness for each negative one.

    ``witnesses`` defaults to a new empty dict per report.
    """

    __slots__ = ("has_zero", "has_identity", "simple", "zero_simple",
                 "bisimple", "zero_bisimple", "e_unitary", "iso_type",
                 "iso_params", "contains_extended_bicyclic", "d_classes",
                 "witnesses")

    def __init__(self, has_zero: bool, has_identity: bool, simple: bool,
                 zero_simple: bool, bisimple: bool, zero_bisimple: bool,
                 e_unitary: bool, iso_type: str, iso_params: Tuple[int, ...],
                 contains_extended_bicyclic: bool, d_classes: int,
                 witnesses: Optional[Dict[str, tuple]] = None):
        if witnesses is None:
            witnesses = {}
        values = locals()
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def as_dict(self) -> dict:
        out = {
            "has_zero": self.has_zero,
            "has_identity": self.has_identity,
            "simple": self.simple,
            "zero_simple": self.zero_simple,
            "bisimple": self.bisimple,
            "zero_bisimple": self.zero_bisimple,
            "e_unitary": self.e_unitary,
            "iso_type": self.iso_type,
            "contains_extended_bicyclic": self.contains_extended_bicyclic,
            "d_classes": self.d_classes,
            "witnesses": {k: [str(x) for x in v]
                          for k, v in sorted(self.witnesses.items())},
        }
        if self.iso_type == ISO_PROGRESSION:
            out["i0"], out["j0"] = self.iso_params
        elif self.iso_type == ISO_MATRIX_UNITS:
            out["k"] = self.iso_params[0]
        return out


def _mutual_witness(members) -> Optional[tuple]:
    """A pair failing mutual shift-containment, or ``None``."""
    for f1, f2 in combinations(members, 2):
        if (exists_shift_subset(f1, f2) is None
                or exists_shift_subset(f2, f1) is None):
            return (f1, f2)
    return None


def d_class_count(ctx: SemigroupCtx) -> int:
    """Number of nonzero D-classes: one per nonempty member.

    The zero, when present, forms its own extra class and is reported via
    ``has_zero``.
    """
    return len(_finite_members(ctx)[1])


def _finite_members(ctx: SemigroupCtx):
    """The family's ``members`` and ``nonempty_members``, which only a
    finite family offers."""
    fam = ctx.family
    try:
        return fam.members, fam.nonempty_members
    except AttributeError:
        raise TypeError("classification needs a finite family") from None


def classify(ctx: SemigroupCtx) -> StructureReport:
    """Full structural report; cached on the context."""
    if ctx._report is not None:
        return ctx._report

    members, nonempty = _finite_members(ctx)
    has_zero = ctx.family.has_empty
    has_identity = has_zero and len(members) == 1
    witnesses: Dict[str, tuple] = {}

    mutual_fail = _mutual_witness(nonempty)

    simple = not has_zero and mutual_fail is None
    if not simple:
        if has_zero:
            witnesses["simple"] = ("0",)
        elif mutual_fail is not None:
            witnesses["simple"] = mutual_fail

    zero_simple = has_zero and bool(nonempty) and mutual_fail is None
    if not zero_simple:
        if not has_zero:
            witnesses["zero_simple"] = ("no zero",)
        elif not nonempty:
            witnesses["zero_simple"] = ("no nonzero elements",)
        else:
            witnesses["zero_simple"] = mutual_fail

    bisimple = len(members) == 1
    if not bisimple:
        witnesses["bisimple"] = (members[0], members[1])

    zero_bisimple = has_zero and len(members) == 2
    if not zero_bisimple:
        witnesses["zero_bisimple"] = tuple(members[:3]) if has_zero else ("no zero",)

    # the trivial one-element semigroup is vacuously E-unitary
    e_unitary = not has_zero or has_identity
    if not e_unitary:
        witnesses["e_unitary"] = (ZERO, Element(0, 1, nonempty[0]))

    if not has_identity and nonempty:
        f = nonempty[0]
        e = Element(0, 0, f)
        x = Element(-1, -1, f)
        witnesses["has_identity"] = (e, x, ctx.mul(e, x))

    contains_ext = any(is_inductive(f) for f in nonempty)

    iso_type = ISO_GENERAL
    iso_params: Tuple[int, ...] = ()
    if has_identity:
        iso_type = ISO_TRIVIAL
    elif bisimple and is_inductive(members[0]):
        iso_type = ISO_EXTENDED_BICYCLIC
    elif zero_bisimple:
        f = nonempty[0]
        k = as_singleton(f)
        if k is not None:
            iso_type = ISO_MATRIX_UNITS
            iso_params = (k,)
        else:
            prog = as_arith_progression(f)
            if prog is not None:
                iso_type = ISO_PROGRESSION
                iso_params = prog

    report = StructureReport(
        has_zero=has_zero,
        has_identity=has_identity,
        simple=simple,
        zero_simple=zero_simple,
        bisimple=bisimple,
        zero_bisimple=zero_bisimple,
        e_unitary=e_unitary,
        iso_type=iso_type,
        iso_params=iso_params,
        contains_extended_bicyclic=contains_ext,
        d_classes=len(nonempty),
        witnesses=witnesses,
    )
    ctx._report = report
    return report
