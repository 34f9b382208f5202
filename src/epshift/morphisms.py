"""Named homomorphisms and the reference semigroups they target.

Three reference structures live here: integer pairs under the min-based
bicyclic product, matrix units, and the Brandt extension of the min
semilattice on the naturals.  The maps onto them are exact and, where the
structure theory says so, bijective.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from .core import (ISO_EXTENDED_BICYCLIC, ISO_MATRIX_UNITS, Element,
                   SemigroupCtx, ZERO)
from .errors import NotSingletonSet, WrongIsoType, WrongProgression, ZeroInFamily
from .family import SingletonFamily
from .omega_sets import EpSet, as_singleton
from .values import Frozen

if TYPE_CHECKING:  # an annotation only: the maps never load the oracle
    from .partial_maps import PartialShift


class ExtBicyclicElt(Frozen):
    """Integer pair under the min-based product."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


def ext_bicyclic_mul(a: ExtBicyclicElt, b: ExtBicyclicElt) -> ExtBicyclicElt:
    m = min(a.j, b.i)
    return ExtBicyclicElt(a.i + b.i - m, a.j + b.j - m)


class _AbsorbingZero:
    """Shared shape of the zeros of the reference semigroups."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    is_zero = True

    def __str__(self) -> str:
        return "0"

    def __repr__(self) -> str:
        return self._label


MATRIX_ZERO = _AbsorbingZero("MATRIX_ZERO")
BRANDT_ZERO = _AbsorbingZero("BRANDT_ZERO")


class MatrixUnitElt(Frozen):
    """Nonzero matrix unit ``(row, col)``; ``(a,b)(c,d) = (a,d)`` iff ``b == c``."""

    __slots__ = ("row", "col")

    is_zero = False

    def __init__(self, row: int, col: int):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


def matrix_unit_mul(x, y):
    if x is MATRIX_ZERO or y is MATRIX_ZERO:
        return MATRIX_ZERO
    if x.col == y.row:
        return MatrixUnitElt(x.row, y.col)
    return MATRIX_ZERO


class BrandtElt(Frozen):
    """Triple over integer indices with a min-semilattice middle coordinate."""

    __slots__ = ("left", "mid", "right")

    is_zero = False

    def __init__(self, left: int, mid: int, right: int):
        if mid < 0:
            raise ValueError("middle coordinate must be a natural")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left},{self.mid},{self.right})"


def brandt_mul(x, y):
    if x is BRANDT_ZERO or y is BRANDT_ZERO:
        return BRANDT_ZERO
    if x.right == y.left:
        return BrandtElt(x.left, min(x.mid, y.mid), y.right)
    return BRANDT_ZERO


# -- integer <-> natural bijection for the matrix-unit index set -----------

def int_to_nat(n: int) -> int:
    """Zigzag bijection from the integers onto the naturals."""
    return 2 * n if n >= 0 else -2 * n - 1


# -- the maps ---------------------------------------------------------------

# ``epshift.classify``, loaded by the first map that reads a report
_classify_module = None


def _classify(ctx: SemigroupCtx):
    """:func:`epshift.classify.classify`, looked up on its module.

    Only :func:`to_ext_bicyclic` and :func:`to_matrix_units` read a report,
    so the other maps never load ``classify``.  It loads once, and a call
    runs no ``import`` statement.  The function is read off the module on
    every call, so a rebinding of it there (``perfbench/tracing.py`` makes
    one and undoes it) is seen here too.
    """
    global _classify_module
    if _classify_module is None:
        _classify_module = import_module(".classify", __package__)
    return _classify_module.classify(ctx)


def sigma_hom(a: Element, ctx: SemigroupCtx = None) -> int:
    """Index difference ``i - j``: the quotient map onto the additive integers.

    Defined only over families without the empty set; with a zero present
    the group quotient collapses to the trivial group.
    """
    if ctx is not None and ctx.family.has_empty:
        raise ZeroInFamily("family contains {}, the group quotient is trivial")
    if a.is_zero:
        raise ZeroInFamily("the zero has no image in the integer quotient")
    return a.i - a.j


def to_ext_bicyclic(ctx: SemigroupCtx, a: Element) -> ExtBicyclicElt:
    """Drop the set component; bijective when the family is one inductive set."""
    if _classify(ctx).iso_type != ISO_EXTENDED_BICYCLIC:
        raise WrongIsoType("family is not a single nonempty inductive set")
    return ExtBicyclicElt(a.i, a.j)


def to_matrix_units(ctx: SemigroupCtx, a: Element):
    """Map onto matrix units over integer indices.

    Needs the family ``{ {}, {k} }``.  The indices come out in the
    integers; compose with :func:`int_to_nat` for natural-indexed units
    (any bijection of the index set is an isomorphism of matrix units).
    """
    if _classify(ctx).iso_type != ISO_MATRIX_UNITS:
        raise WrongIsoType("family is not family{ {}; {k} }")
    if a.is_zero:
        return MATRIX_ZERO
    return MatrixUnitElt(a.i, a.j)


def to_matrix_units_nat(ctx: SemigroupCtx, a: Element):
    """Natural-indexed variant of :func:`to_matrix_units` via the zigzag."""
    x = to_matrix_units(ctx, a)
    if x is MATRIX_ZERO:
        return MATRIX_ZERO
    return MatrixUnitElt(int_to_nat(x.row), int_to_nat(x.col))


def to_brandt(a: Element):
    """``(i, j, {k}) -> (i+k, k, j+k)``: onto the Brandt extension of min.

    Elements must carry singleton sets (the ambient family is the symbolic
    one of all singletons plus the empty set).
    """
    if a.is_zero:
        return BRANDT_ZERO
    k = as_singleton(a.fset)
    if k is None:
        raise NotSingletonSet(f"{a} does not carry a singleton set")
    return BrandtElt(a.i + k, k, a.j + k)


def singleton_ctx() -> SemigroupCtx:
    """Context over the symbolic all-singletons family (domain of to_brandt)."""
    return SemigroupCtx(SingletonFamily())


def progression_reindex(a: Element, old_start: int, new_start: int,
                        step: int) -> Element:
    """Swap the progression ``old_start + step*w`` for ``new_start + step*w``.

    An isomorphism between the two progression-family semigroups; the zero
    maps to the zero.
    """
    if a.is_zero:
        return ZERO
    if a.fset != EpSet.progression(old_start, step):
        raise WrongProgression(
            f"{a} does not carry the progression {old_start}+{step}*w")
    return Element(a.i, a.j, EpSet.progression(new_start, step))


def partial_shift_iso(alpha: PartialShift) -> ExtBicyclicElt:
    """Read the shift's parameters off as a bicyclic pair; an isomorphism."""
    return ExtBicyclicElt(alpha.i, alpha.j)
