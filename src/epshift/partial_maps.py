"""Partial shift bijections of the integers: the ground-truth oracle.

A :class:`PartialShift` ``(i, j)`` is the bijection from ``[i)`` onto
``[j)`` sending ``n`` to ``n - i + j``.  Maps act on the right, and
composition is left-to-right: ``x (a ∘ b) = (x a) b``.  Pointwise
evaluation on finite windows gives an implementation-independent check of
both the index formula and the set component of the semigroup product.
"""

from __future__ import annotations

from typing import FrozenSet

from .omega_sets import EpSet, intersect, shift
from .values import Frozen


class PartialShift(Frozen):
    """The shift with domain ``[i)``, range ``[j)`` and rule ``n -> n - i + j``."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def apply(self, n: int) -> int:
        if n < self.i:
            raise ValueError(f"{n} is outside the domain [{self.i})")
        return n - self.i + self.j

    def inverse(self) -> "PartialShift":
        return PartialShift(self.j, self.i)

    def __str__(self) -> str:
        return f"a[{self.i}->{self.j}]"


def compose_shifts(a: PartialShift, b: PartialShift) -> PartialShift:
    """Left-to-right composition; stays a partial shift.

    The composite domain is ``{n >= a.i : n - a.i + a.j >= b.i}``, which is
    again a ray, giving the min-based closed form.
    """
    m = min(a.j, b.i)
    return PartialShift(a.i + b.i - m, a.j + b.j - m)


def restricted_compose_dom(a: PartialShift, f1: EpSet,
                           b: PartialShift, f2: EpSet,
                           width: int) -> FrozenSet[int]:
    """Domain, within ``[-width, width]``, of ``a`` restricted to ``a.i + f1``
    composed with ``b`` restricted to ``b.i + f2``.

    Pointwise by definition of composition of partial maps: ``n`` is in it
    iff ``n - a.i`` is in ``f1`` and its image ``n - a.i + a.j - b.i`` is
    in ``f2``.  Each membership is read off the sets' ``(h, t, p, r)``
    fields point by point, with no kernel call, so it independently checks
    the closed form.
    """
    h1, t1, p1, r1 = f1.raw
    h2, t2, p2, r2 = f2.raw
    d = a.j - b.i
    out = set()
    # below both starts a point's preimage or its image is negative, so it
    # is in neither set
    for x in range(max(-width - a.i, 0, -d), width - a.i + 1):
        y = x + d
        if ((h1 >> x) & 1 if x < t1 else (r1 >> x % p1) & 1) \
                and ((h2 >> y) & 1 if y < t2 else (r2 >> y % p2) & 1):
            out.add(x + a.i)
    return frozenset(out)


def restricted_compose_dom_closed(a: PartialShift, f1: EpSet,
                                  b: PartialShift, f2: EpSet):
    """Closed form of the same domain: a translation base plus a set.

    Case split on ``a.j`` against ``b.i``; the returned set is exactly the
    set component of the corresponding semigroup product, translated by the
    product's first index.
    """
    if a.j < b.i:
        return (a.i - a.j + b.i, intersect(shift(f1, a.j - b.i), f2))
    if a.j == b.i:
        return (a.i, intersect(f1, f2))
    return (a.i, intersect(f1, shift(f2, b.i - a.j)))
