"""The decorated-shift inverse semigroup with an optional zero.

Elements are triples ``(i, j, F)`` with integer ``i, j`` and a nonempty
family member ``F``, plus an absorbing :data:`ZERO` exactly when the family
contains the empty set.  The product compares ``j1`` with ``i2``:

* ``j1 < i2`` -> ``(i1-j1+i2, j2, shift(F1, j1-i2) & F2)``
* ``j1 = i2`` -> ``(i1, j2, F1 & F2)``
* ``j1 > i2`` -> ``(i1, j1-i2+j2, F1 & shift(F2, i2-j1))``

A product whose set comes out empty collapses to :data:`ZERO`.  Closure of
the ambient family guarantees every product set stays inside it.
"""

from __future__ import annotations

from typing import Tuple

from .errors import EmptyOutsideFamily, NotIdempotent, NotRelated, OutsideFamily
from .omega_sets import EpSet, exists_shift_subset, intersect, is_subset, shift

GREEN_RELATIONS = ("R", "L", "H", "D", "J")

# the isomorphism types that ``classify`` resolves; they live here so that
# the maps can test a report's type without loading ``classify``
ISO_TRIVIAL = "Trivial"
ISO_EXTENDED_BICYCLIC = "ExtendedBicyclic"
ISO_MATRIX_UNITS = "MatrixUnitsOmega"
ISO_PROGRESSION = "ZeroBisimpleProgression"
ISO_GENERAL = "General"

# the product cache is cleared when a miss finds it this full
PROD_CACHE_LIMIT = 1 << 16


class Element:
    """A triple ``(i, j, F)``, or the zero (use the module constant ZERO)."""

    __slots__ = ("i", "j", "fset")

    def __init__(self, i: int, j: int, fset: EpSet):
        if not isinstance(fset, EpSet):
            raise TypeError("set component must be an EpSet")
        if fset.is_empty:
            raise ValueError("triples carry nonempty sets; the empty class is ZERO")
        self.i = i
        self.j = j
        self.fset = fset

    @property
    def is_zero(self) -> bool:
        return self.fset is None

    def inverse(self) -> "Element":
        if self.fset is None:
            return self
        e = object.__new__(Element)
        e.i = self.j
        e.j = self.i
        e.fset = self.fset
        return e

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        # products share their cached set objects, so identity usually
        # decides without a call to EpSet.__eq__
        x, y = self.fset, other.fset
        return self.i == other.i and self.j == other.j and (x is y or x == y)

    def __hash__(self) -> int:
        return hash((self.i, self.j, self.fset))

    def __str__(self) -> str:
        if self.fset is None:
            return "0"
        return f"({self.i},{self.j};{self.fset})"

    def __repr__(self) -> str:
        return "ZERO" if self.fset is None else f"Element.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Element":
        from . import grammar

        return grammar.parse_element(text)


def _triple(i: int, j: int, fset) -> Element:
    """Trusted constructor: ``fset`` is a nonempty EpSet (or ``None`` for
    the zero) that came out of an element or the kernel, so the public
    constructor's checks are skipped.  ``mul`` and ``Element.inverse``
    inline it, since a call costs a frame on every product."""
    e = object.__new__(Element)
    e.i = i
    e.j = j
    e.fset = fset
    return e


ZERO = _triple(0, 0, None)


def _kernel_cut(f1: EpSet, f2: EpSet, n: int) -> EpSet:
    """The product set ``f1 & shift(f2, -n)`` of a family with no ``cut``."""
    return intersect(f1, shift(f2, -n))


class SemigroupCtx:
    """Ambient family plus a product-set cache.

    The family need offer only two members: ``has_empty``, whether the
    empty set belongs to it (and so a zero to the semigroup), and ``in``,
    whether a set does.  :class:`~epshift.family.Family`,
    :class:`~epshift.family.SingletonFamily` and the self-test's family of
    every set are all it takes.  Classification, and the maps that rest on
    its report, need a finite family: one that also offers the tuples
    ``members`` and ``nonempty_members``, as ``Family`` does.

    A family may also offer ``cut(f1, f2, n)``, giving the product set
    ``f1 & shift(f2, -n)``; a product-cache miss asks it, and a family
    without one gets the kernel's ``intersect(f1, shift(f2, -n))``.
    :meth:`Family.cut <epshift.family.Family.cut>` answers with the
    family's own member objects.  The cache holds at most
    :data:`PROD_CACHE_LIMIT` product sets: a miss that finds it full clears
    it first.

    Elements are validated against the family on construction via
    :meth:`element`; the multiplication itself trusts its inputs, which
    keeps the hot path check-free.
    """

    def __init__(self, family):
        self.family = family
        self._cut = getattr(family, "cut", _kernel_cut)
        self._prod_cache = {}
        self._report = None

    def element(self, i: int, j: int, fset: EpSet) -> Element:
        if fset not in self.family:
            raise OutsideFamily(f"{fset} is not a member of the family",
                                fset=str(fset))
        return Element(i, j, fset)

    def zero(self) -> Element:
        if not self.family.has_empty:
            raise EmptyOutsideFamily(
                "the family has no empty member, so there is no zero")
        return ZERO

    def contains(self, a: Element) -> bool:
        if a.is_zero:
            return self.family.has_empty
        return a.fset in self.family

    def mul(self, a: Element, b: Element) -> Element:
        x, y = a.fset, b.fset
        if x is None or y is None:
            if not self.family.has_empty:
                raise EmptyOutsideFamily("zero element in a family without {}")
            return ZERO
        # the product set is x & shift(y, -n) for the ordered pair below
        d = a.j - b.i
        if d < 0:
            x, y, n = y, x, -d
            i, j = a.i - a.j + b.i, b.j
        elif d == 0:
            n = 0
            i, j = a.i, b.j
        else:
            n = d
            i, j = a.i, a.j - b.i + b.j
        # past y's threshold only n mod period matters; the fields are
        # read directly because the properties cost a frame per product
        t = y._t
        if n >= t:
            n = t + (n - t) % y._p
        key = (x, y, n)
        try:
            fs = self._prod_cache[key]
        except KeyError:
            fs = self._cut(x, y, n)
            # an empty product set is cached as None, the zero's set
            if fs.is_empty:
                fs = None
            cache = self._prod_cache
            if len(cache) >= PROD_CACHE_LIMIT:
                cache.clear()
            cache[key] = fs
        if fs is None:
            if not self.family.has_empty:
                raise EmptyOutsideFamily(
                    f"product of {a} and {b} has empty set but the family "
                    "has no empty member (family is not omega-closed?)")
            return ZERO
        e = object.__new__(Element)
        e.i = i
        e.j = j
        e.fset = fs
        return e

    def mul_all(self, *elements: Element) -> Element:
        acc = elements[0]
        for e in elements[1:]:
            acc = self.mul(acc, e)
        return acc


def multiply(ctx: SemigroupCtx, a: Element, b: Element) -> Element:
    return ctx.mul(a, b)


def inverse(a: Element) -> Element:
    return a.inverse()


def is_idempotent(a: Element) -> bool:
    return a.fset is None or a.i == a.j


def natural_leq(a: Element, b: Element) -> bool:
    """The natural partial order: ``a <= b`` iff ``a = b * e`` for an idempotent ``e``.

    The zero is the minimum.  For triples the closed form is ``a.i - b.i =
    a.j - b.j = k`` for some natural ``k`` with ``F1`` inside ``shift(F2, -k)``.
    """
    if a.fset is None:
        return True
    if b.fset is None:
        return False
    k = a.i - b.i
    if k < 0 or k != a.j - b.j:
        return False
    return is_subset(a.fset, shift(b.fset, -k))


def idempotent_leq(e: Element, f: Element) -> bool:
    """Order on idempotents: ``(i,i,F1) <= (j,j,F2)`` iff ``i >= j`` and
    ``F1`` is inside ``shift(F2, j - i)``."""
    if not is_idempotent(e):
        raise NotIdempotent(f"{e} is not idempotent")
    if not is_idempotent(f):
        raise NotIdempotent(f"{f} is not idempotent")
    if e.fset is None:
        return True
    if f.fset is None:
        return False
    if e.i < f.i:
        return False
    return is_subset(e.fset, shift(f.fset, f.i - e.i))


def green(a: Element, b: Element, rel: str) -> bool:
    """Green's relation ``rel`` in {R, L, H, D, J} by its closed form.

    The zero is related only to itself under all five relations.  For
    triples: R fixes the left index and the set, L the right index and the
    set, H both, D the set alone, and J mutual shift-containment of the
    sets.
    """
    rel = rel.upper()
    if rel not in GREEN_RELATIONS:
        raise ValueError(f"unknown Green relation {rel!r}")
    if a.fset is None or b.fset is None:
        return a.fset is None and b.fset is None
    if rel == "R":
        return a.i == b.i and a.fset == b.fset
    if rel == "L":
        return a.j == b.j and a.fset == b.fset
    if rel == "H":
        return a.i == b.i and a.j == b.j and a.fset == b.fset
    if rel == "D":
        return a.fset == b.fset
    return (exists_shift_subset(a.fset, b.fset) is not None
            and exists_shift_subset(b.fset, a.fset) is not None)


def green_witness(a: Element, b: Element, rel: str) -> Tuple[Element, Element]:
    """Connecting elements certifying R, L or D.

    * R: ``(x, y)`` with ``a*x == b`` and ``b*y == a``;
    * L: ``(x, y)`` with ``x*a == b`` and ``y*b == a``;
    * D: ``(c, c^-1)`` where ``c*c^-1 == a*a^-1`` and ``c^-1*c == b^-1*b``.
    """
    rel = rel.upper()
    if rel not in ("R", "L", "D"):
        raise ValueError("witnesses exist for R, L and D only")
    if not green(a, b, rel):
        raise NotRelated(f"{a} and {b} are not {rel}-related")
    if a.fset is None:
        return (ZERO, ZERO)
    f = a.fset
    if rel == "R":
        return (_triple(a.j, b.j, f), _triple(b.j, a.j, f))
    if rel == "L":
        return (_triple(b.i, a.i, f), _triple(a.i, b.i, f))
    c = _triple(a.i, b.j, f)
    return (c, c.inverse())
