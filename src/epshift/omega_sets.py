"""Eventually periodic subsets of the naturals, in canonical form.

An :class:`EpSet` is a finite union of single naturals and arithmetic
progressions ``a + p*w = {a, a+p, a+2p, ...}``.  It is stored as a head
bitmask below a threshold plus a residue pattern for the periodic tail, and
is canonicalized eagerly: the period is minimal, then the threshold is
minimal, so two values are equal exactly when they denote the same set.

Arbitrary recursive subsets of the naturals are out of scope on purpose:
the eventually periodic fragment is closed under every operation used by
the semigroup layer and keeps all decision procedures exact and fast.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from . import kernel


class EpSet:
    """Canonical eventually periodic subset of the naturals.

    ``head`` lists the exceptional members below ``threshold``; from
    ``threshold`` on, ``n`` is a member iff ``n % period`` is in
    ``residues``.  Values are immutable, hashable and ordered-printable.
    """

    __slots__ = ("_h", "_t", "_p", "_r", "_hash")

    def __init__(self, head: Iterable[int] = (), threshold: int = 0,
                 period: int = 1, residues: Iterable[int] = ()):
        if threshold < 0:
            raise ValueError("threshold must be a natural")
        if period < 1:
            raise ValueError("period must be positive")
        h = 0
        for e in head:
            if not 0 <= e < threshold:
                raise ValueError(f"head entry {e} outside [0, {threshold})")
            h |= 1 << e
        r = 0
        for c in residues:
            if not 0 <= c < period:
                raise ValueError(f"residue {c} outside [0, {period})")
            r |= 1 << c
        self._h, self._t, self._p, self._r = kernel.canon(h, threshold, period, r)
        self._hash = hash((self._h, self._t, self._p, self._r))

    @classmethod
    def _from_canon(cls, h: int, t: int, p: int, r: int) -> "EpSet":
        obj = object.__new__(cls)
        obj._h, obj._t, obj._p, obj._r = h, t, p, r
        obj._hash = hash((h, t, p, r))
        return obj

    @classmethod
    def from_raw(cls, h: int, t: int, p: int, r: int) -> "EpSet":
        """Build from a raw quadruple (canonicalizing it)."""
        return cls._from_canon(*kernel.canon(h, t, p, r))

    @classmethod
    def of(cls, *members: int) -> "EpSet":
        return cls.from_members(members)

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "EpSet":
        """Finite set from explicit members."""
        h = 0
        top = 0
        for m in members:
            if m < 0:
                raise ValueError("members must be naturals")
            h |= 1 << m
            if m >= top:
                top = m + 1
        return cls._from_canon(*kernel.canon(h, top, 1, 0))

    @classmethod
    def ray(cls, k: int) -> "EpSet":
        """The inductive set ``[k) = {k, k+1, ...}``."""
        if k < 0:
            raise ValueError("ray start must be a natural")
        return cls._from_canon(*kernel.canon(0, k, 1, 1))

    @classmethod
    def progression(cls, start: int, step: int) -> "EpSet":
        """The arithmetic progression ``start + step*w``."""
        if start < 0 or step < 1:
            raise ValueError("progression needs a natural start and positive step")
        return cls._from_canon(*kernel.canon(0, start, step, 1 << (start % step)))

    @classmethod
    def parse(cls, text: str) -> "EpSet":
        from . import grammar

        return grammar.parse_set(text)

    # -- field access ----------------------------------------------------

    @property
    def head(self) -> Tuple[int, ...]:
        return tuple(_bits(self._h))

    @property
    def threshold(self) -> int:
        return self._t

    @property
    def period(self) -> int:
        return self._p

    @property
    def residues(self) -> frozenset:
        return frozenset(_bits(self._r))

    @property
    def raw(self) -> Tuple[int, int, int, int]:
        return (self._h, self._t, self._p, self._r)

    @property
    def is_empty(self) -> bool:
        return self._h == 0 and self._r == 0

    @property
    def size(self) -> Optional[int]:
        """Number of members, or ``None`` when infinite."""
        return self._h.bit_count() if self._r == 0 else None

    def min(self) -> Optional[int]:
        """Least member, or ``None`` for the empty set."""
        if self._h:
            return (self._h & -self._h).bit_length() - 1
        # bit j of the rotated pattern is the member t + j
        tail = kernel._rot_right(self._r, self._t, self._p)
        return self._t + (tail & -tail).bit_length() - 1 if tail else None

    # -- behaviour -------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        return bool(kernel.member(self._h, self._t, self._p, self._r, n))

    def members(self, below: int) -> Tuple[int, ...]:
        """All members strictly below ``below``."""
        return tuple(_bits(kernel.window(*self.raw, below)))

    def __and__(self, other: "EpSet") -> "EpSet":
        return intersect(self, other)

    def __or__(self, other: "EpSet") -> "EpSet":
        return union(self, other)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, EpSet):
            return NotImplemented
        return (self._h == other._h and self._t == other._t
                and self._p == other._p and self._r == other._r)

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_empty

    def __str__(self) -> str:
        return format_epset(self)

    def __repr__(self) -> str:
        return f"EpSet.parse({format_epset(self)!r})"


EMPTY = EpSet()


_CHUNK = 4096


def _bits(x: int):
    """The positions of the set bits of ``x``, lowest first.

    ``x`` is cut from the top: ``bit_length`` finds its highest set bit at
    once, and the ``_CHUNK`` bits that end there come off as one small int
    for two whole-int operations.  The chunks are then walked lowest first.
    So a dense mask pays two whole-int operations per chunk, not three per
    member, and a sparse one two per member on a mask that shrinks.
    """
    chunks = []
    while x:
        start = max(x.bit_length() - _CHUNK, 0)
        chunk = x >> start
        chunks.append((start, chunk))
        x ^= chunk << start
    for start, chunk in reversed(chunks):
        while chunk:
            low = chunk & -chunk
            yield start + low.bit_length() - 1
            chunk ^= low


def sort_key(f: EpSet):
    """A total order on canonical sets; used for deterministic printing."""
    m = f.min()
    return (-1 if m is None else m, f._t, f._p, f._h, f._r)


def format_epset(f: EpSet) -> str:
    """Canonical text: ``{}``, ``{a,b}``, ``[k)``, ``a+p*w`` and ``|`` unions."""
    if f.is_empty:
        return "{}"
    parts = []
    head = f.head
    if head:
        parts.append("{" + ",".join(str(n) for n in head) + "}")
    t, p = f._t, f._p
    for j in _bits(kernel._rot_right(f._r, t, p)):
        parts.append(f"[{t + j})" if p == 1 else f"{t + j}+{p}*w")
    return "|".join(parts)


# -- the operations the semigroup layer is built from ----------------------

def shift(f: EpSet, d: int) -> EpSet:
    """``{d + k : k in f}`` clipped to the naturals."""
    return EpSet._from_canon(*kernel.shift(*f.raw, d))


def intersect(f1: EpSet, f2: EpSet) -> EpSet:
    return EpSet._from_canon(*kernel.intersect(*f1.raw, *f2.raw))


def union(f1: EpSet, f2: EpSet) -> EpSet:
    return EpSet._from_canon(*kernel.union(*f1.raw, *f2.raw))


def is_subset(f1: EpSet, f2: EpSet) -> bool:
    return kernel.subset(*f1.raw, *f2.raw)


def exists_shift_subset(f1: EpSet, f2: EpSet) -> Optional[int]:
    """Least ``k >= 0`` with ``k + f1`` contained in ``f2``, else ``None``.

    Complete: past the second set's threshold the containment predicate is
    periodic in ``k``, so the kernel's bounded scan decides the whole of
    the naturals.
    """
    return kernel.exists_shift_subset(*f1.raw, *f2.raw)


def is_inductive(f: EpSet) -> bool:
    """True iff ``f`` is empty or a ray ``[k)`` (successor-closed)."""
    return f._h == 0 and f._p == 1


def as_singleton(f: EpSet) -> Optional[int]:
    """The sole member when ``f`` is a singleton, else ``None``."""
    if f._r == 0 and f._h.bit_count() == 1:
        return f._h.bit_length() - 1
    return None


def as_arith_progression(f: EpSet) -> Optional[Tuple[int, int]]:
    """``(start, step)`` when ``f`` equals ``start + step*w``, else ``None``."""
    if f._h == 0 and f._r.bit_count() == 1:
        c = f._r.bit_length() - 1
        return (f._t + (c - f._t) % f._p, f._p)
    return None
