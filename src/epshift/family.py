"""Finite shift-closed families of eventually periodic sets.

A family ``M`` is *omega-closed* when ``F1 & shift(F2, -n)`` stays inside
``M`` for all members ``F1, F2`` and every natural ``n``.  The quantifier
over ``n`` is finite in disguise: once ``n`` passes the threshold of
``F2``, the down-shift only depends on ``n`` modulo the period of ``F2``,
so ``n < threshold + period`` already produces every possible value.

:func:`close` runs on one common window.  Let ``T`` be the generators'
largest threshold and ``L`` the lcm of their periods.  A down-shift keeps
a set's period and does not raise its threshold, and an intersection has
the larger of the two thresholds and a period dividing the lcm of the two
periods.  So every member of the closure has threshold at most ``T`` and a
period dividing ``L``, and it is fixed by its members below ``W = T + L``:
the head lies below ``T``, and ``[T, T + L)`` holds each residue mod ``L``
once.  A member is carried as that ``W``-bit window, an int.  The window of
``shift(g, -n)`` is bits ``n`` to ``n + W`` of ``g``'s window, so with
``gw`` the window of ``g`` over ``2W`` bits (``n < t + p <= W``) it is
``gw >> n``, and an intersection is a bitwise and: a cut is one shift and
one ``&``.  Only the members returned are canonicalized.

A :class:`Family` reuses that window for products: :meth:`Family.cut`
answers ``F1 & shift(F2, -n)`` with a lookup from the cut's window to the
member it denotes, so products over a family are its own member objects.

:func:`omega_closure_witness` works on the kernel's raw ``(h, t, p, r)``
quadruples instead, so that it can stop at the first violation before it
builds anything as wide as a common window.  Members are wrapped in
:class:`EpSet` only for the caller.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Tuple

from . import kernel
from .errors import ClosureDiverged, NotOmegaClosed, ResourceLimit
from .omega_sets import EMPTY, EpSet, intersect, shift, sort_key

DEFAULT_CLOSURE_CAP = 4096
# the widest common window close() builds, in bits; each member costs as much
MAX_WINDOW_BITS = 1 << 20

# defaults of the sampled verification suites, shared with the CLI flags
DEFAULT_SEED = 7
DEFAULT_SAMPLES = 10_000

Witness = Tuple[EpSet, EpSet, int]


def _common_window(quads):
    """``(T, L)`` of a list of raw quadruples: the largest threshold and the
    lcm of the periods.  Every cut of them has a window of ``T + L`` bits."""
    return max(q[1] for q in quads), lcm(*(q[2] for q in quads))


def _down_shifts(q):
    """Every down-shift ``shift(q, -n)`` of a raw quadruple, in order of
    ``n`` below its threshold plus period; the later ones repeat these."""
    h, t, p, r = q
    return (kernel.shift(h, t, p, r, -n) for n in range(t + p))


class Family:
    """Immutable finite omega-closed family.

    Construction verifies the closure property unless ``check=False``
    (used by :func:`close`, whose output is closed by construction).
    """

    __slots__ = ("_members", "_sorted", "_nonempty", "has_empty", "_windows")

    def __init__(self, members: Iterable[EpSet], *, check: bool = True):
        self._members = frozenset(members)
        self._windows = None  # built by the first cut()
        if not self._members:
            raise ValueError("a family needs at least one member")
        self._sorted = tuple(sorted(self._members, key=sort_key))
        self._nonempty = tuple(f for f in self._sorted if not f.is_empty)
        self.has_empty = EMPTY in self._members
        if check:
            witness = omega_closure_witness(self._members)
            if witness is not None:
                f1, f2, n = witness
                raise NotOmegaClosed(
                    f"{f1} ∩ shift({f2}, -{n}) = {intersect(f1, shift(f2, -n))} "
                    "is outside the family",
                    f1=str(f1), f2=str(f2), n=n)

    @property
    def members(self) -> Tuple[EpSet, ...]:
        return self._sorted

    def cut(self, f1: EpSet, f2: EpSet, n: int) -> EpSet:
        """``f1 & shift(f2, -n)`` for a natural ``n``: the set of a product.

        With both factors members, the cut is taken on the common window of
        the module docstring, ``(w1 & (w2 >> n)) & full`` with each window
        over ``2W`` bits, and answered with the member whose window it is.
        A cut that is no member (the family was built with ``check=False``)
        is canonicalized from its window.  A factor that is not a member,
        or a window wider than :data:`MAX_WINDOW_BITS`, takes the kernel's
        ``intersect(f1, shift(f2, -n))`` instead.
        """
        state = self._windows
        if state is None:
            state = self._windows = self._window_state()
        windows, by_window, full, t, p = state
        w1 = windows.get(f1)
        w2 = windows.get(f2)
        if w1 is None or w2 is None:
            return intersect(f1, shift(f2, -n))
        if n >= t + p:
            # past every threshold only n mod the common period matters
            n = t + (n - t) % p
        c = w1 & (w2 >> n) & full
        fs = by_window.get(c)
        if fs is None:
            fs = EpSet._from_canon(*kernel.from_window(c, t, p))
        return fs

    def _window_state(self):
        """``cut()``'s tables: each member's window over ``2W`` bits, the
        member of each ``W``-bit window, the ``W``-bit mask, ``T`` and
        ``L``.  Both tables are empty when ``W`` is over the bound."""
        t, p = _common_window([f.raw for f in self._sorted])
        width = t + p
        if width > MAX_WINDOW_BITS:
            return {}, {}, 0, t, p
        full = (1 << width) - 1
        windows = {f: kernel.window(*f.raw, 2 * width) for f in self._sorted}
        by_window = {w & full: f for f, w in windows.items()}
        return windows, by_window, full, t, p

    @property
    def nonempty_members(self) -> Tuple[EpSet, ...]:
        return self._nonempty

    def __contains__(self, f) -> bool:
        return f in self._members

    def __iter__(self):
        return iter(self._sorted)

    def __len__(self) -> int:
        return len(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __str__(self) -> str:
        return "family{ " + "; ".join(str(f) for f in self._sorted) + " }"

    def __repr__(self) -> str:
        return f"Family.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Family":
        from . import grammar

        return grammar.parse_family(text)


class SingletonFamily:
    """The infinite family of all singletons plus the empty set, symbolically.

    Only membership is decidable, so it has no length and no iteration.
    Products of elements over this family only ever intersect shifted
    singletons, so the semigroup layer works on it unchanged.
    """

    has_empty = True

    def __contains__(self, f) -> bool:
        return isinstance(f, EpSet) and (f.is_empty or f.size == 1)

    def __str__(self) -> str:
        return "family{ all singletons; {} }"

    __repr__ = __str__


def omega_closure_witness(members: Iterable[EpSet]) -> Optional[Witness]:
    """First ``(F1, F2, n)`` violating closure, or ``None`` if closed.

    "First" is in the order ``F1``, then ``F2`` (both by :func:`sort_key`),
    then ``n``.  Many ``(F2, n)`` give the same down-shift, so each distinct
    down-shift is kept once, at its first ``(F2, n)``: the earliest failing
    ``(F2, n)`` for an ``F1`` is the first occurrence of a failing one.
    The table fills while the first ``F1`` is cut, so a violation there
    returns before the remaining down-shifts are built.
    """
    ordered = sorted(frozenset(members), key=sort_key)
    if not ordered:
        raise ValueError("a closure check needs at least one member")
    pool = {f.raw for f in ordered}
    f1 = ordered[0]
    first = {}  # distinct down-shift -> its first (F2, n), in scan order
    for f2 in ordered:
        for n, d in enumerate(_down_shifts(f2.raw)):
            if d not in first:
                if kernel.intersect(*f1.raw, *d) not in pool:
                    return (f1, f2, n)
                first[d] = (f2, n)
    for f1 in ordered[1:]:
        h, t, p, r = f1.raw
        for d, (f2, n) in first.items():
            if kernel.intersect(h, t, p, r, *d) not in pool:
                return (f1, f2, n)
    return None


def is_omega_closed(members: Iterable[EpSet]) -> Tuple[bool, Optional[Witness]]:
    """Decide closure of a candidate set; returns ``(verdict, witness)``."""
    witness = omega_closure_witness(members)
    return (witness is None, witness)


def close(generators: Iterable[EpSet], cap: int = DEFAULT_CLOSURE_CAP) -> Family:
    """Smallest omega-closed family containing ``generators``.

    Each member is cut by every generator down-shift in
    ``D = {shift(g, -n) : g in G, n < threshold(g) + period(g)}``.  This is
    exactly the closure.  A cut ``F & shift(g, -n)`` of a member lies in the
    closure by definition, so every member is some ``g & d1 & ... & dk``
    with each ``di`` in ``D``.  A down-shift distributes over ``&``, and a
    down-shift of a down-shift of ``g`` is again one of ``g``, already in
    ``D`` by periodicity; so ``F1 & shift(F2, -n)`` of two such members is
    again of that form, and the cuts reach it.

    The cuts run on the common window of the module docstring: a member is
    its ``W``-bit window ``m`` and a cut is ``m & (gw >> n)``.  New members
    are cut a layer at a time, so each down-shift is built once per layer
    and never kept: memory stays at the members' ``W`` bits each.

    Raises :class:`ResourceLimit` if ``W`` exceeds :data:`MAX_WINDOW_BITS`,
    before any window is built, and :class:`ClosureDiverged` iff the
    closure has more than ``cap`` members, rather than truncating silently.
    """
    gens = {g.raw for g in generators}
    if not gens:
        raise ValueError("close() needs at least one generator")
    t, p = _common_window(gens)
    width = t + p
    if width > MAX_WINDOW_BITS:
        raise ResourceLimit(
            f"closure window of {width} bits exceeds the limit of "
            f"{MAX_WINDOW_BITS} bits", quantity="window_bits", value=width,
            limit=MAX_WINDOW_BITS)
    # each generator's window over [0, 2W) and its number of down-shifts
    cutters = [(kernel.window(*g, 2 * width), g[1] + g[2]) for g in gens]
    full = (1 << width) - 1
    members = {gw & full for gw, _ in cutters}
    layer = [m for m in members if m]  # the empty set only cuts to itself
    while len(members) <= cap:
        if not layer:
            return Family([EpSet._from_canon(*kernel.from_window(m, t, p))
                           for m in members], check=False)
        fresh = []
        for d in (gw >> n for gw, k in cutters for n in range(k)):
            for m in layer:
                c = m & d
                if c not in members:
                    members.add(c)
                    fresh.append(c)
            if len(members) > cap:
                break
        layer = [m for m in fresh if m]
    raise ClosureDiverged(f"closure exceeded {cap} members", cap=cap)
