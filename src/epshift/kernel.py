"""Pure-Python kernel for eventually periodic subsets of the naturals.

A set is carried as a quadruple ``(h, t, p, r)`` of non-negative ints:

* ``h`` -- head bitmask; for ``n < t``, bit ``n`` of ``h`` records membership,
* ``t`` -- threshold where the periodic tail begins,
* ``p`` -- tail period (``p >= 1``),
* ``r`` -- residue bitmask; for ``n >= t``, ``n`` is a member iff bit
  ``n % p`` of ``r`` is set.

A quadruple is *canonical* when ``p`` is the least period of the tail
pattern, ``t`` cannot be lowered without changing the set, ``h`` has no bits
at or above ``t``, and ``r == 0`` forces ``p == 1``.  Canonical quadruples
are equal exactly when the sets are, so equality and hashing are O(1).

All functions here return canonical quadruples and never mutate inputs.
"""

from math import lcm

BACKEND = "pure"


def _rot_right(r: int, s: int, p: int) -> int:
    # bit c of the result is bit (c + s) % p of r
    s %= p
    if s == 0:
        return r
    return ((r >> s) | (r << (p - s))) & ((1 << p) - 1)


def canon(h: int, t: int, p: int, r: int):
    """Canonicalize an arbitrary valid quadruple."""
    h &= (1 << t) - 1
    r &= (1 << p) - 1
    if r == 0:
        p = 1
    elif p > 1:
        # the least rotation that maps the pattern to itself is its least
        # period, and it divides p
        s = format(r, f"0{p}b")
        d = (s + s).find(s, 1)
        if d < p:
            r &= (1 << d) - 1
            p = d
    if t > 0 and ((h >> (t - 1)) & 1) == ((r >> ((t - 1) % p)) & 1):
        # lower t to just above the highest bit where the head and the tail
        # pattern disagree
        t = (h ^ window(0, 0, p, r, t)).bit_length()
        h &= (1 << t) - 1
    return h, t, p, r


def member(h: int, t: int, p: int, r: int, n: int) -> int:
    if n < 0:
        return 0
    if n < t:
        return (h >> n) & 1
    return (r >> (n % p)) & 1


def window(h: int, t: int, p: int, r: int, width: int) -> int:
    """Bitmask of the members in ``[0, width)``."""
    if width <= 0:
        return 0
    if width <= t:
        return h & ((1 << width) - 1)
    if r == 0:
        return h
    # the mask first: a width too large for memory fails here, before the
    # pattern is doubled past it
    mask = (1 << width) - 1
    while p < width:
        r |= r << p
        p += p
    return h | (r & mask) >> t << t


def from_window(w: int, t: int, p: int):
    """The canonical quadruple of a set with threshold at most ``t`` and a
    period dividing ``p``, from ``w = window(..., t + p)``: its head is the
    low ``t`` bits, and bit ``j`` of the next ``p`` is the residue
    ``(t + j) % p``."""
    return canon(w & ((1 << t) - 1), t, p, _rot_right(w >> t, -t, p))


def shift(h: int, t: int, p: int, r: int, d: int):
    """Translate by ``d`` and clip to the naturals."""
    if d == 0:
        return h, t, p, r
    if d > 0:
        return canon(h << d, t + d, p, _rot_right(r, -d, p))
    s = -d
    t2 = t - s if t > s else 0
    h2 = (h >> s) & ((1 << t2) - 1) if t2 else 0
    return canon(h2, t2, p, _rot_right(r, s, p))


def _windows(h1, t1, p1, r1, h2, t2, p2, r2):
    # both sets are q-periodic from t on, so t + q bits decide them
    t, q = max(t1, t2), lcm(p1, p2)
    width = t + q
    return window(h1, t1, p1, r1, width), window(h2, t2, p2, r2, width), t, q


def intersect(h1, t1, p1, r1, h2, t2, p2, r2):
    w1, w2, t, q = _windows(h1, t1, p1, r1, h2, t2, p2, r2)
    return from_window(w1 & w2, t, q)


def union(h1, t1, p1, r1, h2, t2, p2, r2):
    w1, w2, t, q = _windows(h1, t1, p1, r1, h2, t2, p2, r2)
    return from_window(w1 | w2, t, q)


def subset(h1, t1, p1, r1, h2, t2, p2, r2) -> bool:
    w1, w2, _t, _q = _windows(h1, t1, p1, r1, h2, t2, p2, r2)
    return not w1 & ~w2


def exists_shift_subset(h1, t1, p1, r1, h2, t2, p2, r2):
    """Least ``k >= 0`` with ``(k + F1) properly inside F2``, else ``None``.

    For ``k >= t2`` every membership query lands in the tail of the second
    set, so the predicate in ``k`` repeats with period ``p2``; scanning
    ``k < t2 + p2`` therefore decides existence over all of the naturals.
    Each such ``k + F1`` is ``lcm(p1, p2)``-periodic, alongside ``F2``, from
    below ``t1 + t2 + p2``, so one window of both sets decides every ``k``.
    """
    if h1 == 0 and r1 == 0:
        return 0
    if r2 == 0 and r1 != 0:
        return None
    width = t1 + t2 + p2 + lcm(p1, p2)
    w1 = window(h1, t1, p1, r1, width)
    outside = ~window(h2, t2, p2, r2, width) & ((1 << width) - 1)
    for k in range(t2 + p2):
        if not (w1 << k) & outside:
            return k
    return None
