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


def _expand(r: int, p: int, q: int) -> int:
    # replicate a p-periodic pattern to modulus q (p must divide q)
    if p == q:
        return r
    return r * (((1 << q) - 1) // ((1 << p) - 1))


def canon(h: int, t: int, p: int, r: int):
    """Canonicalize an arbitrary valid quadruple."""
    h &= (1 << t) - 1
    r &= (1 << p) - 1
    if r == 0:
        p = 1
    elif p > 1:
        for d in range(1, p):
            if p % d == 0 and _rot_right(r, d, p) == r:
                r &= (1 << d) - 1
                p = d
                break
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
    full = _expand(r, p, p * (width // p + 1))
    return h | (full & ((1 << width) - 1) & ~((1 << t) - 1))


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


def intersect(h1, t1, p1, r1, h2, t2, p2, r2):
    t = t1 if t1 >= t2 else t2
    q = lcm(p1, p2)
    h = window(h1, t1, p1, r1, t) & window(h2, t2, p2, r2, t)
    return canon(h, t, q, _expand(r1, p1, q) & _expand(r2, p2, q))


def union(h1, t1, p1, r1, h2, t2, p2, r2):
    t = t1 if t1 >= t2 else t2
    q = lcm(p1, p2)
    h = window(h1, t1, p1, r1, t) | window(h2, t2, p2, r2, t)
    return canon(h, t, q, _expand(r1, p1, q) | _expand(r2, p2, q))


def subset(h1, t1, p1, r1, h2, t2, p2, r2) -> bool:
    """Containment; the quadruples need not be canonical."""
    t = t1 if t1 >= t2 else t2
    if window(h1, t1, p1, r1, t) & ~window(h2, t2, p2, r2, t):
        return False
    q = lcm(p1, p2)
    return not (_expand(r1, p1, q) & ~_expand(r2, p2, q) & ((1 << q) - 1))


def exists_shift_subset(h1, t1, p1, r1, h2, t2, p2, r2):
    """Least ``k >= 0`` with ``(k + F1) properly inside F2``, else ``None``.

    For ``k >= t2`` every membership query lands in the tail of the second
    set, so the predicate in ``k`` repeats with period ``p2``; scanning
    ``k < t2 + p2`` therefore decides existence over all of the naturals.
    """
    if h1 == 0 and r1 == 0:
        return 0
    if r2 == 0 and r1 != 0:
        return None
    for k in range(t2 + p2):
        # up-shift of (h1, t1, p1, r1) by k, uncanonicalized
        if subset(h1 << k, t1 + k, p1, _rot_right(r1, -k, p1), h2, t2, p2, r2):
            return k
    return None
