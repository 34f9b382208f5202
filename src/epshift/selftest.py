"""Seeded verification suites behind ``selftest`` and ``check-hom``.

A suite is a body ``fn(res, rng, opts)`` that only checks: one runner
gives it a fresh tally and the deterministic RNG of ``(seed, suite name)``
for ``selftest`` and ``check-hom`` alike.  The tally counts each
individual assertion and reports the first failure verbatim.
The suites cross-check closed-form criteria against independent routes:
explicit products, pointwise window composition, and brute-force scans
with widened bounds.

Only the sample count and the seed are options.  The sampling bounds are
module constants:

* ``MAX_THRESHOLD`` (8) and ``MAX_PERIOD`` (6) bound each random set,
* ``INDEX_SPAN`` (20) bounds the indices of each random element,
* ``FAMILY_CAP`` (16) caps the closure of each random family,
* ``SWEEP_PAIRS`` (150) pairs are re-checked by the green suite's sweep,
  each over its indices widened by ``SWEEP_MARGIN`` (2),
* ``ORACLE_WINDOW`` (128) is the least half-width of the oracle's
  pointwise window.
"""

from __future__ import annotations

from functools import partial
from itertools import cycle, islice
from math import lcm
from random import Random
from typing import Callable, Dict, List, Optional

from .classify import (ISO_EXTENDED_BICYCLIC, ISO_MATRIX_UNITS, ISO_PROGRESSION,
                       ISO_TRIVIAL, classify, d_class_count)
from .core import (Element, SemigroupCtx, ZERO, _triple, green, green_witness,
                   inverse, idempotent_leq, is_idempotent, natural_leq)
from .errors import ClosureDiverged
from .family import (DEFAULT_SAMPLES, DEFAULT_SEED, Family, close,
                     is_omega_closed)
from .morphisms import (BrandtElt, ExtBicyclicElt, brandt_mul,
                        ext_bicyclic_mul, matrix_unit_mul, partial_shift_iso,
                        progression_reindex, sigma_hom, singleton_ctx,
                        to_ext_bicyclic, to_matrix_units, to_matrix_units_nat,
                        to_brandt)
from .omega_sets import EMPTY, EpSet, exists_shift_subset, is_subset, shift
from .partial_maps import (PartialShift, compose_shifts,
                           restricted_compose_dom, restricted_compose_dom_closed)
from .values import Fields

MAX_THRESHOLD = 8
MAX_PERIOD = 6
INDEX_SPAN = 20
FAMILY_CAP = 16
SWEEP_PAIRS = 150
SWEEP_MARGIN = 2
ORACLE_WINDOW = 128


class SuiteOptions(Fields):
    __slots__ = ("samples", "seed")

    def __init__(self, samples: int = DEFAULT_SAMPLES,
                 seed: int = DEFAULT_SEED):
        self.samples = samples
        self.seed = seed


class SuiteResult(Fields):
    """One suite's tally: every check is counted, and only the first
    failure is described.

    A check passes a ``str.format`` template with positional fields and
    the values they read, so a passing check formats nothing and builds
    no closure: ``res.check(lhs == rhs, "{0} != {1}", lhs, rhs)``.
    Literal braces in a template are doubled.
    """

    __slots__ = ("name", "seed", "checks", "failures", "first_failure")

    def __init__(self, name: str, seed: int, checks: int = 0,
                 failures: int = 0, first_failure: Optional[str] = None):
        self.name = name
        self.seed = seed
        self.checks = checks
        self.failures = failures
        self.first_failure = first_failure

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, ok, message: str, *values) -> bool:
        """Count one assertion; on the first failure only, keep
        ``message.format(*values)``."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = message.format(*values)
        return bool(ok)

    def as_dict(self) -> dict:
        out = dict(zip(self.__slots__, self._values(self)))
        out["passed"] = self.passed
        return out


def _run(name: str, body: Callable, opts: SuiteOptions) -> SuiteResult:
    """The tally of the suite ``name``: ``body(res, rng, opts)`` checks into
    a fresh ``res`` with the rng seeded by ``(opts.seed, name)``."""
    res = SuiteResult(name, opts.seed)
    body(res, Random(f"{opts.seed}:{name}"), opts)
    return res


# -- random generators ------------------------------------------------------

def _below(getrandbits, n: int) -> int:
    """A draw in ``[0, n)`` that consumes ``getrandbits`` exactly as
    ``Random.randrange`` and ``Random.choice`` do on CPython 3.10-3.13:
    ``getrandbits(n.bit_length())`` until the value is below ``n``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        if n <= 0:
            # randint and choice refuse an empty range rather than loop
            raise ValueError(f"empty range for a draw below {n}")
        r = getrandbits(k)
    return r


def random_epset(rng: Random, max_threshold=MAX_THRESHOLD,
                 max_period=MAX_PERIOD) -> EpSet:
    bits = rng.getrandbits
    t = _below(bits, max_threshold + 1)
    p = 1 + _below(bits, max_period)
    h = bits(t) if t else 0
    r = bits(p) if rng.random() < 0.75 else 0
    return EpSet.from_raw(h, t, p, r)


def random_closed_family(rng: Random) -> Family:
    for _ in range(64):
        gens = [random_epset(rng) for _ in range(rng.randint(1, 3))]
        try:
            # closing with the member budget as the cap keeps bad draws cheap
            return close(gens, cap=FAMILY_CAP)
        except ClosureDiverged:
            continue
    return close([EpSet.ray(rng.randint(0, MAX_THRESHOLD))])


def _contexts(rng: Random, n: int) -> List[SemigroupCtx]:
    """A context over each of four fixed families, then over ``n`` random
    closed ones, drawn from ``rng`` in that order."""
    families = [close([f]) for f in (EpSet.ray(0), EpSet.of(3),
                                     EpSet.progression(2, 3), EpSet.of(0, 1))]
    families += [random_closed_family(rng) for _ in range(n)]
    return [SemigroupCtx(fam) for fam in families]


def _rotation(rng: Random, samples: int, zero_prob=0.06):
    """``samples`` turns through the contexts of :func:`_contexts` over 8
    random families: each turn's slot in that list, its context and the
    context's :func:`element_drawer`."""
    turns = [(slot, ctx, element_drawer(rng, ctx.family, zero_prob=zero_prob))
             for slot, ctx in enumerate(_contexts(rng, 8))]
    return islice(cycle(turns), samples)


def element_drawer(rng: Random, fam, span=INDEX_SPAN, zero_prob=0.06):
    """A function of no arguments that draws a random element of ``fam``,
    indices within ``+-span``.

    Each draw equals the public API's ``rng.randint(-span, span)`` twice and
    ``rng.choice(fam.nonempty_members)``, value for value and in the state
    it leaves ``rng`` in: it inlines :func:`_below`'s rejection loops and
    builds the :class:`Element` as the trusted ``_triple`` does, with the
    family's members, the bit lengths and ``getrandbits`` bound once.  A
    family with no nonempty member gives ``ZERO`` and draws nothing.
    """
    choices = fam.nonempty_members
    if not choices:
        return lambda: ZERO
    has_empty = fam.has_empty
    unit = rng.random
    bits = rng.getrandbits
    width = 2 * span + 1
    kw = width.bit_length()
    count = len(choices)
    kc = count.bit_length()
    new = object.__new__

    def draw() -> Element:
        if has_empty and unit() < zero_prob:
            return ZERO
        i = bits(kw)
        while i >= width:
            i = bits(kw)
        j = bits(kw)
        while j >= width:
            j = bits(kw)
        k = bits(kc)
        while k >= count:
            k = bits(kc)
        e = new(Element)
        e.i = i - span
        e.j = j - span
        e.fset = choices[k]
        return e

    return draw


class _AnyFamily:
    """A family holding every set, for products that need no family."""

    has_empty = True

    def __contains__(self, f):
        return True


def _free_ctx() -> SemigroupCtx:
    return SemigroupCtx(_AnyFamily())


# -- brute-force helpers -----------------------------------------------------

def decision_bound(f1: EpSet, f2: EpSet) -> int:
    """The documented decision bound for shift-containment scans."""
    return f1.threshold + f2.threshold + 2 * lcm(f1.period, f2.period)


def _member_mask(f: EpSet, width: int) -> int:
    # rebuilt from the public fields, independently of the kernel's
    # pattern-replication trick
    m = 0
    for e in f.head:
        if e < width:
            m |= 1 << e
    t, p = f.threshold, f.period
    for c in f.residues:
        n = t + (c - t) % p
        while n < width:
            m |= 1 << n
            n += p
    return m


def brute_least_shift_subset(f1: EpSet, f2: EpSet, kmax: int) -> Optional[int]:
    """Least ``k <= kmax`` with ``k + f1`` inside ``f2`` by windowed scan.

    The window covers every threshold plus two full combined periods, which
    decides containment of eventually periodic sets exactly.
    """
    q = lcm(f1.period, f2.period)
    width = max(f1.threshold + kmax, f2.threshold) + 2 * q + 2
    m1 = _member_mask(f1, width)
    m2 = _member_mask(f2, width)
    full = (1 << width) - 1
    for k in range(kmax + 1):
        # the window covers every threshold plus two combined periods, so
        # bits shifted past it already have equal representatives inside
        if ((m1 << k) & ~m2 & full) == 0:
            return k
    return None


def _brute_shift(f1: EpSet, f2: EpSet) -> Optional[int]:
    """:func:`brute_least_shift_subset` at four times the decision bound."""
    return brute_least_shift_subset(f1, f2, 4 * decision_bound(f1, f2))


# -- suite: associativity ----------------------------------------------------

def suite_associativity(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """(a*b)*c == a*(b*c) over fixed and randomly closed families."""
    per_family = max(1, opts.samples)
    for ctx in _contexts(rng, 20):
        draw = element_drawer(rng, ctx.family)
        for _ in range(per_family):
            a = draw()
            b = draw()
            c = draw()
            lhs = ctx.mul(ctx.mul(a, b), c)
            rhs = ctx.mul(a, ctx.mul(b, c))
            res.check(lhs == rhs, "associativity broke: ({0}*{1})*{2} = {3} "
                      "but {0}*({1}*{2}) = {4}", a, b, c, lhs, rhs)


# -- suite: inverse axioms ----------------------------------------------------

def suite_inverse_axioms(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Inverse axioms, uniqueness of inverses and commuting idempotents."""
    for _, ctx, draw in _rotation(rng, opts.samples):
        a = draw()
        ai = inverse(a)
        res.check(ctx.mul(ctx.mul(a, ai), a) == a,
                  "a*a^-1*a != a for a = {0}", a)
        res.check(ctx.mul(ctx.mul(ai, a), ai) == ai,
                  "a^-1*a*a^-1 != a^-1 for a = {0}", a)
        # idempotents commute
        e = draw()
        f = draw()
        e = e if e.is_zero else Element(e.i, e.i, e.fset)
        f = f if f.is_zero else Element(f.j, f.j, f.fset)
        res.check(ctx.mul(e, f) == ctx.mul(f, e),
                  "idempotents do not commute: {0}, {1}", e, f)
        # uniqueness: anything acting like an inverse is the inverse
        x = ai if rng.random() < 0.5 else draw()
        if ctx.mul(ctx.mul(a, x), a) == a and ctx.mul(ctx.mul(x, a), x) == x:
            res.check(x == ai, "second inverse {0} found for {1}", x, a)


# -- suite: natural order -----------------------------------------------------

def suite_natural_order(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Closed-form order against the definitional check ``a == a*a^-1*b``."""
    for _, ctx, draw in _rotation(rng, opts.samples):
        b = draw()
        if rng.random() < 0.5:
            e = draw()
            e = e if e.is_zero else Element(e.i, e.i, e.fset)
            a = ctx.mul(b, e)
        else:
            a = draw()
        claimed = natural_leq(a, b)
        definitional = ctx.mul(ctx.mul(a, inverse(a)), b) == a
        res.check(claimed == definitional,
                  "order criterion says {0} for {1} vs {2} "
                  "but the definitional product check disagrees",
                  claimed, a, b)
        if not a.is_zero and not b.is_zero:
            e1 = Element(a.i, a.i, a.fset)
            e2 = Element(b.i, b.i, b.fset)
            res.check(idempotent_leq(e1, e2) == natural_leq(e1, e2),
                      "idempotent order disagrees on {0}, {1}", e1, e2)
        res.check(natural_leq(ZERO, b) and natural_leq(a, a),
                  "zero must be the minimum and the order reflexive")


# -- suite: Green's relations --------------------------------------------------

def _exact_r(ctx, a, b) -> bool:
    # a and b generate the same right ideal iff each divides the other
    return (ctx.mul(a, ctx.mul(inverse(a), b)) == b
            and ctx.mul(b, ctx.mul(inverse(b), a)) == a)


def _exact_l(ctx, a, b) -> bool:
    return (ctx.mul(ctx.mul(b, inverse(a)), a) == b
            and ctx.mul(ctx.mul(a, inverse(b)), b) == a)


def _connects(ctx, c, aa, bb) -> bool:
    # c connects a to b when c*c^-1 == a*a^-1 (``aa``) and c^-1*c == b^-1*b
    # (``bb``); the caller computes both once per search
    ci = c.inverse()
    return ctx.mul(c, ci) == aa and ctx.mul(ci, c) == bb


def _connected(ctx, a, b, members) -> bool:
    """D by explicit products: two zeros are D-related, and nonzero ``a``,
    ``b`` are when some ``(a.i, b.j, f)``, ``f`` in ``members``, connects
    them; by the product formula no other element can."""
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    aa, bb = ctx.mul(a, a.inverse()), ctx.mul(b.inverse(), b)
    return any(_connects(ctx, _triple(a.i, b.j, f), aa, bb) for f in members)


# the sweep clamps indices into [-_SWEEP_EDGE, _SWEEP_EDGE] before widening
# each pair's window by ``SWEEP_MARGIN``
_SWEEP_EDGE = 6


def _clamp(a: Element) -> Element:
    e = _SWEEP_EDGE
    return _triple(max(-e, min(e, a.i)), max(-e, min(e, a.j)), a.fset)


def _connecting_table(ctx, members, edge: int) -> list:
    """For each ``f`` in ``members``, the ``c*c^-1`` of ``c = (p, -edge, f)``
    and the ``c^-1*c`` of ``c = (-edge, q, f)`` with ``|p|, |q| <= edge``, as
    explicit products.

    ``c*c^-1`` depends only on ``(p, f)`` and ``c^-1*c`` only on ``(q, f)``,
    so member ``f``'s ``rows x cols`` is every ``(c*c^-1, c^-1*c)`` over its
    ``(p, q)`` square; :func:`_table_connects` looks a pair up.
    """
    mul = ctx.mul
    span = range(-edge, edge + 1)
    table = []
    for f in members:
        rows, cols = set(), set()
        for k in span:
            c = _triple(k, -edge, f)
            rows.add(mul(c, c.inverse()))
            c = _triple(-edge, k, f)
            cols.add(mul(c.inverse(), c))
        table.append((rows, cols))
    return table


def _table_connects(table, aa, bb) -> bool:
    """Whether some ``c`` of :func:`_connecting_table` has ``c*c^-1 == aa``
    and ``c^-1*c == bb``."""
    return any(aa in rows and bb in cols for rows, cols in table)


def _solvable(mul, a, b, span, members, left: bool) -> bool:
    """Whether ``a*x == b`` (``left``) or ``x*a == b`` holds for some ``x =
    (p, q, f)`` with ``p, q`` in ``span`` and ``f`` in ``members``, by
    explicit products.  Each row (column) gets one product first, and the
    rest only if that one has ``b``'s index and set; see
    :func:`_sweep_family` for why."""
    lo = span[0]
    want = b.fset
    for k in span:
        for f in members:
            if left:
                c = mul(a, _triple(k, lo, f))
                if c.i != b.i or not (c.fset is want or c.fset == want):
                    continue
                if any(mul(a, _triple(k, q, f)) == b for q in span):
                    return True
            else:
                c = mul(_triple(lo, k, f), a)
                if c.j != b.j or not (c.fset is want or c.fset == want):
                    continue
                if any(mul(_triple(p, k, f), a) == b for p in span):
                    return True
    return False


def _sweep_family(res: SuiteResult, ctx, pairs) -> None:
    """The green suite's from-scratch sweep over one family's clamped pairs.

    R and L search each pair's window, ``[lo, hi]^2 x nonempty members``
    with ``lo``/``hi`` the pair's extreme indices widened by
    ``SWEEP_MARGIN``, for ``x`` with ``sa*x == sb`` (``x*sa == sb``) and
    back, through :func:`_solvable`.  By the product formula every product
    in a row ``(p, f)`` of ``sa*(p, q, f)`` shares its first index and set,
    so one product that misses ``sb``'s rules the row out; the search
    still multiplies out every row that could hold a hit.  L is the same
    over columns ``(q, f)`` and the second index.  D looks the pair's
    ``(sa*sa^-1, sb^-1*sb)`` up in :func:`_connecting_table` over the widest
    window any pair can have; see :func:`suite_green` for why that verdict
    equals the per-window search.
    """
    members = ctx.family.nonempty_members
    mul = ctx.mul
    table = _connecting_table(ctx, members, _SWEEP_EDGE + SWEEP_MARGIN)
    for sa, sb in pairs:
        lo = min(sa.i, sa.j, sb.i, sb.j) - SWEEP_MARGIN
        hi = max(sa.i, sa.j, sb.i, sb.j) + SWEEP_MARGIN
        span = range(lo, hi + 1)
        got_r = (_solvable(mul, sa, sb, span, members, True)
                 and _solvable(mul, sb, sa, span, members, True))
        got_l = (_solvable(mul, sa, sb, span, members, False)
                 and _solvable(mul, sb, sa, span, members, False))
        got_d = _table_connects(table, mul(sa, sa.inverse()),
                                mul(sb.inverse(), sb))
        res.check(green(sa, sb, "R") == got_r,
                  "R sweep disagrees on {0}, {1}", sa, sb)
        res.check(green(sa, sb, "L") == got_l,
                  "L sweep disagrees on {0}, {1}", sa, sb)
        res.check(green(sa, sb, "D") == got_d,
                  "D sweep disagrees on {0}, {1}", sa, sb)


def suite_green(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Closed-form Green criteria against product-level witnesses.

    For R and L the solvability of ``a*x == b`` reduces exactly to the
    single candidate ``x = a^-1*b``, so the product check is complete, not
    a sampled sweep.  D is checked through connecting elements, J through
    brute-force shift scans at four times the decision bound.

    A bounded structured sweep then re-confirms the first
    ``SWEEP_PAIRS`` pairs of nonzero elements from scratch, with
    indices clamped into ``[-6, 6]``.  The pairs are collected during the
    sample loop and swept per family after it (:func:`_sweep_family`), so
    a sweep failure is reported after every per-sample one.  Each family
    gets its own table of connecting elements, built once over the widest
    window and dropped before the next family's.  A pair's D
    sweep asks whether its ``(sa*sa^-1, sb^-1*sb)`` is in that table.  Every
    window's candidates lie in the table's, so a hit inside the window is
    a hit in the table; a hit outside it is a ``c`` with ``c R sa`` and
    ``c L sb``, so a D witness all the same.  The verdict therefore stays a
    product-level existence search.  By the product formula the only
    possible hit is ``(sa.i, sb.j, sa.fset)``, which lies in every pair's
    window, so the verdict also equals the per-window search's.  The table
    keeps, per member ``f``, the ``c*c^-1`` of its rows and the ``c^-1*c``
    of its columns: the first depends only on ``(p, f)`` and the second
    only on ``(q, f)``, so ``rows x cols`` is that member's whole square.

    The R and L sweeps search the pair's own window by rows.  By the
    product formula ``sa*(p, q, f)`` has one first index and one set for
    every ``q``, and ``(p, q, f)*sa`` one second index and one set for
    every ``p``.  So if one product of a row misses the target's index or
    set, every product of that row does, and the row is skipped after that
    one product; the rows that could hold a hit are multiplied out in full.
    The verdict is the full-square search's.
    """
    sweeps = {}  # slot -> (context, pairs), swept in slot order
    swept = 0
    for slot, ctx, draw in _rotation(rng, opts.samples, zero_prob=0.03):
        a = draw()
        b = draw()
        if rng.random() < 0.4 and not (a.is_zero or b.is_zero):
            # same set, and often a shared index, so true cases are common
            b = Element(a.i if rng.random() < 0.5 else b.i,
                        b.j, a.fset)

        for rel, exact in (("R", _exact_r), ("L", _exact_l)):
            claimed = green(a, b, rel)
            res.check(claimed == exact(ctx, a, b),
                      "{0} criterion says {1} on {2}, {3} but "
                      "the divisibility products disagree", rel, claimed, a, b)
            if claimed and not a.is_zero:
                x, y = green_witness(a, b, rel)
                if rel == "R":
                    ok = ctx.mul(a, x) == b and ctx.mul(b, y) == a
                else:
                    ok = ctx.mul(x, a) == b and ctx.mul(y, b) == a
                res.check(ok, "{0} witness products failed for {1}, {2}",
                          rel, a, b)

        claimed_h = green(a, b, "H")
        res.check(claimed_h == (green(a, b, "R") and green(a, b, "L")),
                  "H must be R meet L")
        res.check(claimed_h == (a == b),
                  "H-related but distinct: {0}, {1}", a, b)

        claimed_d = green(a, b, "D")
        found = _connected(ctx, a, b, ctx.family.nonempty_members)
        res.check(claimed_d == found,
                  "D criterion says {0} on {1}, {2} but the "
                  "connecting-element search disagrees", claimed_d, a, b)

        claimed_j = green(a, b, "J")
        if a.is_zero or b.is_zero:
            brute_j = a.is_zero and b.is_zero
        else:
            k = _brute_shift(a.fset, b.fset)
            brute_j = (k is not None
                       and _brute_shift(b.fset, a.fset) is not None)
            if brute_j:
                dominated = Element(b.i + k, b.j + k, a.fset)
                res.check(
                    ctx.mul(ctx.mul(dominated, inverse(dominated)), b)
                    == dominated and green(dominated, a, "D"),
                    "domination witness failed on {0}, {1}", a, b)
        res.check(claimed_j == brute_j,
                  "J criterion says {0} on {1}, {2} but the "
                  "brute scan disagrees", claimed_j, a, b)

        if swept < SWEEP_PAIRS and not (a.is_zero or b.is_zero):
            swept += 1
            pairs = sweeps.setdefault(slot, (ctx, []))[1]
            pairs.append((_clamp(a), _clamp(b)))

    for _, (ctx, pairs) in sorted(sweeps.items()):
        _sweep_family(res, ctx, pairs)


# -- suite: product oracle -----------------------------------------------------

def suite_oracle(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Triple product against pointwise composition of restricted shifts."""
    ctx = _free_ctx()
    for _ in range(opts.samples):
        a = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        b = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        f1 = random_epset(rng)
        f2 = random_epset(rng)

        # commuting square: composing shifts matches the pair product
        res.check(
            partial_shift_iso(compose_shifts(a, b))
            == ext_bicyclic_mul(partial_shift_iso(a), partial_shift_iso(b)),
            "index composition square broke on {0}, {1}", a, b)

        if f1.is_empty or f2.is_empty:
            continue
        ea = Element(a.i, a.j, f1)
        eb = Element(b.i, b.j, f2)
        prod = ctx.mul(ea, eb)
        comp = compose_shifts(a, b)
        # widen until the window covers every translation plus each set's
        # threshold and two full periods
        width = max(ORACLE_WINDOW,
                    3 * max(abs(a.i), abs(a.j), abs(b.i), abs(b.j))
                    + max(f1.threshold + 2 * f1.period,
                          f2.threshold + 2 * f2.period) + 16)
        pointwise = restricted_compose_dom(a, f1, b, f2, width)
        if prod.is_zero:
            res.check(not pointwise, "{0}*{1} collapsed to zero but the "
                      "pointwise domain is nonempty", ea, eb)
            continue
        res.check((prod.i, prod.j) == (comp.i, comp.j),
                  "indices of {0}*{1} = {2} disagree with {3}",
                  ea, eb, prod, comp)
        translated = frozenset(
            prod.i + m
            for m in prod.fset.members(width - prod.i + 1)
            if -width <= prod.i + m <= width)
        res.check(translated == pointwise, "set component of {0}*{1} "
                  "disagrees with the pointwise composition domain", ea, eb)
        base, s = restricted_compose_dom_closed(a, f1, b, f2)
        res.check(base == prod.i and s == prod.fset,
                  "closed-form domain disagrees with product on {0}, {1}",
                  ea, eb)


# -- suite: classification ------------------------------------------------------

def suite_classification(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Golden structure verdicts plus randomized cross-validation."""
    for k in (0, 1, 2, 5, 8):
        r = classify(SemigroupCtx(close([EpSet.ray(k)])))
        res.check(
            r.iso_type == ISO_EXTENDED_BICYCLIC and r.bisimple and r.simple
            and r.e_unitary and not r.has_zero and r.d_classes == 1,
            "ray family [{0}) misclassified: {1}", k, r.iso_type)
    for k in (0, 1, 3, 5, 7):
        r = classify(SemigroupCtx(close([EpSet.of(k)])))
        res.check(
            r.iso_type == ISO_MATRIX_UNITS and r.iso_params == (k,)
            and r.zero_bisimple and r.zero_simple and not r.simple
            and not r.e_unitary,
            "singleton family {{{0}}} misclassified: {1}", k, r.iso_type)
    for i0, j0 in ((2, 3), (0, 2), (1, 4), (3, 1), (5, 5)):
        r = classify(SemigroupCtx(Family([EMPTY, EpSet.progression(i0, j0)])))
        res.check(
            r.iso_type == ISO_PROGRESSION and r.iso_params == (i0, j0)
            and r.zero_bisimple and r.has_zero,
            "progression family {0}+{1}*w misclassified: {2}{3}",
            i0, j0, r.iso_type, r.iso_params)
    r = classify(SemigroupCtx(Family([EMPTY])))
    res.check(r.iso_type == ISO_TRIVIAL and r.has_identity and r.bisimple,
              "trivial family misclassified: {0}", r.iso_type)

    per_family = max(1, opts.samples // 24)
    for _ in range(24):
        fam = random_closed_family(rng)
        ctx = SemigroupCtx(fam)
        r = classify(ctx)
        members = fam.nonempty_members
        # the brute scans, not the kernel's shift search that classify uses
        all_j = all(_brute_shift(f, g) is not None
                    for f in members for g in members)
        if r.has_zero:
            res.check(r.zero_simple == (bool(members) and all_j),
                      "zero-simplicity disagrees with J-universality on {0}",
                      fam)
            res.check(not r.simple, "a semigroup with zero is not simple")
        else:
            res.check(r.simple == all_j,
                      "simplicity disagrees with J-universality on {0}", fam)
        res.check(r.d_classes == d_class_count(ctx) == len(members),
                  "D-class count mismatch")

        draw = element_drawer(rng, fam)
        for _ in range(per_family):
            a = draw()
            b = draw()
            if r.bisimple:
                res.check(_connected(ctx, a, b, members),
                          "bisimple family but {0}, {1} are not D-related",
                          a, b)
            # E-unitarity scan: idempotents sitting below a non-idempotent
            # s, which is nonzero as the zero is idempotent
            s = draw()
            if not is_idempotent(s):
                idempotents = [ZERO] if fam.has_empty else []
                idempotents += [Element(s.i + k, s.i + k, f)
                                for k in range(3) for f in members]
                for e in idempotents:
                    if natural_leq(e, s):
                        res.check(not r.e_unitary, "claimed E-unitary yet "
                                  "{0} <= {1} with {1} not idempotent", e, s)
            # identity probes
            if not r.has_identity and members:
                f = rng.choice(members)
                i = rng.randint(-INDEX_SPAN, INDEX_SPAN)
                e = Element(i, i, f)
                x = Element(i - 1, i - 1, f)
                res.check(ctx.mul(e, x) != x,
                          "identity candidate {0} unexpectedly fixes {1}",
                          e, x)
        if not r.bisimple:
            f1, f2 = fam.members[0], fam.members[1]
            x = ZERO if f1.is_empty else Element(0, 0, f1)
            y = ZERO if f2.is_empty else Element(0, 0, f2)
            res.check(not _connected(ctx, x, y, members),
                      "non-bisimple family with D-universal witnesses")


# -- suite: morphisms -----------------------------------------------------------

def _element_or_zero(rng: Random, fset: EpSet, span: int,
                     zero_prob: float) -> Element:
    """``ZERO`` if ``rng.random() < zero_prob``, else an element with set
    ``fset`` and two indices from ``rng.randint(-span, span)``."""
    if rng.random() < zero_prob:
        return ZERO
    return Element(rng.randint(-span, span), rng.randint(-span, span), fset)


def _hom_sigma(res: SuiteResult, rng: Random, opts: SuiteOptions):
    k = rng.randint(0, 4)
    fam = close([EpSet.ray(k)]) if rng.random() < 0.5 else Family(
        [EpSet.ray(j) for j in range(k, k + rng.randint(1, 3))])
    ctx = SemigroupCtx(fam)
    draw = element_drawer(rng, fam)
    for _ in range(opts.samples):
        a = draw()
        b = draw()
        res.check(sigma_hom(ctx.mul(a, b), ctx)
                  == sigma_hom(a, ctx) + sigma_hom(b, ctx),
                  "sigma not additive on {0}, {1}", a, b)
        # congruence classes are the fibers: scan for a merging idempotent
        same = sigma_hom(a, ctx) == sigma_hom(b, ctx)
        hi = max(a.i, b.i)
        merged = any(
            ctx.mul(e, a) == ctx.mul(e, b)
            for m in range(hi, hi + 3)
            for f in fam.members
            for e in (Element(m, m, f),))
        res.check(same == merged, "sigma classes say {0} on {1}, {2} but "
                  "the merging-idempotent scan disagrees", same, a, b)


def _hom_ext_bicyclic(res: SuiteResult, rng: Random, opts: SuiteOptions):
    k = rng.randint(0, 6)
    ctx = SemigroupCtx(close([EpSet.ray(k)]))
    f = ctx.family.members[0]
    for _ in range(opts.samples):
        a = Element(rng.randint(-20, 20), rng.randint(-20, 20), f)
        b = Element(rng.randint(-20, 20), rng.randint(-20, 20), f)
        fa, fb = to_ext_bicyclic(ctx, a), to_ext_bicyclic(ctx, b)
        res.check(to_ext_bicyclic(ctx, ctx.mul(a, b))
                  == ext_bicyclic_mul(fa, fb),
                  "pair map not a homomorphism on {0}, {1}", a, b)
        res.check((fa == fb) == (a == b), "pair map must be injective")
        # surjectivity: explicit preimage
        tgt = ExtBicyclicElt(rng.randint(-20, 20), rng.randint(-20, 20))
        res.check(to_ext_bicyclic(ctx, Element(tgt.i, tgt.j, f)) == tgt,
                  "pair map must be surjective")
        s1 = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        s2 = PartialShift(rng.randint(-16, 16), rng.randint(-16, 16))
        res.check(partial_shift_iso(compose_shifts(s1, s2))
                  == ext_bicyclic_mul(partial_shift_iso(s1),
                                      partial_shift_iso(s2)),
                  "shift composition square broke on {0}, {1}", s1, s2)


def _hom_matrix_units(res: SuiteResult, rng: Random, opts: SuiteOptions):
    k = rng.randint(0, 8)
    ctx = SemigroupCtx(close([EpSet.of(k)]))
    fset = EpSet.of(k)
    for _ in range(opts.samples):
        a = _element_or_zero(rng, fset, 20, 0.08)
        b = _element_or_zero(rng, fset, 20, 0.08)
        if rng.random() < 0.5 and not (a.is_zero or b.is_zero):
            b = Element(a.j, b.j, fset)  # hit the nonzero product case
        fa, fb = to_matrix_units(ctx, a), to_matrix_units(ctx, b)
        res.check(to_matrix_units(ctx, ctx.mul(a, b))
                  == matrix_unit_mul(fa, fb),
                  "matrix-unit map not a homomorphism on {0}, {1}", a, b)
        na, nb = to_matrix_units_nat(ctx, a), to_matrix_units_nat(ctx, b)
        res.check(to_matrix_units_nat(ctx, ctx.mul(a, b))
                  == matrix_unit_mul(na, nb),
                  "natural-indexed matrix-unit map not a homomorphism")
        res.check((fa == fb) == (a == b), "matrix-unit map must be injective")


def _hom_brandt(res: SuiteResult, rng: Random, opts: SuiteOptions):
    ctx = singleton_ctx()
    hits = set()
    splits = [(case, match) for case in (-1, 0, 1) for match in (False, True)]
    for i in range(opts.samples):
        k1, k2 = rng.randint(0, 8), rng.randint(0, 8)
        j1 = rng.randint(-12, 12)
        case = rng.choice((-1, 0, 1))
        match = rng.random() < 0.5
        if i < len(splits):
            # the first samples visit every split, so a few samples cover all
            case, match = splits[i]
        if case == 0:
            i2 = j1
            if not match and k1 == k2:
                k2 = k1 + 1
            if match:
                k2 = k1
        else:
            d = rng.randint(1, 6) * case
            i2 = j1 + d
            if match:
                # inner indices line up: j1 + k1 == i2 + k2
                k2 = j1 + k1 - i2
                if k2 < 0:
                    k1 += -k2
                    k2 = 0
            elif j1 + k1 == i2 + k2:
                k2 += 1
        a = Element(rng.randint(-12, 12), j1, EpSet.of(k1))
        b = Element(i2, rng.randint(-12, 12), EpSet.of(k2))
        hits.add((case, a.j + k1 == b.i + k2))
        lhs = to_brandt(ctx.mul(a, b))
        rhs = brandt_mul(to_brandt(a), to_brandt(b))
        res.check(lhs == rhs, "triple map not a homomorphism on {0}, {1}: "
                  "{2} vs {3}", a, b, lhs, rhs)
    res.check(len(hits) == min(len(splits), opts.samples),
              "not all six product case splits were exercised: {0}",
              sorted(hits))
    # surjectivity: explicit preimages of random codomain triples
    for _ in range(min(opts.samples, 500)):
        left, mid = rng.randint(-12, 12), rng.randint(0, 10)
        right = rng.randint(-12, 12)
        pre = Element(left - mid, right - mid, EpSet.of(mid))
        res.check(to_brandt(pre) == BrandtElt(left, mid, right),
                  "triple map must be surjective")


def _hom_reindex(res: SuiteResult, rng: Random, opts: SuiteOptions):
    j0 = rng.randint(1, 5)
    i1, i2 = rng.randint(0, 8), rng.randint(0, 8)
    c1 = SemigroupCtx(Family([EMPTY, EpSet.progression(i1, j0)]))
    c2 = SemigroupCtx(Family([EMPTY, EpSet.progression(i2, j0)]))
    fset = EpSet.progression(i1, j0)
    for _ in range(opts.samples):
        a = _element_or_zero(rng, fset, 16, 0.06)
        b = _element_or_zero(rng, fset, 16, 0.06)
        fa = progression_reindex(a, i1, i2, j0)
        fb = progression_reindex(b, i1, i2, j0)
        res.check(progression_reindex(c1.mul(a, b), i1, i2, j0)
                  == c2.mul(fa, fb),
                  "progression reindexing not a homomorphism on {0}, {1}",
                  a, b)
    res.check(progression_reindex(ZERO, i1, i2, j0) is ZERO,
              "reindexing must fix the zero")


_HOM_SUITES: Dict[str, Callable] = {
    "sigma": _hom_sigma,
    "ext-bicyclic": _hom_ext_bicyclic,
    "shift-iso": _hom_ext_bicyclic,
    "matrix-units": _hom_matrix_units,
    "brandt": _hom_brandt,
    "reindex": _hom_reindex,
}


def run_check_hom(name: str, opts: SuiteOptions) -> SuiteResult:
    return _run(f"hom-{name}", _HOM_SUITES[name], opts)


def suite_morphisms(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Homomorphism, injectivity and surjectivity checks for every map."""
    for body in (_hom_sigma, _hom_ext_bicyclic, _hom_matrix_units,
                 _hom_brandt, _hom_reindex):
        body(res, rng, opts)


# -- suite: family machinery -----------------------------------------------------

def suite_family_machinery(res: SuiteResult, rng: Random, opts: SuiteOptions):
    """Closure really closes, and bounded scans match widened brute force."""
    done = 0
    while done < 100:
        gens = [random_epset(rng)
                for _ in range(rng.randint(1, 3))]
        try:
            # the sampling contract keeps random families small
            fam = close(gens, cap=FAMILY_CAP)
        except ClosureDiverged:
            continue
        done += 1
        ok, witness = is_omega_closed(fam.members)
        res.check(ok, "closure of {0} not closed: witness {1}",
                  [str(g) for g in gens], witness)
        res.check(close(fam.members, cap=len(fam) + 1) == fam,
                  "closure must be idempotent")
        try:
            bigger = close(list(gens) + [random_epset(rng)], cap=64)
        except ClosureDiverged:
            pass
        else:
            res.check(all(f in bigger for f in fam.members),
                      "closure must be monotone in its generators")
    for _ in range(opts.samples):
        f1 = random_epset(rng)
        f2 = random_epset(rng)
        got = exists_shift_subset(f1, f2)
        brute = _brute_shift(f1, f2)
        res.check(got == brute, "shift-containment scan: {0} vs brute {1} "
                  "on {2}, {3}", got, brute, f1, f2)
        if got is not None:
            res.check(is_subset(shift(f1, got), f2),
                      "reported shift does not actually embed")


# -- registry -----------------------------------------------------------------

SUITES: Dict[str, Callable[[SuiteOptions], SuiteResult]] = {
    name: partial(_run, name, body) for name, body in {
        "associativity": suite_associativity,
        "inverse-axioms": suite_inverse_axioms,
        "natural-order": suite_natural_order,
        "green": suite_green,
        "oracle": suite_oracle,
        "classification": suite_classification,
        "morphisms": suite_morphisms,
        "family-machinery": suite_family_machinery,
    }.items()
}


def run_suite(name: str, opts: Optional[SuiteOptions] = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {', '.join(sorted(SUITES))}")
    return SUITES[name](opts or SuiteOptions())
