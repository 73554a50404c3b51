"""Possibility calculus on top of a consonant contour.

A contour with sup pi = 1 induces a possibility measure (upper probability)
by maximization and, by duality, a necessity measure (lower probability):

    upper(A) = max_{y in A} pi(y)          upper(empty) = 0
    lower(A) = 1 - upper(complement of A)

The lower probability of a consonant contour is a belief function whose
Moebius mass sits on a nested chain of focal events (:func:`focal_chain`);
the induced upper/lower pair also passes every k-alternating/k-monotone
test within budget.  Both facts are checkable here: :func:`mass_from_belief`
inverts any belief function exactly, and :func:`check_k_monotone` /
:func:`check_k_alternating` sweep all collections of distinct events up
to size k.

Maximization makes the calculus tropical: events under union map to values
under max (:func:`tropical_sum`), turning finite additivity into the
max-plus analogue tested in the property suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ._num import FLOAT_TOL, Scalar, common_integers, tolerance, zero_like
from .errors import (
    BudgetExceeded,
    EmptyList,
    NegativeMass,
    NonConsonantContour,
    SpaceTooLarge,
)
from .outcome import MAX_ENUM, Event, complement
from .transducer import Contour

__all__ = [
    "is_consonant",
    "upper_prob",
    "lower_prob",
    "UpperLowerPair",
    "upper_table",
    "MassFunction",
    "mass_from_belief",
    "focal_chain",
    "FocalSet",
    "focal_elements",
    "Witness",
    "CheckResult",
    "check_k_monotone",
    "check_k_alternating",
    "Cloud",
    "cloud_gamma",
    "tropical_sum",
]

def is_consonant(c: Contour) -> bool:
    """True when the contour attains 1 somewhere (decided when it was built)."""
    return c._consonant


def _require_consonant(c: Contour):
    if not c._consonant:
        raise NonConsonantContour(
            "contour does not attain 1; apply an adjustment first"
        )


def _check_space(c: Contour, space):
    if space is not None and space != c.space:
        raise ValueError("space does not match the contour's space")


def _check_event(c: Contour, event: Event):
    if event.space_size != c.size:
        raise ValueError("event does not belong to the contour's space")


def upper_prob(c: Contour, event: Event) -> Scalar:
    """Possibility of an event: max of the contour over it.

    The value of the first entry of the contour's level chain whose bit is
    in the event's mask; on a random event that takes about two steps.
    """
    _require_consonant(c)
    _check_event(c, event)
    mask = event.mask
    for bit, value, _ in c.chain:
        if mask & bit:
            return value
    return zero_like(c.values)


def lower_prob(c: Contour, event: Event) -> Scalar:
    """Necessity of an event, dual to :func:`upper_prob`: 1 - upper(A^c).

    The stored ``1 - value`` of the first chain entry outside the mask.
    """
    _require_consonant(c)
    _check_event(c, event)
    mask = event.mask
    for bit, _, rest in c.chain:
        if not mask & bit:
            return rest
    return 1 - zero_like(c.values)


def focal_chain(c: Contour) -> list[tuple[Event, Scalar]]:
    """The Moebius masses of the lower probability: ``(A_i, m(A_i))`` pairs.

    With distinct levels ``l_1 = 1 > ... > l_m`` and ``l_{m+1} = 0``, the
    focal sets are ``A_i = {pi >= l_i}`` and ``m(A_i) = l_i - l_{i+1}``,
    innermost first, read off :attr:`Contour.chain` with ties merged: no
    2^K table, any K.  Masses are Fractions on a rank contour and use the
    values' own arithmetic otherwise.
    """
    _require_consonant(c)
    chain = c.chain
    belows = [value for _, value, _ in chain[1:]] + [zero_like(c.values)]
    out = []
    mask = 0
    for (bit, value, _), below in zip(chain, belows):
        mask |= bit
        if (mass := value - below) > 0:
            out.append((Event.from_mask(mask, c.size), mass))
    return out


def upper_table(c: Contour) -> list:
    """Possibility of every event, indexed by bitmask.  O(2^K)."""
    table = _max_table(c).tolist()
    table[0] = zero_like(c.values)
    if c.ranks is not None:  # map ranks back to the contour's values
        value_of = dict(zip(c.ranks.tolist(), c.values))
        table[1:] = [value_of[k] for k in table[1:]]
    return table


@dataclass
class UpperLowerPair:
    """A contour's possibility/necessity pair with per-event memoization.

    Repeated queries against the same contour (region sweeps, credal
    membership over many events) hit the cache; the cache key is the event
    bitmask, so two ``Event`` objects naming the same subset share an entry.
    """

    contour: Contour
    cache: dict = None

    def __post_init__(self):
        _require_consonant(self.contour)
        if self.cache is None:
            self.cache = {}

    def upper(self, event: Event) -> Scalar:
        _check_event(self.contour, event)
        key = event.mask
        if key not in self.cache:
            self.cache[key] = upper_prob(self.contour, event)
        return self.cache[key]

    def lower(self, event: Event) -> Scalar:
        return 1 - self.upper(complement(event))


def _max_table(c: Contour, levels: np.ndarray | None = None) -> np.ndarray:
    """The largest of ``levels`` in every event, indexed by bitmask.

    ``levels`` (default ``c.levels``) may be any array that orders the
    outcomes as the values do, such as integers over a shared denominator.
    Doubling: the events containing outcome j are the events without it,
    each with j added, so ``t[2^j:2^(j+1)] = max(levels[j], t[:2^j])``.  On
    a tie the level wins, so every nonempty event holds one of the given
    levels; the empty event holds 0.
    """
    if c.size > MAX_ENUM:
        raise SpaceTooLarge(f"2^{c.size} events exceed the enumeration budget")
    _require_consonant(c)
    if levels is None:
        levels = c.levels
    table = np.zeros(1 << len(levels), dtype=levels.dtype)
    for j, k in enumerate(levels.tolist()):
        np.maximum(k, table[: 1 << j], out=table[1 << j : 2 << j])
    return table


@dataclass(frozen=True)
class MassFunction:
    """Moebius masses of a belief function, keyed by focal event."""

    space_size: int
    masses: dict

    def __post_init__(self):
        for ev, m in self.masses.items():
            if ev.space_size != self.space_size:
                raise ValueError("focal event from a different space")
            if len(ev) == 0:
                raise ValueError("empty set cannot carry mass")
            if m <= 0:
                raise NegativeMass(f"mass {m} at {ev.indices} must be positive")
        total = sum(self.masses.values())
        if abs(total - 1) > tolerance(self.masses.values()):
            raise ValueError(f"masses sum to {total}, expected 1")

    def belief(self, event: Event) -> Scalar:
        """Total mass of focal events inside ``event``."""
        outside = ~event.mask
        vals = [m for ev, m in self.masses.items() if not ev.mask & outside]
        return sum(vals) if vals else zero_like(self.masses.values())

    def plausibility(self, event: Event) -> Scalar:
        """Total mass of focal events hitting ``event``."""
        target = event.mask
        vals = [m for ev, m in self.masses.items() if ev.mask & target]
        return sum(vals) if vals else zero_like(self.masses.values())


def mass_from_belief(bel: Callable[[Event], Scalar], space) -> MassFunction:
    """Moebius inversion m(A) = sum_{B subset A} (-1)^|A-B| bel(B).

    ``bel`` is evaluated once per event; the alternating sum is the
    in-place fast subset transform (Kennes & Smets), O(K * 2^K), run over
    one numpy array: int64 numerators over a common denominator when the
    values are all Fractions or all ints and ``max|num| * 2^K < 2^63`` (no
    partial sum can then overflow), and otherwise -- floats, mixed kinds,
    denominators past the cap, integers that could overflow -- an object
    array, which repeats the Python arithmetic of a loop and so keeps each
    mass's kind.  Exact when ``bel`` returns rationals; with floats,
    masses within ``FLOAT_TOL`` of 0 are dropped.
    Raises :class:`NegativeMass`, naming the smallest mask, when the input
    is not a belief function (some mass comes out negative beyond that
    tolerance).
    """
    k = space.size
    if k > MAX_ENUM:
        raise SpaceTooLarge(f"2^{k} events exceed the enumeration budget")
    f = [bel(Event.from_mask(m, k)) for m in range(1 << k)]
    tol = tolerance(f)
    if abs(f[0]) > tol:
        raise ValueError("bel(empty) must be 0")
    if abs(f[-1] - 1) > tol:
        raise ValueError("bel(full space) must be 1")

    kinds = set(map(type, f))
    scaled = common_integers(f) if len(kinds) == 1 else None
    den = None  # the scale of int64 numerators of Fractions
    if scaled is not None and max(map(abs, scaled[0])) << k < 1 << 63:
        table = np.array(scaled[0], dtype=np.int64)
        if kinds == {Fraction}:
            den = scaled[1]
    else:
        table = np.array(f, dtype=object)
    for j in range(k):
        pairs = table.reshape(-1, 2, 1 << j)
        pairs[:, 1, :] -= pairs[:, 0, :]

    def mass(m):
        return table.item(m) if den is None else Fraction(table.item(m), den)

    negative = np.flatnonzero(table[1:] < -tol)
    if negative.size:
        m = int(negative[0]) + 1
        raise NegativeMass(
            f"mass {mass(m)} at mask {m:b}; input is not a belief function"
        )
    focal = (np.flatnonzero(table[1:] > tol) + 1).tolist()
    return MassFunction(k, {Event.from_mask(m, k): mass(m) for m in focal})


@dataclass(frozen=True)
class FocalSet:
    """Focal events of a mass function, sorted by cardinality then indices."""

    elements: tuple[Event, ...]
    nested: bool


def focal_elements(m: MassFunction) -> FocalSet:
    """Focal events plus whether they form a nested chain.

    Nestedness of the focal set is exactly consonance of the induced
    plausibility; sorting by cardinality makes the chain check a single
    pass over consecutive pairs.
    """
    elems = sorted(m.masses, key=lambda e: (len(e), e.indices))
    nested = all(a.issubset(b) for a, b in zip(elems, elems[1:]))
    return FocalSet(tuple(elems), nested)


@dataclass(frozen=True)
class Witness:
    """First violating collection found by a capacity check."""

    target: Event
    collection: tuple[Event, ...]
    lhs: Scalar
    rhs: Scalar


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    k: int
    kind: str
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.ok


def _submasks(mask: int) -> list[int]:
    out = []
    s = mask
    while True:
        out.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    out.reverse()
    return out


@lru_cache(maxsize=32)  # pools are 2^i <= 64 events and j <= 4: 28 keys at most
def _combination_index(n: int, j: int) -> np.ndarray:
    """Every j-combination of ``range(n)`` in lexicographic order, one per
    row of a read-only ``(C(n, j), j)`` int64 array."""
    combos = np.fromiter(
        (i for c in combinations(range(n), j) for i in c), dtype=np.int64
    ).reshape(-1, j)
    combos.flags.writeable = False
    return combos


def _scan_capacity(table, k: int, space_size: int, alternating: bool):
    """Shared sweep for the k-monotone / k-alternating checks.

    Targets in cardinality-then-lexicographic order; for each target the
    admissible pool is its subsets (monotone) or supersets (alternating),
    and every combination of 1..k distinct pool events is tested with the
    inclusion-exclusion bound.  Numpy evaluates whole combination blocks;
    rational capacities are rescaled to a common integer denominator so the
    comparison is exact, float capacities treat violations within
    ``FLOAT_TOL`` as ties.  Returns the first violation as
    (target, combo_masks, rhs) -- rhs a Fraction when exact, else a float --
    or None.
    """
    full = (1 << space_size) - 1
    scaled = common_integers(table)
    if scaled is not None:
        arr, den = np.array(scaled[0], dtype=np.int64), scaled[1]
        tol = 0
    else:
        arr = np.array([float(v) for v in table])
        tol = FLOAT_TOL

    targets = sorted(range(full + 1), key=lambda m: (bin(m).count("1"), m))
    for a in targets:
        if alternating:
            pool = [a | x for x in _submasks(full ^ a)]
        else:
            pool = _submasks(a)
        pool_arr = np.array(pool, dtype=np.int64)
        for j in range(1, k + 1):
            if j > len(pool):
                break
            combos = _combination_index(len(pool), j)
            masks = pool_arr[combos]
            rhs = np.zeros(len(combos), dtype=arr.dtype)
            for r in range(1, j + 1):
                sign = 1 if r % 2 else -1
                for cols in combinations(range(j), r):
                    m = masks[:, cols[0]]
                    for col in cols[1:]:
                        m = (m | masks[:, col]) if alternating else (m & masks[:, col])
                    rhs = rhs + sign * arr[m]
            if alternating:
                bad = arr[a] > rhs + tol
            else:
                bad = arr[a] < rhs - tol
            hits = np.flatnonzero(bad)
            if hits.size:
                first = int(hits[0])
                bound = Fraction(int(rhs[first]), den) if scaled else float(rhs[first])
                return a, tuple(int(m) for m in masks[first]), bound
    return None


def _run_check(nu, k, space, alternating: bool) -> CheckResult:
    if space.size > 6:
        raise BudgetExceeded("capacity checks support at most 6 outcomes")
    if not 2 <= k <= 4:
        raise BudgetExceeded("capacity checks support 2 <= k <= 4")
    table = [nu(Event.from_mask(m, space.size)) for m in range(1 << space.size)]
    kind = "alternating" if alternating else "monotone"
    found = _scan_capacity(table, k, space.size, alternating)
    if found is None:
        return CheckResult(True, k, kind)
    a_mask, combo_masks, rhs = found
    witness = Witness(
        target=Event.from_mask(a_mask, space.size),
        collection=tuple(Event.from_mask(m, space.size) for m in combo_masks),
        lhs=table[a_mask],
        rhs=rhs,
    )
    return CheckResult(False, k, kind, witness)


def check_k_monotone(nu: Callable[[Event], Scalar], k: int, space) -> CheckResult:
    """Test nu(A) >= sum_I (-1)^(|I|+1) nu(intersection of A_i in I).

    Collections range over distinct subsets A_i of each target A, sizes 1
    through k; size 1 is plain monotonicity.  Budget: K <= 6, k <= 4.
    """
    return _run_check(nu, k, space, alternating=False)


def check_k_alternating(nu: Callable[[Event], Scalar], k: int, space) -> CheckResult:
    """Test nu(A) <= sum_I (-1)^(|I|+1) nu(union of A_i in I).

    Dual of :func:`check_k_monotone`: collections range over distinct
    supersets A_i of each target A.  Budget: K <= 6, k <= 4.
    """
    return _run_check(nu, k, space, alternating=True)


@dataclass(frozen=True)
class Cloud:
    """Thin pair of contours gamma <= pi with min gamma = 0, max pi = 1."""

    gamma: Contour
    pi: Contour

    def __post_init__(self):
        if self.gamma.space != self.pi.space:
            raise ValueError("cloud contours must share a space")
        pairs = zip(self.gamma.values, self.pi.values)
        if any(g > p for g, p in pairs):
            raise ValueError("need gamma <= pi pointwise")
        if min(self.gamma.values) != 0:
            raise ValueError("gamma must vanish somewhere")
        if max(self.pi.values) != 1:
            raise ValueError("pi must attain 1")


def cloud_gamma(c: Contour) -> Cloud:
    """Lower contour gamma(y) = pi(y) if pi(y) <= 1/2 else 1 - pi(y).

    Pairs the contour with a lower bound that vanishes wherever pi attains
    1, giving a cloud representation of the same uncertainty.
    """
    _require_consonant(c)
    half = Fraction(1, 2)
    gamma = tuple(v if v <= half else 1 - v for v in c.values)
    return Cloud(Contour(c.space, gamma, provenance="analytic"), c)


def tropical_sum(values: Sequence[Scalar]) -> Scalar:
    """Max of the values; the additive operation of the tropical semiring."""
    vals = list(values)
    if not vals:
        raise EmptyList("tropical sum of an empty collection")
    return max(vals)
