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
:func:`check_k_alternating` decide their order k from one table of the
local differences ``sum_{E subset B} (-1)^|E| nu(A - E)`` over
``1 <= |B| <= k`` (Chateauneuf & Jaffray 1989), which bound every
collection of up to k distinct events at once.

Maximization makes the plausibility of a consonant contour a monoid
homomorphism from ``(2^Omega, union, empty)`` to ``([0, 1], max, 0)``:

    upper_prob(A | B) = max(upper_prob(A), upper_prob(B))
    upper_prob(empty) = 0

Acceptance criterion 5 checks both, with the built-in ``max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from ._num import Scalar, all_rational, common_integers, tolerance, zero_like
from .errors import (
    BudgetExceeded,
    NegativeMass,
    NonConsonantContour,
    SpaceTooLarge,
)
from .outcome import MAX_ENUM, Event, enumerate_events
from .transducer import Contour

__all__ = [
    "is_consonant",
    "upper_prob",
    "lower_prob",
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
    _require_consonant(c)
    if event.space_size != c.size:
        raise ValueError("event does not belong to the contour's space")


def upper_prob(c: Contour, event: Event) -> Scalar:
    """Possibility of an event: max of the contour over it.

    The value of the first entry of the contour's level chain whose bit is
    in the event's mask; on a random event that takes about two steps.
    """
    if not c._consonant or event.space_size != c.size:
        _check_event(c, event)  # raises
    mask = event.mask
    for bit, value, _ in c._chain or c.chain:  # the slot, once the chain is built
        if mask & bit:
            return value
    return zero_like(c.values)


def lower_prob(c: Contour, event: Event) -> Scalar:
    """Necessity of an event, dual to :func:`upper_prob`: 1 - upper(A^c).

    The stored ``1 - value`` of the first chain entry outside the mask.
    """
    if not c._consonant or event.space_size != c.size:
        _check_event(c, event)  # raises
    mask = event.mask
    for bit, _, rest in c._chain or c.chain:  # the slot, once the chain is built
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
    table = _max_table(c)
    if c.ranks is None:
        out = table.tolist()
    else:  # map ranks back to the values: the last outcome of each rank
        order = c.ranks.argsort(kind="stable")
        at = order[c.ranks[order].searchsorted(table, side="right") - 1]
        out = np.array(c.values, dtype=object)[at].tolist()
    out[0] = zero_like(c.values)
    return out


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

    @classmethod
    def _checked(cls, space_size: int, masses: dict) -> "MassFunction":
        """A mass function whose caller has checked the masses: all focal,
        positive and summing to 1 before any float mass was dropped."""
        out = object.__new__(cls)
        object.__setattr__(out, "space_size", space_size)
        object.__setattr__(out, "masses", masses)
        return out

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


def _distinct(values: list) -> tuple[list, np.ndarray]:
    """The distinct objects of ``values``, by identity, and for each entry
    the position of its object among them.

    A 2^K table repeats a few objects; a stable argsort of the ``id``s
    groups them, so each distinct object is read once and no dict of 2^K
    keys is built.
    """
    ids = np.fromiter(map(id, values), dtype=np.uint64, count=len(values))
    order = ids.argsort(kind="stable")
    ordered = ids[order]
    first = np.ones(len(values), dtype=bool)  # where a new object starts
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    where = np.empty(len(values), dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return [values[i] for i in order[first].tolist()], where


def _number_table(values: list, k: int) -> tuple[np.ndarray, int | None, Scalar]:
    """The 2^K ``values`` as one numpy array for an alternating-sum kernel.

    int64 numerators over a common denominator when the values are all
    Fractions or all ints and ``max|num| << k < 2^63``, so that no sum of
    up to 2^k signed values can overflow; otherwise -- floats, mixed
    kinds, denominators past the cap of :func:`common_integers`, integers
    that could overflow -- an object array of the values, which repeats the
    Python arithmetic of a loop and so keeps each result's kind.  Returns
    ``(table, den, tol)``; ``den`` is the denominator of int64 numerators
    of Fractions, and None when each entry stands for itself; ``tol`` is
    the :func:`tolerance` of the values.  Only the distinct objects
    (:func:`_distinct`) are inspected and rescaled.
    """
    objects, where = _distinct(values)
    tol = tolerance(objects)
    kinds = set(map(type, objects))
    scaled = common_integers(objects) if len(kinds) == 1 else None
    if scaled is None or max(map(abs, scaled[0])) << k >= 1 << 63:
        return np.array(values, dtype=object), None, tol
    den = scaled[1] if issubclass(kinds.pop(), Fraction) else None
    return np.array(scaled[0], dtype=np.int64)[where], den, tol


def mass_from_belief(bel: Callable[[Event], Scalar], space) -> MassFunction:
    """Moebius inversion m(A) = sum_{B subset A} (-1)^|A-B| bel(B).

    ``bel`` is evaluated once per event; the alternating sum is the
    in-place fast subset transform (Kennes & Smets), O(K * 2^K), run over
    the array of :func:`_number_table`.  Exact when ``bel`` returns
    rationals, and each mass keeps the values' kind; with floats, masses
    within ``FLOAT_TOL`` of 0 are dropped after the sum of all masses is
    checked, so a dropped mass never fails that check.
    Raises :class:`NegativeMass`, naming the smallest mask, when the input
    is not a belief function (some mass comes out negative beyond that
    tolerance).
    """
    k = space.size
    f = list(map(bel, enumerate_events(space)))
    table, den, tol = _number_table(f, k)
    if abs(f[0]) > tol:
        raise ValueError("bel(empty) must be 0")
    if abs(f[-1] - 1) > tol:
        raise ValueError("bel(full space) must be 1")

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
    total = table[1:].sum()  # int64 wraps cancel: the exact sum, bel(full) - bel(empty), fits
    if table.dtype != object:
        total = Fraction(int(total), den or 1)
    if abs(total - 1) > tol:
        raise ValueError(f"masses sum to {total}, expected 1")
    focal = (np.flatnonzero(table[1:] > tol) + 1).tolist()
    return MassFunction._checked(k, {Event.from_mask(m, k): mass(m) for m in focal})


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
    """First violation found by a capacity check.

    Targets come in cardinality-then-mask order, and for each target the
    local differences by ``|B|`` and then mask.  The collection is
    ``{A - {b} : b in B}`` for a monotone check and ``{A | {b} : b in B}``
    for an alternating one, sorted by mask; ``lhs`` is ``nu(A)`` and
    ``rhs`` the inclusion-exclusion sum over the collection, a Fraction
    when every value of ``nu`` is rational and a float otherwise.
    """

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


@cache
def _base3(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per index of a 3^n table: the masks of ``S`` (digit 1) and ``B``
    (digit 2), and ``|B|``; read-only, built once per n."""
    digits = np.arange(3**n) // 3 ** np.arange(n)[:, None] % 3  # row i: outcome i
    bits = (1 << np.arange(n))[:, None]
    in_s = ((digits == 1) * bits).sum(axis=0)
    in_b = ((digits == 2) * bits).sum(axis=0)
    size_b = (digits == 2).sum(axis=0)
    for a in (in_s, in_b, size_b):
        a.flags.writeable = False
    return in_s, in_b, size_b


def _run_check(nu, k, space, alternating: bool) -> CheckResult:
    """Decide one capacity order from one difference table.

    One outcome at a time, every pair ``(lo, hi)`` of the 2^K table of
    ``nu`` -- the outcome out, then in -- gains a third entry ``hi - lo``.
    In the resulting 3^K table ``D``, indexed in base 3, digit 0 marks an
    outcome outside ``S`` and ``B``, 1 an outcome in ``S`` and 2 one in
    ``B``, and ``D = sum_{E subset B} (-1)^|B-E| nu(S | E)`` (Chateauneuf &
    Jaffray 1989).  The k-monotone test is ``D >= 0`` at target
    ``A = S | B``; the k-alternating test ``(-1)^|B| D <= 0`` at target
    ``A = S``; both for ``1 <= |B| <= k``, within ``tolerance``.
    """
    n = space.size
    if n > 6:
        raise BudgetExceeded("capacity checks support at most 6 outcomes")
    if not 2 <= k <= 4:
        raise BudgetExceeded("capacity checks support 2 <= k <= 4")
    values = [nu(ev) for ev in enumerate_events(space)]
    diff, _, tol = _number_table(values, n)
    for j in range(n):
        pairs = diff.reshape(-1, 2, 3**j)
        diff = np.concatenate((pairs, pairs[:, 1:] - pairs[:, :1]), axis=1)

    in_s, in_b, size_b = _base3(n)
    sign = 1 - 2 * (size_b % 2) if alternating else -1  # violations are > 0
    bad = (size_b >= 1) & (size_b <= k) & (sign * diff.ravel() > tol)
    kind = "alternating" if alternating else "monotone"
    if not bad.any():
        return CheckResult(True, k, kind)

    target = in_s if alternating else in_s | in_b
    a, b = min(
        ((int(target[i]), int(in_b[i])) for i in np.flatnonzero(bad)),
        key=lambda ab: (bin(ab[0]).count("1"), ab[0], bin(ab[1]).count("1"), ab[1]),
    )
    # a ^ e is A - E for a monotone check (E inside A), A | E otherwise
    rhs = sum(
        (-1) ** (bin(e).count("1") + 1) * values[a ^ e]
        for e in range(1, b + 1)
        if e & b == e
    )
    collection = sorted(a ^ 1 << i for i in range(n) if b >> i & 1)
    witness = Witness(
        target=Event.from_mask(a, n),
        collection=tuple(Event.from_mask(m, n) for m in collection),
        lhs=values[a],
        rhs=Fraction(rhs) if all_rational(values) else float(rhs),
    )
    return CheckResult(False, k, kind, witness)


def check_k_monotone(nu: Callable[[Event], Scalar], k: int, space) -> CheckResult:
    """Test nu(A) >= sum_I (-1)^(|I|+1) nu(intersection of A_i in I).

    Collections range over distinct subsets A_i of each target A, sizes 1
    through k; size 1 is plain monotonicity.  Decided by the local
    differences ``sum_{E subset B} (-1)^|E| nu(A - E) >= 0`` for every
    ``B subset A`` with ``1 <= |B| <= k``, which is the bound for the
    collection ``{A - {b} : b in B}``.  Budget: K <= 6, k <= 4.
    """
    return _run_check(nu, k, space, alternating=False)


def check_k_alternating(nu: Callable[[Event], Scalar], k: int, space) -> CheckResult:
    """Test nu(A) <= sum_I (-1)^(|I|+1) nu(union of A_i in I).

    Dual of :func:`check_k_monotone`: collections range over distinct
    supersets A_i of each target A, decided by the collections
    ``{A | {b} : b in B}`` for every ``B`` outside ``A`` with
    ``1 <= |B| <= k``.  Budget: K <= 6, k <= 4.
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
