"""Prediction regions from a contour.

The basic region at significance alpha is the strict upper cut

    R_alpha = { y : pi(y) > alpha },

whose coverage is guaranteed by the transducer's rank construction.  For a
consonant contour the same set is the highest-density region of the induced
possibility measure, and it admits a second characterization as the
intersection of all events whose lower probability reaches 1 - alpha:

    R_alpha = intersect { A : lower(A) >= 1 - alpha }.

:func:`prop1_check` verifies that equivalence over a sweep of alphas chosen
to hit every behavior change: the contour's distinct values, midpoints
between consecutive ones, and the endpoints 0 and 1.

Exact contours are decided in integers: with ranks ``k`` over ``den``,
``k/den > alpha`` holds exactly when ``k > floor(alpha * den)``, and the
intersection form runs over an int64 table of every event's largest rank.
Float contours keep Python's own comparisons of their values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._num import Scalar
from .errors import SpaceTooLarge
from .outcome import MAX_ENUM, Event, GridOutcomeSpace, OutcomeSpace
from .possibility import _max_table, _rank_table, _require_consonant
from .transducer import Contour, NonconformityMeasure, transduce_grid

__all__ = [
    "PredictionRegion",
    "cpr",
    "ihdr_cut",
    "ihdr_intersection",
    "region_size",
    "Prop1Violation",
    "Prop1Report",
    "prop1_check",
    "MeasureComparison",
    "compare_measures",
]


@dataclass(frozen=True)
class PredictionRegion:
    """An event together with the level and rule that produced it."""

    event: Event
    alpha: Scalar
    kind: str

    _KINDS = ("CPR", "IHDR-cut", "IHDR-intersection")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")


def _check_alpha(alpha: Scalar):
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _threshold(c: Contour, alpha: Scalar) -> int:
    """Largest rank ``t`` with ``t/den <= alpha``, so ``k/den > alpha`` iff ``k > t``."""
    try:  # exact for ints, floats and Fractions
        num, denom = alpha.as_integer_ratio()
    except AttributeError:  # numpy integers
        num, denom = operator.index(alpha), 1
    return num * c.den // denom


def _cut_event(c: Contour, alpha: Scalar) -> Event:
    if c.ranks is None:
        idx = tuple(i for i, v in enumerate(c.values) if v > alpha)
    else:
        idx = tuple(np.flatnonzero(c.ranks > _threshold(c, alpha)).tolist())
    return Event(idx, c.size)


def _event_table(c: Contour) -> np.ndarray:
    """Possibility of every event, by bitmask.

    Exact contours give the int64 rank table; others an object array of
    the contour's own values, so their comparisons stay Python's.
    """
    if c.size > MAX_ENUM:
        raise SpaceTooLarge(f"2^{c.size} events exceed the enumeration budget")
    _require_consonant(c)
    if c.ranks is None:
        return np.array(_max_table(c.values), dtype=object)
    return _rank_table(c.ranks)


def _intersection_event(c: Contour, table: np.ndarray, alpha: Scalar) -> Event:
    """Intersection of every event whose lower probability is at least 1 - alpha.

    Event ``m`` qualifies when the possibility of its complement
    ``full ^ m`` -- entry ``full - m`` of the table -- is small enough.
    """
    by_complement = table[::-1]
    if c.ranks is None:
        qualifies = 1 - by_complement >= 1 - alpha
    else:
        qualifies = by_complement <= _threshold(c, alpha)
    full = (1 << c.size) - 1
    acc = np.bitwise_and.reduce(np.flatnonzero(qualifies), initial=full)
    return Event.from_mask(int(acc), c.size)


def cpr(c: Contour, alpha: Scalar) -> PredictionRegion:
    """Strict upper cut of the contour; no consonance required."""
    _check_alpha(alpha)
    return PredictionRegion(_cut_event(c, alpha), alpha, "CPR")


def ihdr_cut(c: Contour, alpha: Scalar) -> PredictionRegion:
    """Highest-density region of the possibility measure, via the cut."""
    _check_alpha(alpha)
    _require_consonant(c)
    return PredictionRegion(_cut_event(c, alpha), alpha, "IHDR-cut")


def _check_space(c: Contour, space):
    if space is not None and space != c.space:
        raise ValueError("space does not match the contour's space")


def ihdr_intersection(c: Contour, alpha: Scalar, space=None) -> PredictionRegion:
    """Highest-density region as an intersection over qualifying events.

    Intersects every event whose lower probability is at least 1 - alpha.
    Exhaustive over 2^K events, so the space must be enumerable.
    """
    _check_alpha(alpha)
    _check_space(c, space)
    event = _intersection_event(c, _event_table(c), alpha)
    return PredictionRegion(event, alpha, "IHDR-intersection")


def region_size(region: PredictionRegion, space: OutcomeSpace) -> Scalar:
    """Cardinality on finite spaces, covered length on grids."""
    if isinstance(space, GridOutcomeSpace):
        return len(region.event) * space.cell_width
    return len(region.event)


@dataclass(frozen=True)
class Prop1Violation:
    alpha: Scalar
    cpr_event: Event
    cut_event: Event
    intersection_event: Event


@dataclass(frozen=True)
class Prop1Report:
    passed: bool
    alphas: tuple
    failures: tuple[Prop1Violation, ...]


def prop1_check(c: Contour, alphas=(), space=None) -> Prop1Report:
    """Three-way CPR / cut / intersection equality over an alpha sweep.

    The sweep contains the caller's alphas, every distinct contour value,
    midpoints of consecutive distinct values, and the endpoints 0 and 1;
    the regions are step functions of alpha, so this grid witnesses every
    possible disagreement.  Exact arithmetic end to end when the contour
    is rational.
    """
    _check_space(c, space)
    table = _event_table(c)  # also enforces consonance and the size budget

    distinct = sorted(set(c.values))
    grid = set(alphas) | set(distinct) | {0, 1}
    for a, b in zip(distinct, distinct[1:]):
        grid.add((a + b) / 2)
    sweep = tuple(sorted(grid))

    failures = []
    for alpha in sweep:
        _check_alpha(alpha)
        cut = _cut_event(c, alpha)
        inter = _intersection_event(c, table, alpha)
        if cut.mask != inter.mask:
            failures.append(Prop1Violation(alpha, cut, cut, inter))
    return Prop1Report(not failures, sweep, tuple(failures))


@dataclass(frozen=True)
class MeasureComparison:
    """Regions produced by two nonconformity measures on the same data."""

    region1: PredictionRegion
    region2: PredictionRegion
    size1: Scalar
    size2: Scalar
    relation: str  # how region1 sits relative to region2


def compare_measures(
    data,
    space: OutcomeSpace,
    psi1: NonconformityMeasure,
    psi2: NonconformityMeasure,
    alpha: Scalar,
) -> MeasureComparison:
    """Transduce with both measures and compare the resulting regions."""
    r1 = cpr(transduce_grid(data, space, psi1).contour, alpha)
    r2 = cpr(transduce_grid(data, space, psi2).contour, alpha)
    s1, s2 = set(r1.event.indices), set(r2.event.indices)
    if s1 == s2:
        relation = "equal"
    elif s1 < s2:
        relation = "subset"
    elif s1 > s2:
        relation = "superset"
    else:
        relation = "incomparable"
    return MeasureComparison(
        r1, r2, region_size(r1, space), region_size(r2, space), relation
    )
