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

Every contour takes the same path: the cut is ``levels > threshold(alpha)``
(see :class:`Contour`), and the intersection form reads a table of every
event's largest level.  An event qualifies when the possibility of its
complement is at most alpha, the rounding-free form of
``lower >= 1 - alpha``.  Exact contours are thereby decided in int64
ranks, all others by Python's exact comparisons of their values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import Scalar
from .outcome import Event, GridOutcomeSpace, OutcomeSpace
from .possibility import _check_space, _max_table, _require_consonant
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


def _cut_event(c: Contour, alpha: Scalar) -> Event:
    cut = np.packbits(c.levels > c.threshold(alpha), bitorder="little")
    return Event.from_mask(int.from_bytes(cut, "little"), c.size)


def _intersection_event(c: Contour, table: np.ndarray, alpha: Scalar) -> Event:
    """Intersection of every event whose lower probability is at least 1 - alpha.

    Event ``m`` qualifies when the possibility of its complement
    ``full ^ m`` -- entry ``full - m`` of the table -- is at most alpha.
    """
    qualifies = table[::-1] <= c.threshold(alpha)
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


def ihdr_intersection(c: Contour, alpha: Scalar, space=None) -> PredictionRegion:
    """Highest-density region as an intersection over qualifying events.

    Intersects every event whose lower probability is at least 1 - alpha.
    Exhaustive over 2^K events, so the space must be enumerable.
    """
    _check_alpha(alpha)
    _check_space(c, space)
    event = _intersection_event(c, _max_table(c), alpha)
    return PredictionRegion(event, alpha, "IHDR-intersection")


def region_size(region: PredictionRegion, space: OutcomeSpace) -> Scalar:
    """Cardinality on finite spaces, covered length on grids."""
    if isinstance(space, GridOutcomeSpace):
        return len(region.event) * space.cell_width
    return len(region.event)


@dataclass(frozen=True)
class Prop1Violation:
    alpha: Scalar
    cut_event: Event
    intersection_event: Event


@dataclass(frozen=True)
class Prop1Report:
    passed: bool
    alphas: tuple
    failures: tuple[Prop1Violation, ...]


def prop1_check(c: Contour, alphas=(), space=None) -> Prop1Report:
    """Cut / intersection equality over an alpha sweep.

    The cut is both the CPR and the IHDR cut, so one comparison per alpha
    covers all three regions.  The sweep contains the caller's alphas,
    every distinct contour value, midpoints of consecutive distinct
    values, and the endpoints 0 and 1; the regions are step functions of
    alpha, so this grid witnesses every possible disagreement.  Every
    comparison is exact, float contours included.
    """
    _check_space(c, space)
    table = _max_table(c)  # also enforces consonance and the size budget

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
            failures.append(Prop1Violation(alpha, cut, inter))
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
    e1, e2 = r1.event, r2.event
    if e1 == e2:
        relation = "equal"
    elif e1.issubset(e2):
        relation = "subset"
    elif e2.issubset(e1):
        relation = "superset"
    else:
        relation = "incomparable"
    return MeasureComparison(
        r1, r2, region_size(r1, space), region_size(r2, space), relation
    )
