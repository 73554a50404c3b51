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

Every contour takes the same paths, each comparing levels with
``threshold(alpha)`` (see :class:`Contour`), never ``1 - level`` with
``1 - alpha``, which rounds on floats:

- :func:`cpr` is the strict cut ``levels > threshold(alpha)``;
- :func:`ihdr_cut` comes from the necessity side: the shortest prefix of
  the descending-level order whose lower probability reaches 1 - alpha,
  found by ``searchsorted`` on the sorted levels.  It shares no code with
  the cut, so the coverage harness, which builds both for every trial
  (a whole ``(T, K)`` rank matrix at a time for label cells), checks one
  construction against the other;
- :func:`ihdr_intersection` reads a table of every event's largest level.
  An event qualifies when the possibility of its complement is at most
  alpha, the rounding-free form of ``lower >= 1 - alpha``.

Exact contours are thereby decided in int64 ranks, all others by Python's
exact comparisons of their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

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


def _event_of(member: np.ndarray) -> Event:
    bits = np.packbits(member, bitorder="little")
    return Event.from_mask(int.from_bytes(bits, "little"), member.size)


def _cut_rows(levels: np.ndarray, t) -> np.ndarray:
    """The strict cut ``levels > t``, elementwise over any shape of levels."""
    return levels > t


def _prefix_rows(levels: np.ndarray, t) -> np.ndarray:
    """The necessity-side region of each row of a ``(T, K)`` level matrix.

    Outcomes are taken in descending level order (a stable sort, so ties
    keep index order).  The prefix of the first ``j`` of them has lower
    probability ``1 - l``, where ``l`` is the level of the first outcome
    left out, so the shortest prefix whose lower probability reaches
    ``1 - alpha`` ends where ``l <= t`` first holds -- always between tie
    blocks.  Its length comes from ``searchsorted`` on the sorted levels;
    no level is compared elementwise with ``t``, so this shares no code
    with :func:`_cut_rows`.  Returns a boolean membership matrix.

    All rows go through one sort and one search: the negated rows are laid
    end to end, row ``r`` shifted by ``r * span`` with the integer ``span``
    above ``max + t``, so the line sorts row by row and row ``r``'s query
    ``r * span - t`` falls inside row ``r``'s stretch of it.  Exact on
    integer levels, and on a single row of any levels (its shift is the
    integer 0).
    """
    rows, k = levels.shape
    span = ceil(levels.max()) + ceil(t) + 1  # Python ints: no int64 wrap
    shift = np.arange(0, rows * span, span)
    line = (shift[:, None] - levels).ravel()
    order = line.argsort(kind="stable")
    ends = line[order].searchsorted(shift - t)  # where each row's prefix ends
    member = np.empty(line.size, dtype=bool)
    member[order] = np.arange(line.size) < ends.repeat(k)
    return member.reshape(rows, k)


def _cut_event(c: Contour, alpha: Scalar) -> Event:
    return _event_of(_cut_rows(c.levels, c.threshold(alpha)))


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
    """Highest-density region of the possibility measure, from the necessity side.

    The shortest prefix of the descending-level order whose lower
    probability reaches 1 - alpha (see :func:`_prefix_rows`).  It is built
    independently of :func:`cpr`'s strict cut, and equals it on every
    consonant contour.
    """
    _check_alpha(alpha)
    _require_consonant(c)
    prefix = _prefix_rows(c.levels[None], c.threshold(alpha))[0]
    return PredictionRegion(_event_of(prefix), alpha, "IHDR-cut")


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

    Compares the CPR's strict cut with the intersection form; the
    necessity-side :func:`ihdr_cut` is checked against the same cut by the
    coverage harness on every trial.  The sweep contains the caller's alphas,
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
