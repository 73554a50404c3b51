"""The credal set of a consonant contour.

A consonant contour's upper probability dominates a convex set of
probability measures

    M = { P : P(A) <= upper(A) for every event A },

the credal set.  Membership is decided exhaustively over all 2^K events
(dominance on singletons is not enough for general capacities), or
equivalently via the strong-cut characterization: P is in M iff
P({pi > alpha}) >= 1 - alpha at every breakpoint alpha of the contour.
Both tests are exact on rational input; any float input allows the
package's one float tolerance, ``FLOAT_TOL``, so that boundary members
survive rounding.

Both run in int64 when the tolerance is rational and the contour's ranks
and the point rescale to integers over one denominator, and otherwise
on the values themselves; either way each check has the verdict of the
Python comparison.

Extreme points are read off the level chain's tie blocks, at most 2^15
of them (:func:`extreme_points`).  Consonance puts a point mass at any
outcome with contour value 1, which is why the minimum Shannon entropy
over the credal set is always zero here, at any K.  Sampling spreads
each mass of the focal chain over its focal set (Dempster 1967;
Chateauneuf & Jaffray 1989), with neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, groupby, product
from math import floor, prod, sqrt

import numpy as np

from ._num import Scalar, all_rational, common_integers, tolerance, zero_like
from .errors import SpaceTooLarge, WrongDimension
from .outcome import Event
from .possibility import _check_space, _max_table, _require_consonant, focal_chain, upper_table
from .transducer import Contour

__all__ = [
    "ProbabilityVector",
    "in_credal_set",
    "prop2_membership",
    "extreme_points",
    "lower_entropy",
    "sample_credal",
    "ternary_coords",
]

#: the most vertices :func:`extreme_points` lists (K = 16 with distinct levels)
_MAX_VERTICES = 1 << 15


@dataclass(frozen=True)
class ProbabilityVector:
    """Point of the probability simplex over an outcome space."""

    weights: tuple

    def __post_init__(self):
        w = tuple(self.weights)
        object.__setattr__(self, "weights", w)
        if not w:
            raise ValueError("need at least one weight")
        tol = tolerance(w)
        if not all(v >= -tol for v in w):  # NaN fails too
            raise ValueError(f"weights must be nonnegative numbers, got {w}")
        total = sum(w)
        if abs(total - 1) > tol:
            raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    def prob(self, event: Event) -> Scalar:
        vals = [self.weights[i] for i in event.indices]
        return sum(vals) if vals else zero_like(self.weights)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.weights)


def in_credal_set(
    p: ProbabilityVector, c: Contour, space=None, tol: Scalar | None = None
) -> bool:
    """Exhaustive dominance check P(A) <= upper(A) + tol over all 2^K events.

    One numpy comparison of the contour's max-table with a doubling table
    of weight sums, in the form that gives each event the verdict of the
    Python comparison ``P(A) <= upper(A) + tol``:

    * int64 when ``tol`` is rational and :func:`_rescaled` puts the ranks
      and the weights over one denominator ``d``:
      ``P·d - upper·d <= floor(tol·d)``;
    * otherwise object arrays of the values: the Python loop itself, with
      each sum added in the order of the loop.
    """
    tol = _checked_tol(p, c, space, tol)
    w = p.weights
    if (scaled := _rescaled(c, w, tol)) is not None:
        levels, nums, d = scaled
        up = _max_table(c, levels)
        return bool(np.all(_prob_table(nums) - up <= floor(tol * d)))
    up = np.array(upper_table(c), dtype=object)  # raises SpaceTooLarge past K = 20
    return bool(np.all(_prob_table(np.array(w, dtype=object), zero_like(w)) <= up + tol))


def _checked_tol(p: ProbabilityVector, c: Contour, space, tol) -> Scalar:
    """Check the space and the sizes; the given ``tol``, else the default."""
    _check_space(c, space)
    if p.size != c.size:
        raise WrongDimension("vector and contour sizes differ")
    if tol is not None:
        return tol
    return tolerance(p.weights) if c.ranks is not None else tolerance(c.values, p.weights)


def _rescaled(c: Contour, weights: tuple, tol):
    """The contour's levels and the weights as int64 numerators over one
    denominator ``d = lcm(c.den, weight denominators)``, and ``d``.

    None when ``tol`` or a weight is a float, the contour holds no ranks,
    or ``d`` exceeds the cap of :func:`common_integers`.  Levels and
    weights lie in [0, d] and the weights sum to d, so no sum of them
    overflows.
    """
    if c.ranks is None or not all_rational([tol]):
        return None
    scaled = common_integers((Fraction(1, c.den), *weights))  # 1/den brings in den itself
    if scaled is None:
        return None
    nums, d = scaled
    return c.ranks * (d // c.den), np.array(nums[1:], dtype=np.int64), d


def _prob_table(weights: np.ndarray, zero=0) -> np.ndarray:
    """P of every event, indexed by bitmask, as ``P(A - {low}) + w[low]``.

    Doubling from the highest outcome down: the events whose lowest member
    is j are the events of higher outcomes only, each with j added.  Each
    sum therefore adds its weights from the highest index to the lowest.
    """
    k = len(weights)
    table = np.full(1 << k, zero, dtype=weights.dtype)
    for j in reversed(range(k)):
        table[1 << j :: 2 << j] = table[0 :: 2 << j] + weights[j]
    return table


def prop2_membership(
    p: ProbabilityVector, c: Contour, space=None, tol: Scalar | None = None
) -> bool:
    """Strong-cut membership: P({pi > alpha}) >= 1 - alpha at breakpoints.

    The cut is a step function of alpha, so checking the contour's distinct
    values covers every level; agrees with :func:`in_credal_set` on all
    inputs (the two are dual descriptions of the same constraint set).

    In integers over ``d`` (see :func:`_rescaled`) the cut at a level
    ``r`` is a prefix of the descending-level order, so its mass is a
    cumulative weight sum found by ``searchsorted``, and the test
    ``P·d >= d - r - tol·d`` is ``P·d + r >= d - floor(tol·d)``.
    """
    tol = _checked_tol(p, c, space, tol)
    _require_consonant(c)
    if (scaled := _rescaled(c, p.weights, tol)) is not None:
        levels, nums, d = scaled
        order = (-levels).argsort(kind="stable")
        down = -levels[order]  # negated levels, ascending
        mass = np.concatenate(([0], np.cumsum(nums[order])))
        above = mass[down.searchsorted(-levels)]  # P·d of the cut at each level
        return bool(np.all(above + levels >= d - floor(tol * d)))
    levels = c.levels
    for alpha in set(c.values):
        inside = (levels > c.threshold(alpha)).tolist()
        if sum(compress(p.weights, inside)) < 1 - alpha - tol:
            return False
    return True


def extreme_points(c: Contour, space=None) -> list[ProbabilityVector]:
    """Vertices of the credal set, read off the level chain.

    In the permutation construction (each outcome gets the increment of the
    upper probability over the outcomes before it) only an outcome that
    raises the running maximum gets weight.  So a vertex is one outcome of
    the top tie block of :attr:`Contour.chain` and none or one of each lower
    positive block, each chosen outcome weighted by its value less that of
    the next chosen one below (or 0): ``t_top * prod(1 + t_l)`` vertices for
    blocks of sizes ``t`` (Miranda, Couso & Gil 2003), listed top choice
    slowest, "none" first.  Past 2^15 that count, worked out before any
    vertex is built, raises :class:`SpaceTooLarge`.

    Worked out once per contour and kept on it; each call returns them in a
    fresh list, which the caller may change freely.
    """
    _check_space(c, space)
    _require_consonant(c)
    if c._extremes is not None:  # the contour's own slot, filled once
        return list(c._extremes)
    blocks = [  # the positive tie blocks of the chain as indices, highest first
        [bit.bit_length() - 1 for bit, _, _ in block]
        for value, block in groupby(c.chain, key=lambda entry: entry[1])
        if value > 0
    ]
    top, *lower = blocks
    count = len(top) * prod(1 + len(b) for b in lower)
    if count > _MAX_VERTICES:
        raise SpaceTooLarge(f"{count} vertices exceed the budget of {_MAX_VERTICES}")
    values = c.values
    zero = zero_like(values)
    out = []
    for records in product(top, *([None, *b] for b in lower)):
        weights = [zero] * c.size
        below = zero
        for i in reversed(records):  # from the lowest record up
            if i is not None:
                weights[i] = values[i] - below
                below = values[i]
        out.append(_vertex(tuple(weights)))
    object.__setattr__(c, "_extremes", tuple(out))
    return out


def _vertex(weights: tuple) -> ProbabilityVector:
    """A vertex without ``__post_init__``'s checks: its weights are
    differences of a descending chain of values ending at 1, so they are
    nonnegative and telescope to 1 by construction."""
    p = object.__new__(ProbabilityVector)
    object.__setattr__(p, "weights", weights)
    return p


def lower_entropy(c: Contour, space=None) -> float:
    """Minimum Shannon entropy (nats) over the credal set: 0.0, at any K.

    Entropy is concave, so the minimum over a polytope sits at a vertex.
    Consonance makes the point mass at an outcome of contour value 1 a
    vertex, and its entropy, 0, is the least any distribution has; so no
    vertex needs to be built.
    """
    _check_space(c, space)
    _require_consonant(c)
    return 0.0


def sample_credal(c: Contour, space=None, count: int = 1, seed: int = 0) -> list[ProbabilityVector]:
    """Draw ``count`` members of the credal set, deterministically per seed.

    Each sample spreads every mass ``m(A_i)`` of :func:`focal_chain` over
    its set ``A_i`` with a flat Dirichlet -- standard exponentials on the
    members of ``A_i``, normalised -- and adds the pieces.  Every draw is a
    member by construction, outcomes with contour value 0 get weight 0,
    and no 2^K table or vertex is needed, so any K works.  The samples are
    independent float vectors, drawn one at a time; their mean is the
    pignistic transform ``BetP(y) = sum of m(A_i)/|A_i| over A_i containing y``.
    A row of one draw holds each sample's exponentials, set after set, in
    the order of the generator's stream.
    """
    _check_space(c, space)
    if count < 0:
        raise ValueError("count must be nonnegative")
    focal = [(list(ev.indices), float(m)) for ev, m in focal_chain(c)]
    e = np.random.default_rng(seed).standard_exponential((count, sum(len(a) for a, _ in focal)))
    w = np.zeros((count, c.size))
    start = 0
    for members, mass in focal:
        part = e[:, start : start + len(members)]
        # exactly mass on a singleton
        w[:, members] += mass * (part / part.sum(axis=1, keepdims=True))
        start += len(members)
    return [ProbabilityVector(tuple(row)) for row in w.tolist()]


def ternary_coords(p: ProbabilityVector) -> tuple[float, float]:
    """Barycentric embedding of a 3-outcome vector into the unit triangle.

    Vertices: outcome 0 -> (0,0), outcome 1 -> (1,0), outcome 2 ->
    (1/2, sqrt(3)/2); so x = w1 + w2/2 and y = w2 * sqrt(3)/2.
    """
    if p.size != 3:
        raise WrongDimension("ternary coordinates need exactly 3 outcomes")
    w0, w1, w2 = (float(v) for v in p.weights)
    return (w1 + 0.5 * w2, w2 * sqrt(3.0) / 2.0)
