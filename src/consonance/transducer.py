"""Conformal transducer and nonconformity measures.

Given an exchangeable bag ``y^n`` and a candidate outcome ``c``, the
transducer forms the augmented bag ``y^n + [c]``, scores every element
against the rest of the bag with a nonconformity measure, and returns the
rank-based p-value

    pi(c) = (1/(n+1)) * #{ i : T_i >= T_{n+1} },

where ``T_{n+1}`` is the candidate's own score.  The candidate term always
participates in the count, so ``pi`` takes values ``k/(n+1)`` with
``k >= 1``.

Sweeping the candidate over an outcome space yields a contour ``y -> pi(y)``
which is the object every downstream module consumes.  A transducer
contour is stored exactly as an int64 array of ranks ``k`` over the one
shared denominator ``n+1``; hand-built rational contours are rescaled to
the same form.  ``Contour.values`` is a view of those ranks as a tuple of
:class:`fractions.Fraction`, built on first use.  ``Contour.levels`` and
``Contour.threshold`` keep that choice of number format inside the
contour, so every cut and table downstream is one numpy expression.  A
contour need not
attain 1; :func:`adjust_prime` (divide by the supremum) and
:func:`adjust_double_prime` (lift the argmax to 1) produce consonant
versions, the latter pointwise no larger and hence never less efficient.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from math import fsum
from typing import Callable, Sequence

import numpy as np

from ._num import Scalar, common_integers, fmt_scalar, parse_scalar
from .errors import AllZeroContour, EmptyBag, UnknownLabel
from .outcome import (
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    OutcomeSpace,
    space_from_json,
)

__all__ = [
    "nonconformity_mean_abs",
    "nonconformity_one_minus_emp",
    "NonconformityMeasure",
    "conformal_transducer",
    "transduce_grid",
    "Contour",
    "ConformalResult",
    "adjust_prime",
    "adjust_double_prime",
]


def nonconformity_mean_abs(rest: Sequence[float], y: float) -> float:
    """Absolute distance from ``y`` to the mean of the remaining bag."""
    n = len(rest)
    if n == 0:
        raise EmptyBag("mean of an empty bag is undefined")
    return abs(fsum(rest) / n - y)


def nonconformity_one_minus_emp(counts, y) -> Fraction:
    """One minus the empirical frequency of ``y`` in the augmented bag.

    Parameters
    ----------
    counts : mapping label -> int
        Per-label counts of the full augmented bag, candidate included.
    y : label
        The element being scored; must appear as a key.

    Rare labels score high.  Inside the transducer the comparison
    ``T_i >= T_{n+1}`` reduces to comparing bag counts, which makes this
    measure equivalent to its leave-one-out variant.
    """
    if y not in counts:
        raise UnknownLabel(f"label {y!r} not in count table")
    total = sum(counts.values())
    if total == 0:
        raise EmptyBag("count table is empty")
    if any(v < 0 for v in counts.values()):
        raise ValueError("counts must be nonnegative")
    return 1 - Fraction(counts[y], total)


@dataclass(frozen=True)
class NonconformityMeasure:
    """A nonconformity measure plus the dispatch tag the transducer uses.

    ``kind`` is one of ``"mean-abs-distance"``, ``"one-minus-empirical-pmf"``
    or ``"user"``.  User measures supply ``fn(rest, y)`` with the bag minus
    the scored element as first argument.
    """

    kind: str
    fn: Callable | None = None

    _KINDS = ("mean-abs-distance", "one-minus-empirical-pmf", "user")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "user" and self.fn is None:
            raise ValueError("user measure needs a callable")

    @classmethod
    def mean_abs(cls) -> "NonconformityMeasure":
        return cls("mean-abs-distance")

    @classmethod
    def one_minus_emp(cls) -> "NonconformityMeasure":
        return cls("one-minus-empirical-pmf")

    @classmethod
    def from_function(cls, fn: Callable) -> "NonconformityMeasure":
        return cls("user", fn)

    @classmethod
    def from_name(cls, name: str) -> "NonconformityMeasure":
        table = {
            "mean-abs": cls.mean_abs(),
            "mean-abs-distance": cls.mean_abs(),
            "one-minus-emp": cls.one_minus_emp(),
            "one-minus-empirical-pmf": cls.one_minus_emp(),
        }
        if name not in table:
            raise ValueError(f"unknown measure name {name!r}")
        return table[name]

    def raw_scores(self, data: Sequence, candidate) -> tuple[list, Scalar]:
        """Scores ``(T_1..T_n, T_{n+1})`` for the augmented bag.

        All transducer entry points funnel through here so that scalar and
        grid evaluation agree bit for bit.
        """
        n = len(data)
        if self.kind == "mean-abs-distance":
            total = fsum(data) + candidate
            t = [abs((total - y) / n - y) for y in data]
            t_cand = abs((total - candidate) / n - candidate)
            return t, t_cand
        if self.kind == "one-minus-empirical-pmf":
            counts = Counter(data)
            counts[candidate] += 1
            t = [nonconformity_one_minus_emp(counts, y) for y in data]
            return t, nonconformity_one_minus_emp(counts, candidate)
        bag = list(data) + [candidate]
        t = [self.fn(tuple(bag[:i] + bag[i + 1 :]), bag[i]) for i in range(n)]
        return t, self.fn(tuple(data), candidate)


def _rank(data: Sequence, candidate, psi: NonconformityMeasure) -> int:
    """Rank count ``k``: the candidate plus every element scoring at least as high."""
    t, t_cand = psi.raw_scores(data, candidate)
    return 1 + sum(1 for v in t if v >= t_cand)


def conformal_transducer(data: Sequence, candidate, psi: NonconformityMeasure) -> Fraction:
    """Rank p-value of ``candidate`` against the bag ``data``.

    Returns an exact rational ``k/(n+1)`` with ``k >= 1``; an empty bag gives
    1 (any candidate is fully plausible).
    """
    n = len(data)
    if n == 0:
        return Fraction(1)
    return Fraction(_rank(data, candidate, psi), n + 1)


def _rank_threshold(alpha: Scalar, den: int) -> int:
    """``floor(alpha * den)`` from alpha's exact ratio: the rank ``t`` with
    ``k/den > alpha`` exactly when ``k > t``."""
    try:  # exact for ints, floats and Fractions
        num, denom = alpha.as_integer_ratio()
    except AttributeError:  # numpy integers
        num, denom = operator.index(alpha), 1
    return num * den // denom


_PROVENANCES = ("raw", "prime-adjusted", "double-prime-adjusted", "analytic")


class Contour:
    """Plausibility contour over an outcome space.

    ``values[i]`` is the contour at label/grid-point ``i``, in [0, 1].
    Rational contours -- all transducer output, and hand-built contours of
    ints and Fractions -- are held exactly as a read-only int64 array
    ``ranks`` over one denominator ``den``, so ``values[i] == ranks[i]/den``;
    ``values`` is then a tuple of Fractions built once, on first use.  A
    contour with any float value, or whose common denominator is too
    large, keeps ``values`` as given, and ``ranks`` and ``den`` are None.
    ``max_level`` (the largest of ``levels``, as a Python scalar) and
    ``size`` (the number of outcomes) are kept from construction, and so
    is consonance: whether ``max_level`` is ``threshold(1)``.
    What a contour derives for its queries -- the level chain here, the
    credal set's extreme points in :mod:`consonance.credal` -- is built on
    first use and kept in a private slot, so no cache outlives its contour.
    ``provenance`` records how the contour arose:
    "raw" out of the transducer, "prime-adjusted"/"double-prime-adjusted"
    after the respective normalization, "analytic" for everything built
    directly.  Contours are immutable; equality and hashing go by space,
    values and provenance.
    """

    __slots__ = (
        "space", "provenance", "ranks", "den", "max_level", "size",
        "_consonant", "_values", "_chain", "_extremes",
    )

    def __init__(self, space: OutcomeSpace, values, provenance: str = "analytic"):
        vals = tuple(values)
        if len(vals) != space.size:
            raise ValueError("one value per outcome required")
        if not all(0 <= v <= 1 for v in vals):  # NaN fails too
            raise ValueError("contour values must lie in [0, 1]")
        scaled = common_integers(vals)
        if scaled is None:
            self._freeze(space, None, None, max(vals), vals, provenance)
        else:
            ranks, den = scaled
            self._freeze(space, np.array(ranks, dtype=np.int64), den, max(ranks), vals, provenance)

    @classmethod
    def from_ranks(
        cls, space: OutcomeSpace, ranks, den: int, provenance: str = "analytic"
    ) -> "Contour":
        """Exact contour ``ranks[i]/den`` from integer ranks ``0 <= k <= den``."""
        k = np.asarray(ranks)
        if k.dtype.kind not in "iu":
            raise TypeError("ranks must be integers")
        den = operator.index(den)
        if k.shape != (space.size,):
            raise ValueError("one rank per outcome required")
        top = int(k.max())
        if not 0 < den < 1 << 62 or k.min() < 0 or top > den:
            raise ValueError("ranks must lie in [0, den] with 0 < den < 2^62")
        c = cls.__new__(cls)
        c._freeze(space, k.astype(np.int64), den, top, None, provenance)
        return c

    def _freeze(self, space, ranks, den, max_level, values, provenance):
        if provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if ranks is not None:
            ranks.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "size", space.size)
        # the level that stands for 1 is threshold(1)
        object.__setattr__(self, "_consonant", max_level == (den if ranks is not None else 1))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_extremes", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def values(self) -> tuple:
        if self._values is None:
            den = self.den
            object.__setattr__(
                self, "_values", tuple(Fraction(k, den) for k in self.ranks.tolist())
            )
        return self._values

    @property
    def chain(self) -> tuple:
        """The level chain: ``(1 << i, value, 1 - value)`` per outcome, highest
        level first, ties in index order (a stable sort); built on first use."""
        if self._chain is None:
            levels, values = self.levels.tolist(), self.values
            order = sorted(range(self.size), key=levels.__getitem__, reverse=True)
            chain = tuple((1 << i, values[i], 1 - values[i]) for i in order)
            object.__setattr__(self, "_chain", chain)
        return self._chain

    @property
    def levels(self) -> np.ndarray:
        """What cuts and tables compare: ``ranks``, else the values as objects.

        An object array keeps Python's exact comparisons of floats and
        Fractions, so ``levels > threshold(alpha)`` is the cut on either.
        """
        if self.ranks is None:
            return np.array(self.values, dtype=object)
        return self.ranks

    def threshold(self, alpha: Scalar) -> Scalar:
        """Level ``t`` with ``value > alpha`` exactly when ``level > t``.

        For ranks over ``den`` that is ``floor(alpha * den)``, computed from
        alpha's exact ratio; for values it is ``alpha`` itself.
        """
        if self.ranks is None:
            return alpha
        return _rank_threshold(alpha, self.den)

    def _key(self) -> tuple:
        return (self.space, self.values, self.provenance)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Contour(space={self.space!r}, values={self.values!r}, "
            f"provenance={self.provenance!r})"
        )

    def max_value(self) -> Scalar:
        if self.ranks is None:
            return self.max_level
        return Fraction(self.max_level, self.den)

    def to_json(self) -> dict:
        if isinstance(self.space, FiniteOutcomeSpace):
            obj = self.space.to_json()
        else:
            obj = {"grid": self.space.to_json()}
        obj["pi"] = [fmt_scalar(v) for v in self.values]
        obj["provenance"] = self.provenance
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Contour":
        space = space_from_json(obj)
        if not isinstance(obj["pi"], list):
            raise ValueError("pi must be a list of contour values")
        values = tuple(parse_scalar(v) for v in obj["pi"])
        return cls(space, values, obj.get("provenance", "analytic"))


@dataclass(frozen=True)
class ConformalResult:
    """Transducer sweep output: the contour plus what produced it."""

    contour: Contour
    data: tuple = field(repr=False)
    psi_kind: str = "user"

    @property
    def n(self) -> int:
        return len(self.data)


def _count_ranks(counts: np.ndarray) -> np.ndarray:
    """Rank counts of every label from a ``(T, K)`` matrix of label counts.

    For candidate label ``l`` the augmented counts are ``c' = c + e_l`` and
    the rank count is the total mass of labels with ``c'(m) <= c'(l)``:
    ``R[t, l] = sum_m c'(m) [c'(m) <= c'(l)]``.  Only ``c'(l)`` differs from
    ``c``, so that is ``1 + sum_m c(m) [c(m) <= c(l) + 1]``, one broadcast
    over the rows.
    """
    c = np.asarray(counts, dtype=np.int64)
    below = c[:, None, :] <= c[:, :, None] + 1  # [t, l, m]: c(m) <= c(l) + 1
    return 1 + (below * c[:, None, :]).sum(axis=2)


def _sweep_label_counts(data: Sequence, space: FiniteOutcomeSpace) -> np.ndarray:
    """Count-table shortcut for the empirical-pmf measure on label data.

    Equivalent to the generic score path, just O(K^2) instead of O(n*K)
    (see :func:`_count_ranks`).  Returns the rank counts, one per label of
    ``space``.
    """
    counts = Counter(data)
    unknown = set(counts) - set(space.labels)
    if unknown:
        raise UnknownLabel(f"data labels {sorted(map(repr, unknown))} not in space")
    return _count_ranks([[counts[label] for label in space.labels]])[0]


def _sweep_mean_abs_grid(data: Sequence[float], candidates: np.ndarray) -> np.ndarray:
    """Vectorized rank counts for the mean-abs measure over many candidates.

    The bag sum is taken with ``fsum``, as in :meth:`NonconformityMeasure.raw_scores`,
    so each count equals the scalar transducer's exactly.
    """
    y = np.asarray(data, dtype=float)
    n = y.size
    c = np.asarray(candidates, dtype=float)
    total = fsum(y) + c[:, None]                      # bag sums, per candidate
    t = np.abs((total - y[None, :]) / n - y[None, :])  # (G, n) leave-one-out scores
    t_cand = np.abs((total[:, 0] - c) / n - c)
    return 1 + (t >= t_cand[:, None]).sum(axis=1)


def transduce_grid(
    data: Sequence, space: OutcomeSpace, psi: NonconformityMeasure
) -> ConformalResult:
    """Evaluate the transducer at every outcome of ``space``.

    The returned contour matches :func:`conformal_transducer` pointwise and
    holds the ranks over ``n+1``; label data under the empirical-pmf measure
    and numeric data under mean-abs take O(K^2) / vectorized shortcuts
    through the same formulas.  Data on a grid must be finite reals.
    """
    data = tuple(data)
    n = len(data)
    if isinstance(space, GridOutcomeSpace) and not np.isfinite(np.asarray(data, float)).all():
        raise ValueError("numeric data must be finite")
    if n == 0:
        ranks = np.ones(space.size, dtype=np.int64)
    elif isinstance(space, FiniteOutcomeSpace) and psi.kind == "one-minus-empirical-pmf":
        ranks = _sweep_label_counts(data, space)
    elif isinstance(space, GridOutcomeSpace) and psi.kind == "mean-abs-distance":
        ranks = _sweep_mean_abs_grid(data, np.array(space.points()))
    else:
        if isinstance(space, FiniteOutcomeSpace):
            candidates = space.labels
        else:
            candidates = space.points()
        ranks = np.array([_rank(data, c, psi) for c in candidates], dtype=np.int64)

    contour = Contour.from_ranks(space, ranks, n + 1, provenance="raw")
    return ConformalResult(contour, data, psi.kind)


def adjust_prime(c: Contour) -> Contour:
    """Normalize by the supremum: pi'(y) = pi(y) / sup pi."""
    m = c.max_value()
    if m == 0:
        raise AllZeroContour("cannot normalize an identically-zero contour")
    if c.ranks is not None:  # k/den divided by top/den is k/top
        return Contour.from_ranks(c.space, c.ranks, c.max_level, "prime-adjusted")
    if m == 1:
        return Contour(c.space, c.values, provenance="prime-adjusted")
    values = tuple(v / m for v in c.values)
    return Contour(c.space, values, provenance="prime-adjusted")


def adjust_double_prime(c: Contour) -> Contour:
    """Lift the argmax to 1, leave the rest alone: the sharper adjustment.

    Pointwise pi <= pi'' <= pi', so regions from pi'' are never wider than
    regions from pi'.
    """
    m = c.max_value()
    if m == 0:
        raise AllZeroContour("cannot adjust an identically-zero contour")
    if c.ranks is not None:
        lifted = np.where(c.ranks == c.max_level, c.den, c.ranks)
        return Contour.from_ranks(c.space, lifted, c.den, "double-prime-adjusted")
    one = Fraction(1) if isinstance(m, (int, Fraction)) else 1.0
    values = tuple(one if v == m else v for v in c.values)
    return Contour(c.space, values, provenance="double-prime-adjusted")
