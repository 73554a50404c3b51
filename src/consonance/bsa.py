"""Robust Bayesian predictive analysis for Poisson counts.

Each Gamma(a, b) prior on the Poisson rate updates by conjugacy to
Gamma(a + sum y, b + n) and yields a Negative-Binomial posterior predictive

    p(y) = C(y+a-1, y) * (b/(b+1))^a * (1/(b+1))^y,

evaluated in log space via ``math.lgamma``.  A finite set of priors gives a
finitely generated credal set of predictives; its lower envelope is the
minimum over the extreme components, and the highest-density region at
level alpha is the smallest support subset whose lower envelope reaches
1 - alpha.  The search is greedy (add outcomes by decreasing worst-case
pmf), improved by local swaps, and exhaustively certified on small
supports; the report says whether certification ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import exp, inf, lgamma, log

import numpy as np

from .errors import AlphaOutOfRange, NegativeCount, TruncationInsufficient

__all__ = [
    "GammaParams",
    "posterior_update",
    "predictive_pmf",
    "PredictiveFGCS",
    "fgcs_lower_prob",
    "IhdrSearchReport",
    "bsa_ihdr_report",
    "bsa_ihdr",
]

#: tail mass left outside the truncated support
_TAIL_EPS = 1e-10

#: hard cap on support scans before giving up
_TRUNC_CAP = 200_000

#: exhaustive minimality check runs within this regime
_EXHAUSTIVE_SUPPORT = 25
_EXHAUSTIVE_SET = 20


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters of a Gamma prior or posterior."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < inf and 0 < self.rate < inf):
            raise ValueError("shape and rate must be finite and strictly positive")


def posterior_update(prior: GammaParams, data) -> GammaParams:
    """Conjugate update: Gamma(a, b) + counts -> Gamma(a + sum, b + n)."""
    data = tuple(data)
    for y in data:
        if y != int(y):
            raise ValueError(f"count {y!r} is not an integer")
        if y < 0:
            raise NegativeCount(f"count {y} is negative")
    return GammaParams(prior.shape + sum(int(y) for y in data), prior.rate + len(data))


def predictive_pmf(post: GammaParams, y: int) -> float:
    """Negative-Binomial predictive mass at ``y`` (0.0 for negative y)."""
    if y < 0:
        return 0.0
    a, b = post.shape, post.rate
    return exp(
        lgamma(y + a)
        - lgamma(a)
        - lgamma(y + 1)
        + a * (log(b) - log(b + 1))
        - y * log(b + 1)
    )


@dataclass(frozen=True)
class PredictiveFGCS:
    """Extreme predictive components of a finitely generated credal set."""

    components: tuple[GammaParams, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("need at least one component")

    def truncation(self, eps: float = _TAIL_EPS) -> int:
        """Smallest T with every component's CDF(T) >= 1 - eps."""
        worst = 0
        for comp in self.components:
            cdf = 0.0
            y = 0
            while cdf < 1 - eps:
                cdf += predictive_pmf(comp, y)
                y += 1
                if y > _TRUNC_CAP:
                    raise TruncationInsufficient(
                        f"support cap {_TRUNC_CAP} reached at CDF {cdf}"
                    )
            worst = max(worst, y - 1)
        return worst

    def pmf_matrix(self, truncation: int | None = None) -> np.ndarray:
        """Per-component pmf rows over 0..T;  shape (J, T+1)."""
        t = self.truncation() if truncation is None else truncation
        return np.array(
            [[predictive_pmf(c, y) for y in range(t + 1)] for c in self.components]
        )


def fgcs_lower_prob(fgcs: PredictiveFGCS, event) -> float:
    """Lower envelope of the event: min over extreme components."""
    idx = sorted(set(int(y) for y in event))
    if not idx:
        return 0.0
    t = fgcs.truncation()
    if idx[0] < 0 or idx[-1] > t:
        raise ValueError(f"event must lie within the truncated support 0..{t}")
    m = fgcs.pmf_matrix(t)
    return float(m[:, idx].sum(axis=1).min())


@dataclass(frozen=True)
class IhdrSearchReport:
    """Outcome of the smallest-covering-set search."""

    support: frozenset
    alpha: float
    truncation: int
    per_component: tuple[float, ...]
    lower: float
    exhaustive_verified: bool
    swaps_applied: int


def _drop_pass(mask, matrix, order_asc, target) -> bool:
    """Remove removable elements, least valuable first; True if any went."""
    removed = False
    for y in order_asc:
        if mask[y]:
            mask[y] = False
            if matrix[:, mask].sum(axis=1).min() >= target:
                removed = True
            else:
                mask[y] = True
    return removed


def bsa_ihdr_report(fgcs: PredictiveFGCS, alpha: float) -> IhdrSearchReport:
    """Smallest-set search for the level-alpha highest-density region.

    Greedy phase adds outcomes by decreasing worst-case pmf until the lower
    envelope reaches 1 - alpha (for a single component this prefix is
    already optimal).  A local phase then tries removals and
    slack-improving swaps that enable further removals.  When the support
    and set sizes are small the result is certified minimal by exhaustive
    enumeration one size down; the report records whether that ran.
    """
    if not 0 < alpha < 1:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    t = fgcs.truncation()
    matrix = fgcs.pmf_matrix(t)
    target = 1 - alpha

    scores = matrix.min(axis=0)
    order = np.lexsort((np.arange(t + 1), -scores))  # best first, ties by index
    order_asc = order[::-1]

    mask = np.zeros(t + 1, dtype=bool)
    sums = np.zeros(len(fgcs.components))
    for y in order:
        mask[y] = True
        sums += matrix[:, y]
        if sums.min() >= target:
            break
    else:
        raise TruncationInsufficient(
            f"captured mass {sums.min():.12f} never reached 1 - alpha = {target}"
        )

    swaps = 0
    _drop_pass(mask, matrix, order_asc, target)
    while swaps < 50:
        # best slack-improving swap; kept only if it unlocks a removal
        current = matrix[:, mask].sum(axis=1)
        slack = current.min() - target
        best = None
        for y_out in np.flatnonzero(mask):
            without = current - matrix[:, y_out]
            for y_in in np.flatnonzero(~mask):
                gain = (without + matrix[:, y_in]).min() - target
                if gain > slack and (best is None or gain > best[0]):
                    best = (gain, int(y_out), int(y_in))
        if best is None:
            break
        _, y_out, y_in = best
        mask[y_out] = False
        mask[y_in] = True
        swaps += 1
        if not _drop_pass(mask, matrix, order_asc, target):
            mask[y_out] = True
            mask[y_in] = False
            swaps -= 1
            break

    support = frozenset(int(y) for y in np.flatnonzero(mask))
    size = len(support)
    exhaustive = False
    if t + 1 <= _EXHAUSTIVE_SUPPORT and size <= _EXHAUSTIVE_SET and size >= 1:
        # feasibility is monotone, so "no feasible set one size down" is
        # minimality over all smaller sizes too
        exhaustive = True
        smaller = size - 1
        if smaller > 0:
            combos = np.fromiter(
                (i for c in combinations(range(t + 1), smaller) for i in c),
                dtype=np.int64,
            ).reshape(-1, smaller)
            for lo in range(0, len(combos), 65536):
                block = combos[lo : lo + 65536]
                envel = matrix[:, block].sum(axis=2).min(axis=0)
                hit = np.flatnonzero(envel >= target)
                if hit.size:
                    found = block[hit[0]].tolist()
                    raise AssertionError(
                        f"search returned {sorted(support)} but {found} suffices"
                    )

    per_comp = matrix[:, mask].sum(axis=1)
    return IhdrSearchReport(
        support=support,
        alpha=float(alpha),
        truncation=t,
        per_component=tuple(float(v) for v in per_comp),
        lower=float(per_comp.min()),
        exhaustive_verified=exhaustive,
        swaps_applied=swaps,
    )


def bsa_ihdr(fgcs: PredictiveFGCS, alpha: float) -> frozenset:
    """The support set of :func:`bsa_ihdr_report`."""
    return bsa_ihdr_report(fgcs, alpha).support
