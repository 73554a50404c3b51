"""Monte-Carlo check of the finite-sample coverage guarantee.

Each trial draws n+1 points from an exchangeable process, transduces the
first n over a candidate set containing the held-out point, and records
whether the held-out point falls in the strict-cut region at level alpha.
The guarantee says the hit rate is at least 1 - alpha for every n and
every exchangeable process; a cell passes when the empirical coverage
stays above (1 - alpha) - 3 * standard error.

Families: iid categorical, iid Gaussian, iid Poisson, and a Polya urn with
unit reinforcement -- exchangeable but not independent.  Urn draws are
generated through their de Finetti representation (a Dirichlet-distributed
latent pmf followed by iid draws), which is distributionally exact and
vectorizes.

Label data transduces over the label space directly.  Numeric data uses
201 grid candidates spanning sample mean +/- 6 sample sd plus the held-out
point itself; the center candidate sits at the sample mean, so the raw
contour attains 1 there up to float rounding.  On the rare trial where
rounding leaves the maximum below 1, the argmax is lifted to 1 (the
sharper consonance adjustment), which only enlarges the region and keeps
the bound conservative.  Membership is then asked of both ``cpr`` and
``ihdr_cut``; both read the same strict cut, ``region._cut_event``, so the
per-trial check that they agree cannot fail.

Contours stay in rank form, ``k/(n+1)``, from the transducer through both
region cuts, so no trial compares a Fraction with a float.  Per-trial
generators are seeded with (master seed, trial index), so trials are
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import inf, isfinite, sqrt

import numpy as np

from ._num import json_list, to_float, tolerance
from .errors import UnknownLabel
from .outcome import FiniteOutcomeSpace, labels_from_json
from .region import cpr, ihdr_cut
from .transducer import (
    Contour,
    NonconformityMeasure,
    _rank,
    _sweep_mean_abs_grid,
    adjust_double_prime,
    transduce_grid,
)

__all__ = [
    "ProcessSpec",
    "CoverageReport",
    "run_coverage",
    "run_uniformity_sweep",
]

_FAMILIES = ("iid-categorical", "iid-gaussian", "iid-poisson", "polya-urn")
_LABEL_FAMILIES = ("iid-categorical", "polya-urn")

_GRID_POINTS = 201
_GRID_SDS = 6.0


@dataclass(frozen=True)
class ProcessSpec:
    """Exchangeable data-generating process for the harness."""

    family: str
    weights: tuple = ()       # iid-categorical
    labels: tuple = ()        # label families; defaults to c0, c1, ...
    mu: float = 0.0           # iid-gaussian
    sigma: float = 1.0
    lam: float = 1.0          # iid-poisson
    counts: tuple = ()        # polya-urn initial composition

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "counts", tuple(self.counts))
        if self.family == "iid-categorical":
            if not self.weights:
                raise ValueError("categorical family needs weights")
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be nonnegative")
            if not abs(sum(self.weights) - 1) <= tolerance(self.weights):  # NaN fails too
                raise ValueError("weights must sum to 1")
            self._check_labels(len(self.weights))
        elif self.family == "polya-urn":
            if not self.counts:
                raise ValueError("urn family needs initial counts")
            if any(not 0 < c < inf or c != int(c) for c in self.counts):
                raise ValueError("urn counts must be positive integers")
            self._check_labels(len(self.counts))
        elif self.family == "iid-gaussian":
            if not (isfinite(self.mu) and 0 < self.sigma < inf):
                raise ValueError("need a finite mu and a finite, positive sigma")
        elif not 0 < self.lam < inf:
            raise ValueError("lambda must be finite and positive")

    def _check_labels(self, k: int):
        if self.labels and len(self.labels) != k:
            raise ValueError("labels and parameters disagree on K")

    @property
    def is_label(self) -> bool:
        return self.family in _LABEL_FAMILIES

    def label_space(self) -> FiniteOutcomeSpace:
        if not self.is_label:
            raise ValueError(f"{self.family} is not a label family")
        k = len(self.weights) if self.family == "iid-categorical" else len(self.counts)
        labels = self.labels or tuple(f"c{i}" for i in range(k))
        return FiniteOutcomeSpace(labels)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One exchangeable sequence: label index array or float array."""
        if self.family == "iid-categorical":
            return rng.choice(len(self.weights), size=size, p=np.array(self.weights, float))
        if self.family == "polya-urn":
            theta = rng.dirichlet(np.array(self.counts, float))
            return rng.choice(len(self.counts), size=size, p=theta)
        if self.family == "iid-gaussian":
            return rng.normal(self.mu, self.sigma, size=size)
        return rng.poisson(self.lam, size=size).astype(float)

    def to_json(self) -> dict:
        if self.family == "iid-categorical":
            out = {"family": self.family, "weights": list(self.weights)}
            if self.labels:
                out["labels"] = list(self.labels)
            return out
        if self.family == "polya-urn":
            out = {"family": self.family, "counts": list(self.counts)}
            if self.labels:
                out["labels"] = list(self.labels)
            return out
        if self.family == "iid-gaussian":
            return {"family": self.family, "mu": self.mu, "sigma": self.sigma}
        return {"family": self.family, "lambda": self.lam}

    @classmethod
    def from_json(cls, obj: dict) -> "ProcessSpec":
        if not isinstance(obj, dict):
            raise ValueError("a process spec must be a JSON object")
        family = obj["family"]
        if family == "iid-categorical":
            weights = json_list(obj["weights"], "weights")
            return cls(family, weights=weights, labels=labels_from_json(obj.get("labels", [])))
        if family == "polya-urn":
            counts = json_list(obj["counts"], "counts")
            return cls(family, counts=counts, labels=labels_from_json(obj.get("labels", [])))
        if family == "iid-gaussian":
            return cls(family, mu=to_float(obj["mu"], "mu"), sigma=to_float(obj["sigma"], "sigma"))
        if family == "iid-poisson":
            return cls(family, lam=to_float(obj["lambda"], "lambda"))
        raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class CoverageReport:
    family: str
    n: int
    alpha: float
    trials: int
    hits: int
    empirical_coverage: float
    standard_error: float
    passed: bool


def _default_psi(spec: ProcessSpec) -> NonconformityMeasure:
    if spec.is_label:
        return NonconformityMeasure.one_minus_emp()
    return NonconformityMeasure.mean_abs()


def _check_psi(spec: ProcessSpec, psi: NonconformityMeasure):
    if psi.kind == "one-minus-empirical-pmf" and not spec.is_label:
        raise ValueError(f"{psi.kind} needs a label family, got {spec.family}")
    if psi.kind == "mean-abs-distance" and spec.is_label:
        raise ValueError(f"{psi.kind} needs a numeric family, got {spec.family}")


def _label_trial(spec, space, n, alpha, psi, rng) -> bool:
    seq = spec.draw(rng, n + 1)
    data = tuple(space.labels[i] for i in seq[:n])
    held = int(seq[n])
    contour = transduce_grid(data, space, psi).contour
    return _member_both_ways(contour, held, alpha)


def _numeric_trial(spec, n, alpha, psi, rng) -> bool:
    seq = spec.draw(rng, n + 1)
    data, held = seq[:n], float(seq[n])
    if n == 0:
        space = FiniteOutcomeSpace((held,))
        contour = Contour.from_ranks(space, (1,), 1, provenance="raw")
        return _member_both_ways(contour, 0, alpha)

    mean = float(data.mean())
    sd = float(data.std(ddof=1)) if n > 1 else 1.0
    span = _GRID_SDS * sd if sd > 0 else 1.0
    cands = np.linspace(mean - span, mean + span, _GRID_POINTS)
    if held not in set(cands.tolist()):
        cands = np.append(cands, held)
    held_idx = int(np.nonzero(cands == held)[0][0])

    if psi.kind == "mean-abs-distance":
        ranks = _sweep_mean_abs_grid(data, cands)
    else:
        ranks = [_rank(data, c, psi) for c in cands]
    space = FiniteOutcomeSpace(tuple(cands.tolist()))
    contour = Contour.from_ranks(space, ranks, n + 1, provenance="raw")
    return _member_both_ways(contour, held_idx, alpha)


def _member_both_ways(contour: Contour, held_idx: int, alpha) -> bool:
    if contour.max_value() != 1:
        contour = adjust_double_prime(contour)
    in_cpr = held_idx in cpr(contour, alpha).event
    in_cut = held_idx in ihdr_cut(contour, alpha).event
    if in_cpr != in_cut:
        raise AssertionError("strict-cut and possibilistic-cut membership differ")
    return in_cpr


def run_coverage(
    spec: ProcessSpec,
    n: int,
    alpha: float,
    psi: NonconformityMeasure | None,
    trials: int,
    seed,
) -> CoverageReport:
    """Coverage of the level-alpha region over seeded Monte-Carlo trials.

    Each trial checks the held-out point through both region constructions
    and counts a hit when it is covered.  Pass means empirical coverage at
    least (1 - alpha) - 3 * standard error; that reading is meaningful for
    trials >= 1000.  Deterministic for a given (spec, n, alpha, seed).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    psi = _default_psi(spec) if psi is None else psi
    _check_psi(spec, psi)
    space = spec.label_space() if spec.is_label else None

    def one_trial(t: int) -> bool:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), t)))
        if spec.is_label:
            return _label_trial(spec, space, n, alpha, psi, rng)
        return _numeric_trial(spec, n, alpha, psi, rng)

    hits = sum(one_trial(t) for t in range(trials))

    coverage = hits / trials
    se = sqrt(coverage * (1 - coverage) / trials)
    return CoverageReport(
        family=spec.family,
        n=n,
        alpha=float(alpha),
        trials=trials,
        hits=int(hits),
        empirical_coverage=coverage,
        standard_error=se,
        passed=coverage >= (1 - alpha) - 3 * se,
    )


def run_uniformity_sweep(
    specs, ns, alphas, psi, trials: int, seed
) -> list[CoverageReport]:
    """One :func:`run_coverage` report per (spec, n, alpha) cell.

    The master seed is passed to every cell unchanged, so a single-cell
    sweep reproduces run_coverage exactly; cells are deterministic and
    order-independent.
    """
    return [
        run_coverage(spec, n, alpha, psi, trials, seed)
        for spec, n, alpha in product(specs, ns, alphas)
    ]
