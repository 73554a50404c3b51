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

Every trial's region is built twice, by two constructions in
:mod:`consonance.region` that share no code: the strict cut
``levels > threshold(alpha)`` (the CPR) and the necessity-side prefix of
the descending-level order (the IHDR cut).  Any trial on which they differ
raises ``AssertionError``, so a run that completes certifies their
agreement trial by trial.

Label cells under the empirical-pmf measure take the count-table path: the
trials of a cell run in blocks of ``_BLOCK``, each trial's draw fills one
row of a ``(T, n+1)`` index block, one offset ``bincount`` turns the block
into a ``(T, K)`` count matrix, and one rank matrix
(:func:`~consonance.transducer._count_ranks`) feeds both constructions for
the whole block.  Label cells under a user measure, and numeric cells, run
per trial through ``transduce_grid``, ``cpr`` and ``ihdr_cut``.  Numeric
data uses 201 grid candidates spanning sample mean +/- 6 sample sd plus
the held-out point itself; the center candidate sits at the sample mean,
so the raw contour attains 1 there up to float rounding.  On the rare
trial where rounding leaves the maximum below 1, the argmax is lifted to 1
(the sharper consonance adjustment), which only enlarges the region and
keeps the bound conservative.

Contours stay in rank form, ``k/(n+1)``, from the transducer through both
region constructions, so no trial compares a Fraction with a float.

Trial t of a cell draws from ``default_rng(SeedSequence((seed, t)))``, so
trials are order-independent and both paths see the same draws.  The
per-trial path builds that generator.  The count-table path computes the
PCG64 ``(state, inc)`` of a whole block at once -- SeedSequence's hash and
mixing as wrapping uint32 array operations over t, then PCG64's two seeding
steps (O'Neill 2014) in Python ints -- and re-seeds one generator per
trial; each block checks its first state against numpy's own
``PCG64(SeedSequence((seed, start)))`` and raises ``AssertionError`` on a
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import inf, isfinite, sqrt

import numpy as np

from ._num import json_list, to_float, tolerance
from .outcome import FiniteOutcomeSpace, labels_from_json
from .region import _cut_rows, _prefix_rows, cpr, ihdr_cut
from .transducer import (
    Contour,
    NonconformityMeasure,
    _count_ranks,
    _rank,
    _rank_threshold,
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

#: trials per block of a count-table cell; bounds its memory for any trial count
_BLOCK = 1024

#: SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
#: 128-bit LCG multiplier (O'Neill 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _cdf(p: np.ndarray) -> np.ndarray:
    """``Generator.choice``'s own table: the cumulative pmf, ending at exactly 1."""
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


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
    _weights_cdf: np.ndarray = field(default=None, init=False, repr=False, compare=False)

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
            object.__setattr__(self, "_weights_cdf", _cdf(np.array(self.weights, float)))
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
        """One exchangeable sequence: label index array or float array.

        Labels are drawn as ``Generator.choice(K, size, p=p)`` draws them,
        inverse-cdf on ``rng.random(size)``, so the indices and the
        generator's state afterwards are the same as that call's.
        """
        if self.family == "iid-categorical":
            return self._weights_cdf.searchsorted(rng.random(size), side="right")
        if self.family == "polya-urn":
            theta = rng.dirichlet(np.array(self.counts, float))
            return _cdf(theta).searchsorted(rng.random(size), side="right")
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
    path: str  # "count-table" (label cells decided in blocks) or "per-trial"


def _default_psi(spec: ProcessSpec) -> NonconformityMeasure:
    if spec.is_label:
        return NonconformityMeasure.one_minus_emp()
    return NonconformityMeasure.mean_abs()


def _check_psi(spec: ProcessSpec, psi: NonconformityMeasure):
    if psi.kind == "one-minus-empirical-pmf" and not spec.is_label:
        raise ValueError(f"{psi.kind} needs a label family, got {spec.family}")
    if psi.kind == "mean-abs-distance" and spec.is_label:
        raise ValueError(f"{psi.kind} needs a numeric family, got {spec.family}")


def _trial_rng(seed, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), t)))


def _words(x: int) -> list[int]:
    """``x`` as little-endian uint32 words, as SeedSequence splits an int."""
    out = [x & 0xFFFFFFFF]
    while x := x >> 32:
        out.append(x & 0xFFFFFFFF)
    return out


def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's running hash constant over ``calls`` hashmix calls:
    its value before and after each call, as uint32 columns."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    col = np.array(consts, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


def _hashmix(v: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    v = (v ^ pre) * post
    return v ^ v >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> np.uint32(16)


def _pcg64_states(seed, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``default_rng(SeedSequence((seed, t)))``
    starts in, for every t in ``range(start, stop)``.

    SeedSequence's entropy pool runs as uint32 array operations with one
    column per trial, so every wraparound happens in an array operation;
    ``generate_state(4, uint64)`` then gives each trial its 128-bit seed and
    stream, and PCG64's two seeding steps run in Python ints.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    width = len(_words(start))
    if len(_words(stop - 1)) != width:  # t gains a word at each power of 2**32
        edge = 1 << 32 * width
        return _pcg64_states(seed, start, edge) + _pcg64_states(seed, edge, stop)
    t = np.arange(start, stop, dtype=np.uint64)
    words = _words(seed)
    entropy = np.zeros((max(len(words) + width, _POOL_SIZE), t.size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    for i in range(width):
        entropy[len(words) + i] = t >> np.uint64(32 * i)  # the cast keeps the low word

    pre, post = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], pre[:_POOL_SIZE], post[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):  # each word into every other, in order
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], pre[k : k + 3], post[k : k + 3]))
        k += 3
    for word in entropy[_POOL_SIZE:]:  # entropy past the pool, into every word
        pool = _mix(pool, _hashmix(word, pre[k : k + _POOL_SIZE], post[k : k + _POOL_SIZE]))
        k += _POOL_SIZE

    pre, post = _hash_consts(_INIT_B, _MULT_B, 8)
    out = _hashmix(np.tile(pool, (2, 1)), pre, post).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _count_table_hits(spec, k: int, n: int, alpha, trials: int, seed) -> int:
    """Hits of a label cell under the empirical-pmf measure, ``_BLOCK`` trials
    at a time over one rank matrix, each trial checked both ways.  A label
    contour always attains 1 (the modal label's rank is n+1), so none needs
    the consonance adjustment.

    One generator is re-seeded per trial with the state of
    :func:`_pcg64_states`; each block first checks that state against
    numpy's own ``PCG64(SeedSequence((seed, start)))``.
    """
    thr = _rank_threshold(alpha, n + 1)
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {}  # the loop below writes each trial's state and inc here
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    hits = 0
    for start in range(0, trials, _BLOCK):
        states = _pcg64_states(seed, start, min(start + _BLOCK, trials))
        ref = np.random.PCG64(np.random.SeedSequence((int(seed), start))).state["state"]
        if states[0] != (ref["state"], ref["inc"]):
            raise AssertionError(f"block seeding differs from SeedSequence at trial {start}")
        draws = np.empty((len(states), n + 1), dtype=np.intp)
        for row, (pcg["state"], pcg["inc"]) in enumerate(states):
            gen.bit_generator.state = state
            draws[row] = spec.draw(gen, n + 1)
        offsets = k * np.arange(len(states))[:, None]
        counts = np.bincount((draws[:, :n] + offsets).ravel(), minlength=k * len(states))
        ranks = _count_ranks(counts.reshape(-1, k))
        cut = _cut_rows(ranks, thr)
        split = (cut != _prefix_rows(ranks, thr)).any(axis=1)
        if split.any():
            t = start + int(np.argmax(split))
            raise AssertionError(f"strict cut and necessity prefix differ on trial {t}")
        hits += int(cut[np.arange(len(states)), draws[:, n]].sum())
    return hits


def _trial_hit(spec, space, n, alpha, psi, rng) -> bool:
    seq = spec.draw(rng, n + 1)
    if spec.is_label:
        data = tuple(space.labels[i] for i in seq[:n])
        return _member_both_ways(transduce_grid(data, space, psi).contour, int(seq[n]), alpha)

    data, held = seq[:n], float(seq[n])
    if n == 0:
        space = FiniteOutcomeSpace((held,))
        contour = Contour.from_ranks(space, (1,), 1, provenance="raw")
        return _member_both_ways(contour, 0, alpha)

    mean = float(data.mean())
    sd = float(data.std(ddof=1)) if n > 1 else 1.0
    span = _GRID_SDS * sd if sd > 0 else 1.0
    cands = np.linspace(mean - span, mean + span, _GRID_POINTS)
    at_held = np.flatnonzero(cands == held)
    if at_held.size:
        held_idx = int(at_held[0])
    else:
        cands, held_idx = np.append(cands, held), _GRID_POINTS

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
    region = cpr(contour, alpha).event
    if region != ihdr_cut(contour, alpha).event:
        raise AssertionError("strict cut and necessity prefix differ")
    return held_idx in region


def run_coverage(
    spec: ProcessSpec,
    n: int,
    alpha: float,
    psi: NonconformityMeasure | None,
    trials: int,
    seed,
) -> CoverageReport:
    """Coverage of the level-alpha region over seeded Monte-Carlo trials.

    Each trial builds its region twice, as the strict cut and as the
    necessity-side prefix, raises ``AssertionError`` if the two differ, and
    counts a hit when the held-out point is covered.  Label cells under the
    empirical-pmf measure are decided in blocks over one rank matrix
    (``path="count-table"``); every other cell runs trial by trial
    (``path="per-trial"``).  Both paths give the same hits.  Pass means
    empirical coverage at least (1 - alpha) - 3 * standard error; that
    reading is meaningful for trials >= 1000.  Deterministic for a given
    (spec, n, alpha, seed).
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

    if spec.is_label and psi.kind == "one-minus-empirical-pmf":
        path = "count-table"
        hits = _count_table_hits(spec, space.size, n, alpha, trials, seed)
    else:
        path = "per-trial"
        hits = sum(
            _trial_hit(spec, space, n, alpha, psi, _trial_rng(seed, t)) for t in range(trials)
        )

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
        path=path,
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
