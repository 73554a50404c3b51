"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload turns a seed into a list of *cycles*; a cycle holds one item
per stratum (coverage cell, outcome-space size K, or predictive regime), so
a run that stops on a cycle boundary always measures the same mix.  An item
is run through the package's public API only (``api`` is the imported
``consonance`` package; functions are looked up on it at call time so that
the tracer's wrappers see every call).  ``check`` inspects one item's output
and returns a list of failure descriptions; ``finish`` holds the checks that
need the whole run.  ``layer_metrics`` turns a traced pass into the
per-layer metrics of that workload.

Why these workloads:
  coverage-label    harness + count-table transducer + strict-cut regions;
                    never reaches the mean-abs grid, 2^K tables or bsa.
  coverage-numeric  the 202-candidate mean-abs grid path with Fraction cuts;
                    Poisson data adds heavy float ties.
  lattice           exact 2^K work in possibility, region and credal, K!
                    extreme points and rejection sampling at small K, and
                    the in-process ``table1`` command of the cli.
  predictive        the only workload that reaches bsa: exhaustively
                    certified searches on concentrated posteriors, Python
                    truncation/pmf loops and swap scans on diffuse ones.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from spans import LAYERS, NO_ITEM

#: criterion-8 regression anchor, checked outside the timed region
ANCHOR = dict(weights=(0.2, 0.3, 0.5), n=20, alpha=0.2, trials=10_000, seed=7, hits=9043)


def _mean(total, count):
    return total / count if count else 0.0


def _cycles(rng_seed, count, make_cycle):
    rng = np.random.default_rng(rng_seed)
    return [make_cycle(rng) for _ in range(count)]


class Workload:
    """What every workload provides; the defaults suit one operation per item."""

    noun = plural = ""

    def __init__(self, cycles):
        self.cycle_count = cycles

    def inputs(self, api, seed) -> list[list]:
        raise NotImplementedError

    def run(self, api, item):
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, ctx) -> dict:
        """Per-layer metrics of a traced run.  ``ctx`` has ``spans`` (the
        tracer's totals, by item index), ``traced_items`` and ``traced_outs``
        (aligned with those indices), ``ok`` (indices whose item returned) and
        ``untraced`` (the records of the same items run without tracing)."""
        raise NotImplementedError

    def ops(self, item) -> int:
        return 1

    def retain(self, out):
        """What ``finish`` and ``summary`` need of a checked output."""
        return None

    def finish(self, api, records) -> list[str]:
        return []

    def extra(self, api) -> list[str]:
        """Once per run, outside the timed loop."""
        return []

    def summary(self, records) -> dict:
        """Printed figures: name -> (value, unit)."""
        return {}

    def observers(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# coverage
# --------------------------------------------------------------------------

COVERAGE_NS = (20, 100)
COVERAGE_ALPHAS = (0.05, 0.2, 0.5)

#: family tag -> ProcessSpec keyword arguments
FAMILIES = {
    "cat3": dict(family="iid-categorical", weights=(0.2, 0.3, 0.5)),
    "cat12": dict(family="iid-categorical", weights=(1 / 12,) * 12),
    "urn3": dict(family="polya-urn", counts=(2, 3, 5)),
    "gauss": dict(family="iid-gaussian", mu=0.0, sigma=1.0),
    "poisson": dict(family="iid-poisson", lam=3.0),
}


def cell_name(family, n, alpha) -> str:
    return f"{family}.n{n}.a{alpha}"


@dataclass(frozen=True)
class CoverageItem:
    family: str
    spec: object
    n: int
    alpha: float
    trials: int
    seed: int

    @property
    def cell(self) -> str:
        return cell_name(self.family, self.n, self.alpha)


class Coverage(Workload):
    """``run_coverage`` batches, one per cell per cycle."""

    noun = "trial"
    plural = "trials"

    def __init__(self, families, batch, cycles):
        super().__init__(cycles)
        self.families = families
        self.batch = batch

    def inputs(self, api, seed):
        specs = {f: api.ProcessSpec(**FAMILIES[f]) for f in self.families}
        cells = [(f, n, a) for f in self.families for n in COVERAGE_NS for a in COVERAGE_ALPHAS]

        def cycle(rng):
            seeds = rng.integers(0, 2**62, size=len(cells))
            return [
                CoverageItem(f, specs[f], n, a, self.batch, int(s))
                for (f, n, a), s in zip(cells, seeds)
            ]

        return _cycles(seed, self.cycle_count, cycle)

    def ops(self, item) -> int:
        return item.trials

    def retain(self, out):
        return out

    def run(self, api, item):
        return api.run_coverage(item.spec, item.n, item.alpha, None, item.trials, item.seed)

    def check(self, item, report) -> list[str]:
        if report.trials != item.trials or not 0 <= report.hits <= item.trials:
            return [f"{item.cell}: report counts {report.hits}/{report.trials} for {item.trials} trials"]
        return []

    def pooled_hits(self, records) -> dict:
        """cell -> [hits, trials] over the completed batches."""
        pooled = {}
        for item, out, _ in records:
            if not isinstance(out, BaseException):
                acc = pooled.setdefault(item.cell, [0, 0, item.alpha])
                acc[0] += out.hits
                acc[1] += out.trials
        return pooled

    def finish(self, api, records) -> list[str]:
        """Every cell's pooled coverage clears (1 - alpha) - 3 se."""
        failures = []
        for cell, (hits, trials, alpha) in self.pooled_hits(records).items():
            coverage = hits / trials
            se = sqrt(coverage * (1 - coverage) / trials)
            if coverage < (1 - alpha) - 3 * se:
                failures.append(f"{cell}: coverage {coverage:.4f} below floor over {trials} trials")
        return failures

    def layer_metrics(self, ctx) -> dict:
        trials = sum(ctx.traced_items[i].trials for i in ctx.ok)
        spans = ctx.spans
        draw = spans.self_total("harness.ProcessSpec.draw")
        per_trial = lambda ns: _mean(ns / 1e3, trials)  # noqa: E731
        out = {
            "harness.draw_us": per_trial(draw),
            "harness.self_us": per_trial(spans.layer_self("harness") - draw),
            "transducer.self_us": per_trial(spans.layer_self("transducer")),
            "outcome.space_us": per_trial(spans.layer_self("outcome")),
            "region.cut_us": per_trial(spans.layer_self("region")),
            "transducer.adjust_ratio": _mean(spans.calls_total("transducer.adjust_double_prime"), trials),
            "transducer.candidates_per_trial": _mean(spans.count_total("candidates"), trials),
        }
        family_ns, family_trials = {}, {}
        for item, out_, dt in ctx.untraced:
            family_ns[item.family] = family_ns.get(item.family, 0.0) + dt
            family_trials[item.family] = family_trials.get(item.family, 0) + item.trials
        for f in self.families:
            out[f"harness.trial_us.{f}"] = _mean(family_ns.get(f, 0.0) * 1e6, family_trials.get(f, 0))
        for cell, (hits, _, _) in self.pooled_hits(ctx.untraced).items():
            out[f"harness.hits.{cell}"] = hits
        return out

    def observers(self):
        def grid(tracer, args, result):
            tracer.count("candidates", len(args[1]))

        def label(tracer, args, result):
            tracer.count("candidates", args[1].size)

        return {"transducer._sweep_mean_abs_grid": grid, "transducer.transduce_grid": label}


def run_anchor(api):
    """The criterion-8 anchor cell, whatever the run's seed."""
    spec = api.ProcessSpec("iid-categorical", weights=ANCHOR["weights"])
    return api.run_coverage(spec, ANCHOR["n"], ANCHOR["alpha"], None, ANCHOR["trials"], ANCHOR["seed"])


def check_anchor(report) -> list[str]:
    if report.hits != ANCHOR["hits"]:
        return [f"anchor cell gave {report.hits} hits, expected {ANCHOR['hits']}"]
    return []


# --------------------------------------------------------------------------
# lattice
# --------------------------------------------------------------------------

LATTICE_KS = (4, 6, 8, 10, 12)
LATTICE_N = 200
LATTICE_CONCENTRATION = 1.0
LATTICE_ALPHAS = (0.05, 0.2, 0.5)
LATTICE_SAMPLES = 4
SMALL_K = 6          # extreme points, entropy and sampling run for K <= 6
CAPACITY_K = 4       # capacity checks run for K == 4
CAPACITY_ORDERS = (2, 3)
SAMPLE_SLACK = 1e-12  # float slack of the package's credal membership


@dataclass(frozen=True)
class LatticeItem:
    k: int
    space: object
    bag: tuple
    psi: object
    points: tuple      # ProbabilityVector: empirical pmf first, then seeded rationals
    sample_seed: int


def _rational_point(api, weights):
    total = int(sum(weights))
    return api.ProbabilityVector(tuple(Fraction(int(w), total) for w in weights))


class Lattice(Workload):
    """Full exact pipeline on one finite-label contour per item."""

    noun = "contour"
    plural = "contours"

    def inputs(self, api, seed):
        spaces = {k: api.FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k))) for k in LATTICE_KS}
        psi = api.NonconformityMeasure.one_minus_emp()

        def item(rng, k):
            space = spaces[k]
            pmf = rng.dirichlet(np.full(k, LATTICE_CONCENTRATION))
            draws = rng.choice(k, size=LATTICE_N, p=pmf)
            bag = tuple(space.labels[i] for i in draws)
            points = (
                _rational_point(api, np.bincount(draws, minlength=k)),
                # a second bag from the same pmf: near the contour's credal set
                _rational_point(api, np.bincount(rng.choice(k, size=LATTICE_N, p=pmf), minlength=k)),
                _rational_point(api, rng.integers(1, 20, size=k)),
            )
            return LatticeItem(k, space, bag, psi, points, int(rng.integers(0, 2**31)))

        return _cycles(seed, self.cycle_count, lambda rng: [item(rng, k) for k in LATTICE_KS])

    def run(self, api, item):
        c = api.transduce_grid(item.bag, item.space, item.psi).contour
        out = {"contour": c, "upper": api.upper_table(c)}
        mass = api.mass_from_belief(lambda ev: api.lower_prob(c, ev), item.space)
        out["focal"] = api.focal_elements(mass)
        out["prop1"] = api.prop1_check(c, LATTICE_ALPHAS)
        out["regions"] = [
            (api.cpr(c, a).event, api.ihdr_intersection(c, a).event) for a in LATTICE_ALPHAS
        ]
        out["members"] = [(api.in_credal_set(p, c), api.prop2_membership(p, c)) for p in item.points]
        if item.k <= SMALL_K:
            out["extremes"] = api.extreme_points(c)
            out["entropy"] = api.lower_entropy(c)
            out["samples"] = api.sample_credal(c, count=LATTICE_SAMPLES, seed=item.sample_seed)
        if item.k == CAPACITY_K:
            upper = lambda ev: api.upper_prob(c, ev)  # noqa: E731
            lower = lambda ev: api.lower_prob(c, ev)  # noqa: E731
            out["capacity"] = [
                check(nu, k, item.space)
                for k in CAPACITY_ORDERS
                for check, nu in ((api.check_k_alternating, upper), (api.check_k_monotone, lower))
            ]
        return out

    def check(self, item, out) -> list[str]:
        tag = f"K={item.k}"
        failures = []
        if not out["prop1"].passed:
            failures.append(f"{tag}: prop1_check failed")
        focal = [set(ev.indices) for ev in out["focal"].elements]
        if not out["focal"].nested or any(not a <= b for a, b in zip(focal, focal[1:])):
            failures.append(f"{tag}: focal elements are not a nested chain")
        for alpha, (cut, inter) in zip(LATTICE_ALPHAS, out["regions"]):
            if cut != inter:
                failures.append(f"{tag}: cpr != ihdr_intersection at alpha={alpha}")
        for i, (exhaustive, strong_cut) in enumerate(out["members"]):
            if exhaustive != strong_cut:
                failures.append(f"{tag}: in_credal_set != prop2_membership for point {i}")
        if item.k <= SMALL_K:
            if out["entropy"] != 0.0:
                failures.append(f"{tag}: lower entropy {out['entropy']} != 0.0")
            for kind in ("extremes", "samples"):
                for p in out[kind]:
                    if not _dominated(p.weights, out["upper"]):
                        failures.append(f"{tag}: {kind} point {p.as_floats()} is outside the credal set")
        if item.k == CAPACITY_K and not all(out["capacity"]):
            failures.append(f"{tag}: capacity check failed on a consonant contour")
        return failures

    def extra(self, api) -> list[str]:
        """Once per run: the bundled reference artifact through the cli."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = api.cli.main(["--json", "table1"])
        return check_table1(code, buf.getvalue())

    def layer_metrics(self, ctx) -> dict:
        out = {}
        for k in LATTICE_KS:
            group = [i for i in ctx.ok if ctx.traced_items[i].k == k]
            n = len(group)
            ms = lambda name: _mean(ctx.spans.dur_total(name, group) / 1e6, n)  # noqa: E731
            per = lambda total: _mean(total, n)  # noqa: E731
            out[f"possibility.upper_table_ms.k{k}"] = ms("possibility.upper_table")
            out[f"possibility.mass_from_belief_ms.k{k}"] = ms("possibility.mass_from_belief")
            out[f"possibility.lower_prob_ms.k{k}"] = ms("possibility.lower_prob")
            out[f"possibility.lower_prob_calls.k{k}"] = per(ctx.spans.calls_total("possibility.lower_prob", group))
            out[f"outcome.events_built.k{k}"] = per(ctx.spans.calls_total("outcome.Event.__post_init__", group))
            out[f"region.prop1_check_ms.k{k}"] = ms("region.prop1_check")
            out[f"region.prop1_alphas.k{k}"] = per(sum(len(ctx.traced_outs[i]["prop1"].alphas) for i in group))
            out[f"region.ihdr_intersection_ms.k{k}"] = ms("region.ihdr_intersection")
            out[f"credal.in_credal_set_ms.k{k}"] = ms("credal.in_credal_set")
            out[f"credal.prop2_membership_ms.k{k}"] = ms("credal.prop2_membership")
            if k <= SMALL_K:
                out[f"credal.extreme_points_ms.k{k}"] = ms("credal.extreme_points")
                out[f"credal.sample_credal_ms.k{k}"] = ms("credal.sample_credal")
            if k == CAPACITY_K:
                out[f"possibility.capacity_check_ms.k{k}"] = ms("possibility.check_k_alternating") + ms(
                    "possibility.check_k_monotone"
                )
        out["credal.sample_accept_ratio"] = _mean(ctx.spans.count_total("accepted"), ctx.spans.count_total("proposals"))
        out["cli.table1_ms"] = ctx.spans.dur_total("cli.main", [NO_ITEM]) / 1e6
        return out

    def observers(self):
        def membership(tracer, args, result):
            if tracer.parent_name() == "credal.sample_credal":
                tracer.count("proposals")
                tracer.count("accepted", int(bool(result)))

        return {"credal.in_credal_set": membership}


def _dominated(weights, upper) -> bool:
    """P(A) <= upper(A) + slack for every event A, by bitmask."""
    k = len(weights)
    prob = [0.0] * (1 << k)
    for m in range(1, 1 << k):
        low = (m & -m).bit_length() - 1
        prob[m] = prob[m & (m - 1)] + float(weights[low])
    return all(prob[m] <= float(upper[m]) + SAMPLE_SLACK for m in range(1 << k))


TABLE1_CONTOUR = ["21/101", "51/101", "1/1"]


def check_table1(code, stdout) -> list[str]:
    if code != 0:
        return [f"table1 exited {code}"]
    try:
        contour = json.loads(stdout)["contour"]
    except (ValueError, KeyError) as exc:
        return [f"table1 printed no contour: {exc}"]
    if contour != TABLE1_CONTOUR:
        return [f"table1 contour {contour} != {TABLE1_CONTOUR}"]
    return []


# --------------------------------------------------------------------------
# predictive
# --------------------------------------------------------------------------

PREDICTIVE_NS = (0, 5, 50)
PREDICTIVE_COMPONENTS = (1, 2, 3)
PREDICTIVE_ALPHAS = (0.01, 0.1, 0.2, 0.5, 0.9)

#: regime -> (true-rate range, prior-rate range).  Concentrated posteriors
#: keep T + 1 <= 25, so the exhaustive certificate runs; their range also
#: keeps its enumeration to about 10^4 subsets, so the run's peak memory does
#: not hinge on one rare query.  Diffuse ones keep T + 1 > 25, with T in the
#: tens to hundreds.
REGIMES = {
    "concentrated": ((0.3, 1.0), (5.0, 10.0)),
    "diffuse": ((10.0, 20.0), (0.1, 0.6)),
}
PRIOR_MEAN_SPREAD = {"concentrated": (0.7, 1.4), "diffuse": (0.5, 2.0)}


@dataclass(frozen=True)
class PredictiveItem:
    regime: str
    priors: tuple
    data: tuple
    alpha: float


class Predictive(Workload):
    """``posterior_update`` then ``bsa_ihdr_report`` per query."""

    noun = "query"
    plural = "queries"
    strata_count = len(REGIMES) * len(PREDICTIVE_NS) * len(PREDICTIVE_COMPONENTS) * len(PREDICTIVE_ALPHAS)

    def inputs(self, api, seed):
        def item(rng, regime, n, components, alpha):
            (lam_lo, lam_hi), (rate_lo, rate_hi) = REGIMES[regime]
            spread_lo, spread_hi = PRIOR_MEAN_SPREAD[regime]
            lam = rng.uniform(lam_lo, lam_hi)
            priors = []
            for _ in range(components):
                rate = rng.uniform(rate_lo, rate_hi)
                mean = lam * rng.uniform(spread_lo, spread_hi)
                priors.append(api.GammaParams(mean * rate, rate))
            data = tuple(int(y) for y in rng.poisson(lam, size=n))
            return PredictiveItem(regime, tuple(priors), data, alpha)

        strata = [
            (r, n, j, a)
            for r in REGIMES
            for n in PREDICTIVE_NS
            for j in PREDICTIVE_COMPONENTS
            for a in PREDICTIVE_ALPHAS
        ]
        return _cycles(seed, self.cycle_count, lambda rng: [item(rng, *s) for s in strata])

    def run(self, api, item):
        posts = tuple(api.posterior_update(p, item.data) for p in item.priors)
        return api.bsa_ihdr_report(api.PredictiveFGCS(posts), item.alpha)

    def check(self, item, report) -> list[str]:
        failures = []
        if not report.lower >= 1 - item.alpha:
            failures.append(f"covering set lower {report.lower} < 1 - alpha = {1 - item.alpha}")
        if not report.support or not all(0 <= y <= report.truncation for y in report.support):
            failures.append(f"covering set {sorted(report.support)} outside 0..{report.truncation}")
        return failures

    def retain(self, out):
        return out if isinstance(out, BaseException) else len(out.support)

    def summary(self, records) -> dict:
        return {"set_size_total": (set_size_total([size for _, size, _ in records], self.strata_count), "count")}

    def layer_metrics(self, ctx) -> dict:
        queries = len(ctx.ok)
        reports = [ctx.traced_outs[i] for i in ctx.ok]
        certified = [i for i in ctx.ok if ctx.traced_outs[i].exhaustive_verified]
        uncertified = [i for i in ctx.ok if not ctx.traced_outs[i].exhaustive_verified]
        search = lambda group: _mean(ctx.spans.self_total("bsa.bsa_ihdr_report", group) / 1e6, len(group))  # noqa: E731
        return {
            "bsa.truncation_ms": _mean(ctx.spans.dur_total("bsa.PredictiveFGCS.truncation") / 1e6, queries),
            "bsa.pmf_matrix_ms": _mean(ctx.spans.dur_total("bsa.PredictiveFGCS.pmf_matrix") / 1e6, queries),
            "bsa.search_ms.certified": search(certified),
            "bsa.search_ms.uncertified": search(uncertified),
            "bsa.swaps_applied": _mean(sum(r.swaps_applied for r in reports), queries),
            "bsa.support_points": _mean(sum(r.truncation + 1 for r in reports), queries),
            "bsa.certified_ratio": _mean(len(certified), queries),
            "bsa.set_size_total": set_size_total([self.retain(out) for _, out, _ in ctx.untraced], self.strata_count),
        }


def set_size_total(sizes, first_cycle) -> int:
    """Sum of covering-set sizes over the first cycle: exact for a seed."""
    return sum(size for size in sizes[:first_cycle] if not isinstance(size, BaseException))


# --------------------------------------------------------------------------

WORKLOADS = {
    "coverage-label": Coverage(("cat3", "cat12", "urn3"), batch=100, cycles=200),
    "coverage-numeric": Coverage(("gauss", "poisson"), batch=10, cycles=200),
    "lattice": Lattice(cycles=40),
    "predictive": Predictive(cycles=100),
}


# --------------------------------------------------------------------------
# metric catalogue
# --------------------------------------------------------------------------

#: end-to-end metric -> (unit, better).  A "cal" is the time one run of the
#: benchmark's calibration kernel takes beside the measured item.
END_TO_END = {
    "ops_per_cal": ("1/cal", "higher"),
    "op_p50_cal": ("cal", "lower"),
    "op_p90_cal": ("cal", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    rows = [
        ("setup.import_ms", "ms", "lower"),
        ("setup.inputs_ms", "ms", "lower"),
    ]
    rows += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    rows += [
        ("untraced.remainder_share", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    rows += [(f"harness.trial_us.{f}", "us", "lower") for f in FAMILIES]
    rows += [
        ("harness.draw_us", "us", "lower"),
        ("harness.self_us", "us", "lower"),
        ("transducer.self_us", "us", "lower"),
        ("outcome.space_us", "us", "lower"),
        ("region.cut_us", "us", "lower"),
        ("transducer.adjust_ratio", "ratio", "lower"),
        ("transducer.candidates_per_trial", "count", "lower"),
    ]
    for k in LATTICE_KS:
        rows += [
            (f"possibility.upper_table_ms.k{k}", "ms", "lower"),
            (f"possibility.mass_from_belief_ms.k{k}", "ms", "lower"),
            (f"possibility.lower_prob_ms.k{k}", "ms", "lower"),
            (f"possibility.lower_prob_calls.k{k}", "count", "lower"),
            (f"outcome.events_built.k{k}", "count", "lower"),
            (f"region.prop1_check_ms.k{k}", "ms", "lower"),
            (f"region.prop1_alphas.k{k}", "count", "lower"),
            (f"region.ihdr_intersection_ms.k{k}", "ms", "lower"),
            (f"credal.in_credal_set_ms.k{k}", "ms", "lower"),
            (f"credal.prop2_membership_ms.k{k}", "ms", "lower"),
        ]
    rows += [(f"credal.extreme_points_ms.k{k}", "ms", "lower") for k in LATTICE_KS if k <= SMALL_K]
    rows += [(f"credal.sample_credal_ms.k{k}", "ms", "lower") for k in LATTICE_KS if k <= SMALL_K]
    rows += [
        ("credal.sample_accept_ratio", "ratio", "higher"),
        (f"possibility.capacity_check_ms.k{CAPACITY_K}", "ms", "lower"),
        ("cli.table1_ms", "ms", "lower"),
        ("bsa.truncation_ms", "ms", "lower"),
        ("bsa.pmf_matrix_ms", "ms", "lower"),
        ("bsa.search_ms.certified", "ms", "lower"),
        ("bsa.search_ms.uncertified", "ms", "lower"),
        ("bsa.swaps_applied", "count", "lower"),
        ("bsa.support_points", "count", "lower"),
        ("bsa.certified_ratio", "ratio", "higher"),
        ("bsa.set_size_total", "count", "lower"),
    ]
    rows += [
        (f"harness.hits.{cell_name(f, n, a)}", "count", "higher")
        for f in FAMILIES
        for n in COVERAGE_NS
        for a in COVERAGE_ALPHAS
    ]
    return rows
