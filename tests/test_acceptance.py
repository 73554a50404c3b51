"""Release gate: ten numbered end-to-end criteria.

Each test here is one acceptance criterion; the terminal summary reports
them as ``ACCEPTANCE n: PASS/FAIL`` lines (see ``conftest.py``).  The
criteria pin the worked three-label artifact exactly, sweep the algebraic
identities over randomized consonant contours, and hold the Monte-Carlo
coverage floor and the counting-predictive pipeline to their stated
tolerances.  Randomized sweeps use fixed seeds so a failure is a real
regression, never flakiness.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product
from math import lgamma, log, sqrt

import numpy as np

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    GammaParams,
    NonconformityMeasure,
    PredictiveFGCS,
    ProbabilityVector,
    ProcessSpec,
    bsa_ihdr_report,
    check_k_alternating,
    check_k_monotone,
    cpr,
    focal_elements,
    ihdr_cut,
    ihdr_intersection,
    in_credal_set,
    lower_entropy,
    lower_prob,
    mass_from_belief,
    predictive_pmf,
    prop1_check,
    prop2_membership,
    run_uniformity_sweep,
    transduce_grid,
    upper_prob,
    upper_table,
)
from consonance.cli import main as cli_main

from conftest import ABC_BAG, trapezoid


def rational_contour(rng: random.Random, k: int) -> Contour:
    """Random consonant contour with exact rational values in (0, 1]."""
    denom = rng.choice((8, 12, 24, 40, 101))
    values = [Fraction(rng.randint(1, denom), denom) for _ in range(k)]
    values[rng.randrange(k)] = Fraction(1)
    space = FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))
    return Contour(space, tuple(values), provenance="raw")


def rational_simplex_point(rng: random.Random, k: int) -> ProbabilityVector:
    parts = [rng.randint(0, 30) for _ in range(k)]
    if sum(parts) == 0:
        parts[rng.randrange(k)] = 1
    total = sum(parts)
    return ProbabilityVector(tuple(Fraction(p, total) for p in parts))


def test_criterion_01_reference_artifact_rows(capsys):
    """`table1` emits the six frozen lower/upper pairs as exact rationals,
    in under a second."""
    start = time.perf_counter()
    code = cli_main(["--json", "table1"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0

    got = {
        tuple(r["event"]): (Fraction(r["lower"]), Fraction(r["upper"]))
        for r in payload["rows"]
    }
    f = Fraction
    assert got == {
        ("A",): (f(0), f(21, 101)),
        ("B",): (f(0), f(51, 101)),
        ("C",): (f(50, 101), f(1)),
        ("A", "B"): (f(0), f(51, 101)),
        ("A", "C"): (f(50, 101), f(1)),
        ("B", "C"): (f(80, 101), f(1)),
    }
    assert elapsed < 1.0


def test_criterion_02_three_label_contour(abc_space):
    """The 20/30/50 bag transduces to (21/101, 51/101, 1) exactly."""
    result = transduce_grid(ABC_BAG, abc_space, NonconformityMeasure.one_minus_emp())
    assert result.contour.values == (
        Fraction(21, 101),
        Fraction(51, 101),
        Fraction(1),
    )


def test_criterion_03_region_constructions_coincide():
    """Strict cut, possibilistic cut and the intersection construction give
    the same event at every breakpoint and midpoint of 200 random consonant
    contours (K between 2 and 8), in under 30 seconds."""
    rng = random.Random(33)
    start = time.perf_counter()
    for trial in range(200):
        c = rational_contour(rng, rng.randint(2, 8))
        distinct = sorted(set(c.values))
        alphas = [Fraction(0)] + distinct + [
            (a + b) / 2 for a, b in zip(distinct, distinct[1:])
        ]
        for alpha in alphas:
            a = cpr(c, alpha).event
            b = ihdr_cut(c, alpha).event
            d = ihdr_intersection(c, alpha).event
            assert a == b == d, f"divergence at alpha={alpha} on contour {c.values}"
        if trial % 20 == 0:
            report = prop1_check(c)
            assert report.passed and not report.failures
    assert time.perf_counter() - start < 30.0


def test_criterion_04_membership_routes_agree():
    """Exhaustive event-wise dominance and the strong-cut shortcut agree on
    every (contour, vector) pair: 100 contours (K at most 6) times 100
    rational simplex points, exact arithmetic, under 60 seconds."""
    rng = random.Random(44)
    start = time.perf_counter()
    members = 0
    for _ in range(100):
        c = rational_contour(rng, rng.randint(2, 6))
        k = c.size
        for _ in range(100):
            p = rational_simplex_point(rng, k)
            via_events = in_credal_set(p, c)
            via_cuts = prop2_membership(p, c)
            assert via_events == via_cuts, (c.values, p.weights)
            members += via_events
    assert 0 < members < 100 * 100  # both answers genuinely exercised
    assert time.perf_counter() - start < 60.0


def test_criterion_05_max_decomposability():
    """upper(A u B) = max(upper(A), upper(B)) and upper(empty) = 0:
    exhaustive over all event pairs for K up to 6, 1000 random pairs for K
    up to 12, and max-additivity over random overlapping triples."""
    rng = random.Random(55)

    for k in range(2, 7):
        for _ in range(3):
            c = rational_contour(rng, k)
            table = upper_table(c)
            assert table[0] == 0
            size = 1 << k
            for a in range(size):
                for b in range(size):
                    assert table[a | b] == max(table[a], table[b])

    for _ in range(1000):
        c = rational_contour(rng, rng.randint(7, 12))
        size = 1 << c.size
        a = Event.from_mask(rng.randrange(1, size), c.size)
        b = Event.from_mask(rng.randrange(1, size), c.size)
        union = Event.from_mask(a.mask | b.mask, c.size)
        assert upper_prob(c, union) == max(upper_prob(c, a), upper_prob(c, b))

    for _ in range(300):
        c = rational_contour(rng, rng.randint(3, 10))
        size = 1 << c.size
        shared = 1 << rng.randrange(c.size)  # common outcome: never disjoint
        masks = [shared | rng.randrange(size) for _ in range(3)]
        events = [Event.from_mask(m, c.size) for m in masks]
        assert all(ea.mask & eb.mask for ea in events for eb in events)
        union = Event.from_mask(masks[0] | masks[1] | masks[2], c.size)
        assert upper_prob(c, union) == max(upper_prob(c, ev) for ev in events)


def test_criterion_06_moebius_round_trip(abc_contour, abc_space):
    """bel -> mass -> bel is the identity (exact rationals, K up to 6), the
    worked bag's masses are {50/101, 30/101, 21/101} on the nested chain,
    and every consonant contour's focal elements form a chain."""
    rng = random.Random(66)
    for k in range(2, 7):
        for _ in range(10):
            c = rational_contour(rng, k)
            mass = mass_from_belief(lambda ev: lower_prob(c, ev), c.space)
            for m in range(1 << k):
                ev = Event.from_mask(m, k)
                assert mass.belief(ev) == lower_prob(c, ev)
            assert focal_elements(mass).nested

    mass = mass_from_belief(lambda ev: lower_prob(abc_contour, ev), abc_space)
    got = {tuple(ev.to_labels(abc_space)): m for ev, m in mass.masses.items()}
    assert got == {
        ("C",): Fraction(50, 101),
        ("B", "C"): Fraction(30, 101),
        ("A", "B", "C"): Fraction(21, 101),
    }


def test_criterion_07_capacity_orders():
    """The upper set function is k-alternating and the lower one k-monotone
    for k in {2, 3, 4} on 50 random consonant contours with K at most 5."""
    rng = random.Random(77)
    for _ in range(50):
        c = rational_contour(rng, rng.randint(2, 5))
        for k in (2, 3, 4):
            alt = check_k_alternating(lambda ev: upper_prob(c, ev), k, c.space)
            mon = check_k_monotone(lambda ev: lower_prob(c, ev), k, c.space)
            assert alt.ok, alt.witness
            assert mon.ok, mon.witness


def test_criterion_08_coverage_floor():
    """Empirical coverage stays above (1 - alpha) - 3se in all 18 cells of
    the {categorical, gaussian, urn} x {20, 100} x {0.05, 0.2, 0.5} sweep
    at 10,000 trials, in under 5 minutes.  Every trial consults both region
    constructions and aborts on any membership mismatch, so completion also
    certifies their per-trial identity."""
    specs = (
        ProcessSpec("iid-categorical", weights=(0.2, 0.3, 0.5)),
        ProcessSpec("iid-gaussian", mu=0.0, sigma=1.0),
        ProcessSpec("polya-urn", counts=(2, 3, 5)),
    )
    start = time.perf_counter()
    reports = run_uniformity_sweep(specs, (20, 100), (0.05, 0.2, 0.5), None, 10000, 7)
    elapsed = time.perf_counter() - start

    assert len(reports) == 18
    for r in reports:
        floor = (1 - r.alpha) - 3 * r.standard_error
        assert r.passed and r.empirical_coverage >= floor, (
            f"{r.family} n={r.n} alpha={r.alpha}: {r.empirical_coverage} < {floor}"
        )
    # seeded regression anchor: one cell's exact hit count
    cell = reports[1]
    assert (cell.family, cell.n, cell.alpha) == ("iid-categorical", 20, 0.2)
    assert cell.hits == 9043
    assert elapsed < 300.0


def _quadrature_pmf(a, b, y, nodes=200001):
    """Trapezoid-rule predictive mass via the substitution lam = u^2."""
    mean, sd = a / b, sqrt(a) / b
    hi = sqrt(mean + 40 * sd + 10)
    u = np.linspace(0.0, hi, nodes)
    expo = 2 * y + 2 * a - 1
    const = log(2.0) + a * log(b) - lgamma(a) - lgamma(y + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logu = np.where(u > 0, np.log(u), -np.inf)
        power = np.where((u == 0) & (expo == 0), 0.0, expo * logu)
    vals = np.exp(const + power - (b + 1) * u * u)
    return float(trapezoid(vals, u))


def test_criterion_09_predictive_pipeline():
    """predictive_pmf matches direct numerical integration within 1e-8 over
    the parameter box; every reported covering set's lower envelope meets
    1 - alpha; the no-data Gamma(1,1) case yields {0, 1, 2} at alpha 0.2."""
    worst = 0.0
    for a, b in product((0.5, 1.0, 2.7, 7.3, 20.0), (0.5, 1.0, 3.1, 20.0)):
        post = GammaParams(a, b)
        for y in range(0, 51):
            err = abs(predictive_pmf(post, y) - _quadrature_pmf(a, b, y))
            worst = max(worst, err)
    assert worst <= 1e-8

    mixtures = (
        (GammaParams(1, 1),),
        (GammaParams(2, 1), GammaParams(5, 2)),
        (GammaParams(0.5, 0.5), GammaParams(20, 3.1)),
    )
    for posts, alpha in product(mixtures, (0.01, 0.1, 0.2, 0.5, 0.9)):
        report = bsa_ihdr_report(PredictiveFGCS(posts), alpha)
        assert report.lower >= 1 - alpha

    geometric = bsa_ihdr_report(PredictiveFGCS((GammaParams(1, 1),)), 0.2)
    assert geometric.support == frozenset({0, 1, 2})


def test_criterion_10_zero_lower_entropy(abc_contour):
    """The credal set of any consonant contour contains a point mass, so
    the minimum Shannon entropy is exactly zero on the rational path."""
    assert lower_entropy(abc_contour) == 0.0
    rng = random.Random(1010)
    for _ in range(50):
        c = rational_contour(rng, rng.randint(2, 6))
        assert lower_entropy(c) == 0.0
    dirac = Contour(
        FiniteOutcomeSpace(("a", "b")), (Fraction(1), Fraction(1, 9)), "raw"
    )
    assert lower_entropy(dirac) == 0.0
