"""Poisson-Gamma robust-Bayes pipeline: conjugacy, envelopes, smallest sets.

The predictive distribution of a Gamma(a, b) posterior is Negative
Binomial; for a = b = 1 it collapses to the geometric distribution with
success probability 1/2, giving closed-form oracles (pmf 2^-(y+1), the
level-0.2 smallest covering set {0,1,2} with mass 0.875).  The pmf is
also cross-checked against direct numerical integration of
Poisson(y|lam) * GammaDensity(lam|a,b), evaluated with the substitution
lam = u^2 so the integrand stays smooth at the origin for a >= 1/2.
"""

import time
import tracemalloc
from itertools import combinations
from math import exp, lgamma, log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import (
    AlphaOutOfRange,
    GammaParams,
    NegativeCount,
    PredictiveFGCS,
    TruncationInsufficient,
    bsa_ihdr,
    bsa_ihdr_report,
    fgcs_lower_prob,
    posterior_update,
    predictive_pmf,
)

from consonance import bsa
from conftest import trapezoid


def quadrature_pmf(a, b, y, nodes=200001):
    """Trapezoid-rule value of the predictive integral, via lam = u^2."""
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


class TestPosteriorUpdate:
    def test_conjugacy(self):
        assert posterior_update(GammaParams(2, 1), (3, 1)) == GammaParams(6, 3)
        assert posterior_update(GammaParams(1, 1), (0, 0, 0)) == GammaParams(1, 4)

    def test_empty_data_is_identity(self):
        prior = GammaParams(3.5, 0.7)
        assert posterior_update(prior, ()) == prior

    def test_posterior_density_ratio_is_flat(self):
        """posterior(lam) / (likelihood(lam) * prior(lam)) must not depend
        on lam; checked on a grid for the Gamma(2,1) + (3,1) update."""
        prior, data = GammaParams(2, 1), (3, 1)
        post = posterior_update(prior, data)

        def gamma_logpdf(lam, p):
            return p.shape * log(p.rate) - lgamma(p.shape) + (p.shape - 1) * log(lam) - p.rate * lam

        def loglik(lam):
            return sum(y * log(lam) - lam - lgamma(y + 1) for y in data)

        ratios = [
            gamma_logpdf(lam, post) - loglik(lam) - gamma_logpdf(lam, prior)
            for lam in (0.3, 1.0, 2.5, 6.0)
        ]
        assert max(ratios) - min(ratios) < 1e-12

    def test_rejects_bad_counts(self):
        with pytest.raises(NegativeCount):
            posterior_update(GammaParams(1, 1), (2, -1))
        with pytest.raises(ValueError):
            posterior_update(GammaParams(1, 1), (1.5,))

    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            GammaParams(0, 1)
        with pytest.raises(ValueError):
            GammaParams(1, -2)


class TestPredictivePmf:
    def test_geometric_closed_form(self):
        post = GammaParams(1, 1)
        assert predictive_pmf(post, 0) == pytest.approx(0.5, abs=1e-15)
        for y in range(30):
            assert predictive_pmf(post, y) == pytest.approx(2.0 ** -(y + 1), abs=1e-15)

    def test_negative_argument_has_no_mass(self):
        assert predictive_pmf(GammaParams(2, 3), -1) == 0.0

    @pytest.mark.parametrize("a", [0.5, 2.7])
    @pytest.mark.parametrize("b", [1.0, 20.0])
    def test_matches_numerical_integration(self, a, b):
        post = GammaParams(a, b)
        for y in range(0, 31, 3):
            assert predictive_pmf(post, y) == pytest.approx(
                quadrature_pmf(a, b, y), abs=1e-8
            )

    def test_normalization_over_truncated_support(self):
        for params in (GammaParams(1, 1), GammaParams(7.3, 0.9), GammaParams(0.5, 4)):
            fgcs = PredictiveFGCS((params,))
            t = fgcs.truncation()
            total = sum(predictive_pmf(params, y) for y in range(t + 1))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestTruncation:
    def test_covers_every_component(self):
        fgcs = PredictiveFGCS((GammaParams(1, 1), GammaParams(5, 0.5)))
        t = fgcs.truncation()
        for comp in fgcs.components:
            cdf = sum(predictive_pmf(comp, y) for y in range(t + 1))
            assert cdf >= 1 - 1e-10

    def test_unbounded_mean_exceeds_the_cap(self):
        fgcs = PredictiveFGCS((GammaParams(100.0, 1e-4),))
        with pytest.raises(TruncationInsufficient):
            fgcs.truncation()

    def test_empty_component_list_rejected(self):
        with pytest.raises(ValueError):
            PredictiveFGCS(())


class TestLowerEnvelope:
    TWO_GEOMETRICS = PredictiveFGCS((GammaParams(1, 1), GammaParams(1, 0.5)))

    def test_two_geometrics_at_zero(self):
        # success probabilities 1/2 and 1/3; the envelope takes the min
        assert fgcs_lower_prob(self.TWO_GEOMETRICS, {0}) == pytest.approx(1 / 3, abs=1e-12)

    def test_singleton_component_envelope_is_the_measure(self):
        fgcs = PredictiveFGCS((GammaParams(2, 1),))
        got = fgcs_lower_prob(fgcs, {0, 1})
        want = predictive_pmf(GammaParams(2, 1), 0) + predictive_pmf(GammaParams(2, 1), 1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_full_support_reaches_one(self):
        t = self.TWO_GEOMETRICS.truncation()
        assert fgcs_lower_prob(self.TWO_GEOMETRICS, set(range(t + 1))) >= 1 - 1e-10

    def test_empty_event(self):
        assert fgcs_lower_prob(self.TWO_GEOMETRICS, set()) == 0.0

    def test_event_outside_support_rejected(self):
        t = self.TWO_GEOMETRICS.truncation()
        with pytest.raises(ValueError):
            fgcs_lower_prob(self.TWO_GEOMETRICS, {t + 5})

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(4)
        t = self.TWO_GEOMETRICS.truncation()
        for _ in range(40):
            small = set(rng.choice(t + 1, size=3, replace=False).tolist())
            extra = set(rng.choice(t + 1, size=5, replace=False).tolist())
            big = small | extra
            assert fgcs_lower_prob(self.TWO_GEOMETRICS, small) <= fgcs_lower_prob(
                self.TWO_GEOMETRICS, big
            ) + 1e-15

    def test_superadditive_on_disjoint_events(self):
        rng = np.random.default_rng(9)
        t = self.TWO_GEOMETRICS.truncation()
        for _ in range(40):
            chosen = rng.choice(t + 1, size=6, replace=False).tolist()
            a, b = set(chosen[:3]), set(chosen[3:])
            lhs = fgcs_lower_prob(self.TWO_GEOMETRICS, a | b)
            rhs = fgcs_lower_prob(self.TWO_GEOMETRICS, a) + fgcs_lower_prob(
                self.TWO_GEOMETRICS, b
            )
            assert lhs >= rhs - 1e-12


class TestSmallestCoveringSet:
    def test_geometric_frozen_result(self):
        fgcs = PredictiveFGCS((GammaParams(1, 1),))
        report = bsa_ihdr_report(fgcs, 0.2)
        assert sorted(report.support) == [0, 1, 2]
        assert report.lower == pytest.approx(0.875, abs=1e-12)
        # one element fewer cannot reach the target: {0,1} has mass 0.75
        assert fgcs_lower_prob(fgcs, {0, 1}) == pytest.approx(0.75, abs=1e-12)
        # support of the geometric is too wide for the exhaustive regime
        assert report.truncation > 25
        assert not report.exhaustive_verified

    def test_exhaustive_regime_and_certificate(self):
        """Small support: the greedy-plus-swap answer must equal the true
        minimum found by complete enumeration, and gets flagged verified."""
        fgcs = PredictiveFGCS((GammaParams(2, 20), GammaParams(3, 15)))
        report = bsa_ihdr_report(fgcs, 0.1)
        assert report.exhaustive_verified
        assert sorted(report.support) == [0, 1]
        t = report.truncation
        matrix = fgcs.pmf_matrix(t)
        smallest = None
        for size in range(t + 2):
            for combo in combinations(range(t + 1), size):
                if matrix[:, list(combo)].sum(axis=1).min() >= 0.9:
                    smallest = combo
                    break
            if smallest is not None:
                break
        assert len(report.support) == len(smallest)

    def test_every_output_meets_the_level(self):
        fgcs = PredictiveFGCS((GammaParams(3, 1), GammaParams(1.5, 0.8)))
        for alpha in (0.05, 0.1, 0.25, 0.5, 0.9):
            report = bsa_ihdr_report(fgcs, alpha)
            assert report.lower >= 1 - alpha
            assert fgcs_lower_prob(fgcs, report.support) == pytest.approx(
                report.lower, abs=1e-12
            )

    def test_alpha_near_one_collapses_to_the_mode(self):
        fgcs = PredictiveFGCS((GammaParams(1, 1),))
        assert sorted(bsa_ihdr(fgcs, 0.999)) == [0]

    def test_antitone_in_alpha(self):
        fgcs = PredictiveFGCS((GammaParams(2, 1),))
        sets = [bsa_ihdr(fgcs, a) for a in (0.5, 0.2, 0.05)]
        assert sets[0] <= sets[1] <= sets[2]

    def test_component_regions_are_contained(self):
        """Each single-component smallest set sits inside the joint one."""
        c1, c2 = GammaParams(1, 1), GammaParams(4, 2)
        joint = bsa_ihdr(PredictiveFGCS((c1, c2)), 0.2)
        for comp in (c1, c2):
            alone = bsa_ihdr(PredictiveFGCS((comp,)), 0.2)
            assert fgcs_lower_prob(PredictiveFGCS((comp,)), joint) >= 0.8
            assert len(alone) <= len(joint)

    def test_alpha_validation(self):
        fgcs = PredictiveFGCS((GammaParams(1, 1),))
        for bad in (0, 1, -0.5, 2):
            with pytest.raises(AlphaOutOfRange):
                bsa_ihdr(fgcs, bad)

    def test_report_and_set_agree(self):
        fgcs = PredictiveFGCS((GammaParams(1, 1), GammaParams(1, 0.5)))
        report = bsa_ihdr_report(fgcs, 0.3)
        assert bsa_ihdr(fgcs, 0.3) == report.support
        assert len(report.per_component) == 2
        assert min(report.per_component) == pytest.approx(report.lower, abs=1e-15)


class TestCertificate:
    """Minimality one size down: decided by the row bound when it can be,
    and otherwise by streaming every smaller set through the envelope."""

    def test_single_component_needs_no_enumeration(self):
        """T = 24 and a set of 13: one size down there are C(25, 12) = 5.2M
        sets, which the certificate once built all at once in memory."""
        fgcs = PredictiveFGCS((GammaParams(27.5, 7.5),))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            report = bsa_ihdr_report(fgcs, 0.001)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.truncation == 24 and len(report.support) == 13
        assert report.exhaustive_verified
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @settings(max_examples=300)
    @given(
        st.integers(1, 3).flatmap(
            lambda j: st.integers(1, 14).flatmap(
                lambda t: st.tuples(
                    st.lists(
                        st.lists(st.floats(0, 1), min_size=t, max_size=t),
                        min_size=j,
                        max_size=j,
                    ),
                    st.integers(1, t),
                    st.floats(0.01, 1),
                )
            )
        )
    )
    def test_bound_never_rules_out_a_feasible_set(self, case):
        rows, size, target = case
        matrix = np.array(rows)
        if bsa._bound_rules_out(matrix, size, target):
            for combo in combinations(range(matrix.shape[1]), size):
                assert matrix[:, list(combo)].sum(axis=1).min() < target, combo

    #: halves of 16 outcomes, one per component: every 6-set reaches at most
    #: 0.375 under one of them, while each row's 6 largest entries hold 0.75
    HALVES = np.array([[0.125] * 8 + [0.0] * 8, [0.0] * 8 + [0.125] * 8])

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_undecided_bound_falls_back_to_enumeration(self, monkeypatch, chunk):
        monkeypatch.setattr(bsa, "_CHUNK", chunk)
        assert not bsa._bound_rules_out(self.HALVES, 6, 0.7)
        bsa._certify_minimal(self.HALVES, 6, 0.7, frozenset(range(7)))  # no 6-set reaches 0.7
        with pytest.raises(AssertionError, match="suffices"):
            bsa._certify_minimal(self.HALVES, 6, 0.375, frozenset(range(7)))
