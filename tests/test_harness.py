"""Monte-Carlo coverage harness: process specs, seeded trials, sweeps.

Each trial draws n+1 exchangeable points, transduces the first n, and
asks whether the held-out point falls in the level-alpha region — through
both the plain strict cut and the highest-density construction, which
must agree trial by trial.  Hit counts for a handful of seeded small runs
are frozen below as regression anchors; the statistically meaningful
10,000-trial sweep lives in the acceptance suite.
"""

import numpy as np
import pytest

from consonance import (
    CoverageReport,
    NonconformityMeasure,
    ProcessSpec,
    run_coverage,
    run_uniformity_sweep,
)

CATEGORICAL = ProcessSpec("iid-categorical", weights=(0.2, 0.3, 0.5))
GAUSSIAN = ProcessSpec("iid-gaussian", mu=0.0, sigma=1.0)
URN = ProcessSpec("polya-urn", counts=(2, 3, 5))
POISSON = ProcessSpec("iid-poisson", lam=4.0)


class TestProcessSpec:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec("markov-chain")
        with pytest.raises(ValueError):
            ProcessSpec("iid-categorical", weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            ProcessSpec("iid-categorical")
        with pytest.raises(ValueError):
            ProcessSpec("iid-gaussian", sigma=0.0)
        with pytest.raises(ValueError):
            ProcessSpec("iid-poisson", lam=-1.0)
        with pytest.raises(ValueError):
            ProcessSpec("polya-urn", counts=(2, 0))
        with pytest.raises(ValueError):
            ProcessSpec("polya-urn", counts=(1.5, 2))

    def test_default_labels(self):
        assert CATEGORICAL.label_space().labels == ("c0", "c1", "c2")
        named = ProcessSpec("iid-categorical", weights=(0.5, 0.5), labels=("L", "R"))
        assert named.label_space().labels == ("L", "R")
        with pytest.raises(ValueError):
            ProcessSpec("iid-categorical", weights=(0.5, 0.5), labels=("only",))

    def test_label_vs_numeric(self):
        assert CATEGORICAL.is_label and URN.is_label
        assert not GAUSSIAN.is_label and not POISSON.is_label

    def test_draw_shapes_and_ranges(self):
        """Label families draw index arrays into their label space."""
        rng = np.random.default_rng(0)
        idx = CATEGORICAL.draw(rng, 50)
        assert idx.shape == (50,)
        assert set(idx.tolist()) <= {0, 1, 2}
        values = GAUSSIAN.draw(rng, 50)
        assert values.shape == (50,) and values.dtype == np.float64

    def test_urn_first_draw_marginal(self):
        """Across many runs the urn's first draw follows the initial
        composition 2:3:5 — the de Finetti mixing weights average out."""
        rng = np.random.default_rng(123)
        first = np.array([URN.draw(rng, 1)[0] for _ in range(3000)])
        freq = np.bincount(first, minlength=3) / 3000
        assert np.abs(freq - np.array([0.2, 0.3, 0.5])).max() < 0.04

    def test_json_round_trip(self):
        for spec in (CATEGORICAL, GAUSSIAN, URN, POISSON):
            assert ProcessSpec.from_json(spec.to_json()) == spec
        assert POISSON.to_json()["lambda"] == 4.0


class TestRunCoverage:
    """Seeded regression anchors plus the structural guarantees."""

    def test_frozen_categorical_run(self):
        report = run_coverage(CATEGORICAL, 20, 0.2, None, 300, 7)
        assert report.hits == 271
        assert report.empirical_coverage == pytest.approx(271 / 300)
        assert report.passed

    def test_frozen_gaussian_run(self):
        report = run_coverage(GAUSSIAN, 15, 0.2, None, 100, 3)
        assert report.hits == 80 and report.passed

    def test_frozen_urn_run(self):
        report = run_coverage(URN, 20, 0.2, None, 200, 11)
        assert report.hits == 187 and report.passed

    def test_frozen_poisson_run(self):
        report = run_coverage(POISSON, 25, 0.3, None, 150, 19)
        assert report.hits == 118 and report.passed

    def test_alpha_zero_always_covers(self):
        report = run_coverage(CATEGORICAL, 10, 0.0, None, 50, 1)
        assert report.empirical_coverage == 1.0

    def test_no_data_always_covers(self):
        report = run_coverage(GAUSSIAN, 0, 0.2, None, 50, 1)
        assert report.empirical_coverage == 1.0

    def test_determinism(self):
        a = run_coverage(CATEGORICAL, 20, 0.2, None, 120, 42)
        b = run_coverage(CATEGORICAL, 20, 0.2, None, 120, 42)
        assert a == b
        c = run_coverage(CATEGORICAL, 20, 0.2, None, 120, 43)
        assert a.hits != c.hits or a == c  # different seed, different stream

    def test_standard_error_formula(self):
        report = run_coverage(CATEGORICAL, 20, 0.2, None, 300, 7)
        cov = report.empirical_coverage
        assert report.standard_error == pytest.approx(
            np.sqrt(cov * (1 - cov) / 300), abs=1e-15
        )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_coverage(CATEGORICAL, -1, 0.2, None, 10, 0)
        with pytest.raises(ValueError):
            run_coverage(CATEGORICAL, 10, 1.0, None, 10, 0)
        with pytest.raises(ValueError):
            run_coverage(CATEGORICAL, 10, 0.2, None, 0, 0)

    def test_measure_family_mismatch(self):
        with pytest.raises(ValueError):
            run_coverage(CATEGORICAL, 10, 0.2, NonconformityMeasure.mean_abs(), 10, 0)
        with pytest.raises(ValueError):
            run_coverage(GAUSSIAN, 10, 0.2, NonconformityMeasure.one_minus_emp(), 10, 0)


class TestUniformitySweep:
    def test_empty_alphas(self):
        assert run_uniformity_sweep([CATEGORICAL], [10], [], None, 50, 0) == []

    def test_single_cell_reproduces_run_coverage(self):
        alone = run_coverage(CATEGORICAL, 20, 0.2, None, 300, 7)
        swept = run_uniformity_sweep([CATEGORICAL], [20], [0.2], None, 300, 7)
        assert swept == [alone]

    def test_cartesian_product_order(self):
        reports = run_uniformity_sweep(
            [CATEGORICAL, URN], [5, 10], [0.1, 0.5], None, 30, 2
        )
        assert len(reports) == 8
        keys = [(r.family, r.n, r.alpha) for r in reports]
        assert keys[0] == ("iid-categorical", 5, 0.1)
        assert keys[-1] == ("polya-urn", 10, 0.5)
        assert all(isinstance(r, CoverageReport) for r in reports)
