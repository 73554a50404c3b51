"""One number path for every contour.

Every contour is cut as ``levels > threshold(alpha)`` and intersected over
one table of each event's largest level, where an event qualifies when
the possibility of its complement is at most alpha.  Exact contours run
that path on int64 ranks; float, mixed and large-denominator rational
contours run it on their values with Python's exact comparisons.  The
regressions below are float contours on which the older float form
``1 - upper >= 1 - alpha`` rounded and split the IHDR intersection from
the CPR.  Checks outside the regions share one tolerance rule: exact on
rationals, ``FLOAT_TOL`` as soon as a float is involved.
"""

from fractions import Fraction
from math import inf, nan

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    GammaParams,
    GridOutcomeSpace,
    NonconformityMeasure,
    ProbabilityVector,
    ProcessSpec,
    check_k_alternating,
    cpr,
    extreme_points,
    ihdr_cut,
    ihdr_intersection,
    prop1_check,
    transduce_grid,
)
from consonance._num import FLOAT_TOL, tolerance


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


class TestFloatBoundaryRegressions:
    def test_value_just_above_alpha_stays_in_the_intersection(self):
        """0.30000000000000004 > 0.3, but 1 - 0.30000000000000004 rounds to
        0.7 == 1 - 0.3, so the float form let {y1} qualify and dropped y0."""
        c = Contour(_space(2), (0.30000000000000004, 1.0))
        assert cpr(c, 0.3).event.indices == (0, 1)
        assert ihdr_intersection(c, 0.3).event.indices == (0, 1)

    def test_prop1_holds_on_a_value_below_float_resolution_of_one(self):
        """1 - 1e-17 rounds to 1.0, which made every event with y0 outside
        fail to qualify at alpha = 1e-17 and the intersection keep y0."""
        report = prop1_check(Contour(_space(2), (1e-17, 1.0)))
        assert report.passed and report.failures == ()


@st.composite
def value_contours(draw, max_k=5):
    """Consonant contours that do not fit int64 ranks."""
    k = draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(["float", "mixed", "large-denominator"]))
    tiny = st.sampled_from([1e-17, 5e-324, 0.30000000000000004, 1 - 2**-53])
    floats = st.one_of(st.integers(0, 20).map(lambda i: i / 20), tiny, st.floats(0, 1))
    if kind == "large-denominator":
        big = st.integers(2**40 + 1, 2**62).flatmap(
            lambda d: st.integers(0, d).map(lambda n: Fraction(n, d))
        )
        vals = draw(st.lists(st.one_of(big, st.fractions(0, 1, max_denominator=50)),
                             min_size=k, max_size=k))
        vals.append(Fraction(1, 2**41 + 1))  # a denominator past the rank cap
        one = Fraction(1)
    else:
        vals = draw(st.lists(floats, min_size=k, max_size=k))
        if kind == "mixed":
            vals.append(draw(st.fractions(0, 1, max_denominator=12)))
        one = 1.0
    vals[draw(st.integers(0, k - 1))] = one  # leaves the appended value alone
    return vals


alphas = st.one_of(st.floats(0, 1), st.fractions(0, 1, max_denominator=1000))


class TestRegionsAgreeOffTheRankPath:
    @given(value_contours(), st.lists(alphas, max_size=3))
    def test_cpr_cut_and_intersection_agree_over_the_sweep(self, vals, extra):
        c = Contour(_space(len(vals)), vals)
        assert c.ranks is None
        report = prop1_check(c, tuple(extra))
        assert report.passed, report.failures
        for alpha in report.alphas:
            expected = Event(tuple(i for i, v in enumerate(vals) if v > alpha), len(vals))
            assert cpr(c, alpha).event == expected
            assert ihdr_cut(c, alpha).event == expected
            assert ihdr_intersection(c, alpha).event == expected


class TestOneTolerance:
    def test_rationals_are_exact(self):
        assert tolerance((Fraction(1, 3), 2), (0, Fraction(5, 7))) == 0
        assert tolerance(()) == 0

    def test_any_float_allows_the_float_tolerance(self):
        assert tolerance((0.5,)) == FLOAT_TOL
        assert tolerance((Fraction(1, 2),), (1, 0.5)) == FLOAT_TOL

    def test_rational_weights_are_checked_exactly(self):
        off = Fraction(1, 10**15)  # far below FLOAT_TOL
        with pytest.raises(ValueError):
            ProbabilityVector((Fraction(1, 3), Fraction(2, 3) + off))
        ProbabilityVector((1 / 3, 2 / 3 + float(off)))  # within the float tolerance

    @pytest.mark.parametrize("one, zero, kind", [(1, 0, Fraction), (1.0, 0.0, float)])
    def test_witness_reports_the_violated_bound(self, one, zero, kind):
        """The drastic capacity breaks 2-alternation at the two singletons:
        nu(empty) = 0 > nu({0}) + nu({1}) - nu({0, 1}) = -1."""
        drastic = lambda ev: one if len(ev) == ev.space_size else zero
        witness = check_k_alternating(drastic, 2, _space(2)).witness
        assert witness.rhs == -1 and type(witness.rhs) is kind

    @pytest.mark.parametrize(
        "vals", [(1e-13, 0.5, 1.0), (Fraction(1, 3), 0.5, Fraction(1, 2), 1.0)]
    )
    def test_extreme_points_match_the_exact_twin(self, vals):
        """Vertices a hair apart stay apart, and equal vertices reached
        through mixed Fraction/float arithmetic are listed once."""
        space = _space(len(vals))
        got = extreme_points(Contour(space, vals))
        exact = extreme_points(Contour(space, tuple(Fraction(v) for v in vals)))
        assert len(got) == len(exact)
        for p, q in zip(got, exact):
            assert all(abs(a - b) <= FLOAT_TOL for a, b in zip(p.weights, q.weights))


class TestNonFiniteInputRejected:
    def test_contour_value(self):
        with pytest.raises(ValueError):
            Contour(_space(2), (nan, 1.0))

    @pytest.mark.parametrize("weights", [(nan, 1.0), (0.5, nan), (inf, -inf)])
    def test_probability_weights(self, weights):
        with pytest.raises(ValueError):
            ProbabilityVector(weights)

    @pytest.mark.parametrize("lo, hi", [(0.0, inf), (-inf, 0.0), (nan, 1.0)])
    def test_grid_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            GridOutcomeSpace(lo, hi, 5)

    @pytest.mark.parametrize("bad", [nan, inf])
    def test_grid_data(self, bad):
        with pytest.raises(ValueError):
            transduce_grid((1.0, bad), GridOutcomeSpace(0.0, 4.0, 5), NonconformityMeasure.mean_abs())

    @pytest.mark.parametrize(
        "family, params",
        [
            ("iid-gaussian", {"mu": nan}),
            ("iid-gaussian", {"sigma": inf}),
            ("iid-poisson", {"lam": inf}),
            ("iid-categorical", {"weights": (0.5, nan)}),
        ],
    )
    def test_process_parameters(self, family, params):
        with pytest.raises(ValueError):
            ProcessSpec(family, **params)

    @pytest.mark.parametrize("shape, rate", [(inf, 1.0), (1.0, inf), (nan, 1.0)])
    def test_gamma_parameters(self, shape, rate):
        with pytest.raises(ValueError):
            GammaParams(shape, rate)
