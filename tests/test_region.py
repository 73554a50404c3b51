"""Prediction regions: strict cuts, the intersection form, and their equality.

The three constructions (plain cut, highest-density cut, intersection of
all events whose lower probability reaches 1 - alpha) must name the same
event at every alpha.  ``prop1_check`` sweeps alphas through every
breakpoint; the hypothesis tests below confirm the equality and the
minimality property (the cut is contained in every qualifying event) on
random exact contours, where any disagreement would be a hard failure
rather than a float artifact.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    NonConsonantContour,
    PredictionRegion,
    cpr,
    ihdr_cut,
    ihdr_intersection,
    lower_prob,
    prop1_check,
    region_size,
)


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


@st.composite
def consonant_contours(draw, max_k=6):
    k = draw(st.integers(1, max_k))
    vals = [
        draw(st.fractions(min_value=0, max_value=1, max_denominator=10))
        for _ in range(k)
    ]
    vals[draw(st.integers(0, k - 1))] = Fraction(1)
    return Contour(_space(k), tuple(vals))


def _labels(region, space):
    return region.event.to_labels(space)


class TestCut:
    def test_frozen_cuts(self, abc_space, abc_contour):
        assert _labels(cpr(abc_contour, Fraction(3, 10)), abc_space) == ["B", "C"]
        assert _labels(ihdr_cut(abc_contour, Fraction(1, 4)), abc_space) == ["B", "C"]
        assert _labels(ihdr_cut(abc_contour, Fraction(3, 5)), abc_space) == ["C"]
        assert _labels(ihdr_cut(abc_contour, Fraction(1, 10)), abc_space) == [
            "A",
            "B",
            "C",
        ]

    def test_alpha_one_empties_the_region(self, abc_contour):
        assert len(cpr(abc_contour, 1).event) == 0
        assert len(ihdr_cut(abc_contour, 1).event) == 0

    def test_alpha_zero_returns_the_support(self, abc_contour):
        assert cpr(abc_contour, 0).event == Event.full(3)

    def test_strictness_at_a_breakpoint(self, abc_space, abc_contour):
        """pi = alpha must be excluded: the cut is strict."""
        at_b = cpr(abc_contour, Fraction(51, 101))
        assert _labels(at_b, abc_space) == ["C"]

    def test_kind_strings(self, abc_contour):
        assert cpr(abc_contour, 0.5).kind == "CPR"
        assert ihdr_cut(abc_contour, 0.5).kind == "IHDR-cut"
        assert ihdr_intersection(abc_contour, 0.5).kind == "IHDR-intersection"

    def test_alpha_out_of_range(self, abc_contour):
        with pytest.raises(ValueError):
            cpr(abc_contour, -0.1)
        with pytest.raises(ValueError):
            cpr(abc_contour, 1.5)

    def test_cpr_tolerates_non_consonant_contours(self):
        c = Contour(_space(2), (Fraction(1, 4), Fraction(1, 2)))
        assert cpr(c, Fraction(1, 3)).event.indices == (1,)
        with pytest.raises(NonConsonantContour):
            ihdr_cut(c, Fraction(1, 3))


class TestIntersectionForm:
    def test_frozen_values(self, abc_space, abc_contour):
        got = ihdr_intersection(abc_contour, Fraction(3, 10), space=abc_space)
        assert _labels(got, abc_space) == ["B", "C"]
        assert len(ihdr_intersection(abc_contour, 1).event) == 0
        assert ihdr_intersection(abc_contour, 0).event == Event.full(3)

    def test_space_mismatch_rejected(self, abc_contour):
        with pytest.raises(ValueError):
            ihdr_intersection(abc_contour, 0.5, space=_space(3))

    @given(consonant_contours(), st.fractions(min_value=0, max_value=1, max_denominator=7))
    def test_always_equals_the_cut(self, c, alpha):
        assert ihdr_intersection(c, alpha).event == ihdr_cut(c, alpha).event

    @given(consonant_contours(max_k=5), st.fractions(min_value=0, max_value=1, max_denominator=7))
    def test_cut_is_minimal_among_qualifying_events(self, c, alpha):
        """Any event with lower probability >= 1 - alpha contains the cut."""
        cut = ihdr_cut(c, alpha).event
        for mask in range(1 << c.size):
            ev = Event.from_mask(mask, c.size)
            if lower_prob(c, ev) >= 1 - alpha:
                assert cut.issubset(ev)


class TestPropOneSweep:
    def test_worked_contour_passes(self, abc_contour):
        report = prop1_check(abc_contour)
        assert report.passed and report.failures == ()

    def test_sweep_includes_breakpoints_midpoints_and_ends(self, abc_contour):
        report = prop1_check(abc_contour)
        sweep = set(report.alphas)
        assert {Fraction(21, 101), Fraction(51, 101), Fraction(1), 0} <= sweep
        assert Fraction(21 + 51, 2 * 101) in sweep  # midpoint of the two interior values

    def test_caller_alphas_are_included(self, abc_contour, abc_space):
        report = prop1_check(abc_contour, alphas=(Fraction(1, 7),), space=abc_space)
        assert Fraction(1, 7) in report.alphas
        assert report.passed

    @given(consonant_contours())
    def test_random_exact_contours_pass(self, c):
        assert prop1_check(c).passed

    def test_space_mismatch_rejected(self, abc_contour):
        with pytest.raises(ValueError):
            prop1_check(abc_contour, space=_space(3))


class TestRegionSize:
    def test_finite_size_is_cardinality(self, abc_space, abc_contour):
        region = cpr(abc_contour, Fraction(3, 10))
        assert region_size(region, abc_space) == 2

    def test_grid_size_is_covered_length(self):
        grid = GridOutcomeSpace(0.0, 1.0, 11)
        c = Contour(grid, (0.0,) * 4 + (1.0,) * 3 + (0.0,) * 4)
        region = cpr(c, 0.5)
        assert region_size(region, grid) == pytest.approx(0.3)


class TestPredictionRegionType:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PredictionRegion(Event.empty(2), 0.5, "HPD")
