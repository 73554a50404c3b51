"""Credal set of a consonant contour: membership, extreme points, entropy.

Membership is exhaustive dominance (P(A) <= upper(A) for all events), so
the strong-cut shortcut ``prop2_membership`` must agree with it verbatim
on every input — cross-checked here on random exact contours and simplex
points.  Extreme points come from prefix increments of the upper table
along label permutations; the suite verifies they are members, that they
recover the upper envelope with equality event by event, and (via linear
programming) that sampled members stay inside their convex hull.
"""

import itertools
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    ProbabilityVector,
    SpaceTooLarge,
    WrongDimension,
    enumerate_events,
    extreme_points,
    in_credal_set,
    lower_entropy,
    prop2_membership,
    sample_credal,
    ternary_coords,
    upper_prob,
)


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


@st.composite
def consonant_contours(draw, max_k=4):
    k = draw(st.integers(1, max_k))
    vals = [
        draw(st.fractions(min_value=0, max_value=1, max_denominator=10))
        for _ in range(k)
    ]
    vals[draw(st.integers(0, k - 1))] = Fraction(1)
    return Contour(_space(k), tuple(vals))


@st.composite
def contour_with_point(draw):
    c = draw(consonant_contours())
    raw = [draw(st.integers(0, 9)) for _ in range(c.size)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    p = ProbabilityVector(tuple(Fraction(r, total) for r in raw))
    return c, p


P_EMP = ProbabilityVector((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
UNIFORM3 = ProbabilityVector((Fraction(1, 3),) * 3)
DELTA_C = ProbabilityVector((Fraction(0), Fraction(0), Fraction(1)))


class TestProbabilityVector:
    def test_event_probability(self):
        p = ProbabilityVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert p.prob(Event.from_indices((0, 2), 3)) == Fraction(2, 3)
        assert p.prob(Event.empty(3)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilityVector((0.5, 0.6))
        with pytest.raises(ValueError):
            ProbabilityVector((-0.1, 1.1))


class TestMembership:
    """Frozen memberships for the worked three-label contour."""

    def test_empirical_pmf_is_a_member(self, abc_contour):
        assert in_credal_set(P_EMP, abc_contour, tol=0)

    def test_uniform_is_not(self, abc_contour):
        # P({A,B}) = 2/3 exceeds the upper probability 51/101.
        assert not in_credal_set(UNIFORM3, abc_contour, tol=0)

    def test_point_mass_on_the_mode_is_a_member(self, abc_contour):
        assert in_credal_set(DELTA_C, abc_contour, tol=0)

    def test_point_mass_off_the_mode_is_not(self, abc_contour):
        delta_a = ProbabilityVector((Fraction(1), Fraction(0), Fraction(0)))
        assert not in_credal_set(delta_a, abc_contour, tol=0)

    def test_dimension_mismatch(self, abc_contour):
        with pytest.raises(WrongDimension):
            in_credal_set(ProbabilityVector((Fraction(1),)), abc_contour)

    def test_float_weights_past_the_enumeration_budget(self):
        """Raises like its rational twin, before any 2^41 table is allocated."""
        c = Contour(_space(41), (1.0,) + (0.5,) * 40)
        with pytest.raises(SpaceTooLarge):
            in_credal_set(ProbabilityVector((1 / 41,) * 41), c)

    def test_space_mismatch(self, abc_contour):
        with pytest.raises(ValueError):
            in_credal_set(UNIFORM3, abc_contour, space=_space(3))

    @given(contour_with_point())
    def test_strong_cut_shortcut_agrees_exactly(self, cp):
        c, p = cp
        assert prop2_membership(p, c, tol=0) == in_credal_set(p, c, tol=0)

    @given(contour_with_point())
    def test_membership_is_dominance_on_every_event(self, cp):
        """Re-derive the verdict from the definition, one event at a time."""
        c, p = cp
        dominated = all(
            p.prob(ev) <= upper_prob(c, ev) for ev in enumerate_events(c.space)
        )
        assert in_credal_set(p, c, tol=0) == dominated


class TestExtremePoints:
    FROZEN = {
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(51, 101), Fraction(50, 101)),
        (Fraction(21, 101), Fraction(0), Fraction(80, 101)),
        (Fraction(21, 101), Fraction(30, 101), Fraction(50, 101)),
    }

    def test_frozen_set_for_the_worked_contour(self, abc_contour):
        got = {p.weights for p in extreme_points(abc_contour)}
        assert got == self.FROZEN

    def test_all_extremes_are_members(self, abc_contour):
        for p in extreme_points(abc_contour):
            assert in_credal_set(p, abc_contour, tol=0)

    def test_vacuous_contour_gives_the_simplex_vertices(self):
        c = Contour(_space(2), (Fraction(1), Fraction(1)))
        got = {p.weights for p in extreme_points(c)}
        assert got == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_point_mass_contour_collapses_to_one_point(self):
        c = Contour(_space(3), (Fraction(1), Fraction(0), Fraction(0)))
        pts = extreme_points(c)
        assert len(pts) == 1
        assert pts[0].weights == (Fraction(1), Fraction(0), Fraction(0))

    def test_size_budget(self):
        # 17 distinct positive levels: 2^16 vertices, past the 2^15 budget
        c = Contour(_space(17), tuple(Fraction(i, 17) for i in range(1, 18)))
        with pytest.raises(SpaceTooLarge):
            extreme_points(c)

    @given(consonant_contours())
    def test_upper_envelope_recovered_with_equality(self, c):
        """max over extremes of P(A) equals upper(A), for every event."""
        pts = extreme_points(c)
        for ev in enumerate_events(c.space):
            achieved = max(p.prob(ev) for p in pts)
            assert achieved == upper_prob(c, ev)

    def test_sampled_members_lie_in_the_hull(self, abc_contour):
        """Feasibility LP: each sample is a convex combination of extremes."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        vertices = np.array(
            [p.as_floats() for p in extreme_points(abc_contour)]
        )
        for p in sample_credal(abc_contour, count=25, seed=13):
            target = np.concatenate([p.as_floats(), [1.0]])
            system = np.vstack([vertices.T, np.ones(len(vertices))])
            res = linprog(
                c=np.zeros(len(vertices)),
                A_eq=system,
                b_eq=target,
                bounds=(0, None),
                method="highs",
            )
            assert res.status == 0, res.message


class TestLowerEntropy:
    def test_worked_contour(self, abc_contour):
        assert lower_entropy(abc_contour) == 0.0

    def test_vacuous_contour(self):
        assert lower_entropy(Contour(_space(4), (1, 1, 1, 1))) == 0.0

    @given(consonant_contours())
    def test_zero_for_every_consonant_contour(self, c):
        """Some point mass always sits in the credal set (at any argmax of
        the contour), and a point mass has zero Shannon entropy."""
        assert lower_entropy(c) == 0.0


class TestSampling:
    def test_deterministic_per_seed(self, abc_contour):
        a = sample_credal(abc_contour, count=8, seed=5)
        b = sample_credal(abc_contour, count=8, seed=5)
        assert [p.weights for p in a] == [q.weights for q in b]
        c = sample_credal(abc_contour, count=8, seed=6)
        assert [p.weights for p in a] != [q.weights for q in c]

    def test_all_samples_are_members(self, abc_contour):
        for p in sample_credal(abc_contour, count=100, seed=2):
            assert in_credal_set(p, abc_contour)

    def test_count_zero(self, abc_contour):
        assert sample_credal(abc_contour, count=0) == []
        with pytest.raises(ValueError):
            sample_credal(abc_contour, count=-1)

    def test_point_mass_contour_pins_every_sample(self):
        c = Contour(_space(3), (Fraction(1), Fraction(0), Fraction(0)))
        for p in sample_credal(c, count=10, seed=0):
            assert p.as_floats() == (1.0, 0.0, 0.0)

    def test_vacuous_contour_spreads_over_the_simplex(self):
        c = Contour(_space(3), (1, 1, 1))
        pts = sample_credal(c, count=100, seed=1)
        spread = max(
            max(abs(a - b) for a, b in zip(p.as_floats(), q.as_floats()))
            for p, q in itertools.combinations(pts, 2)
        )
        assert spread > 0.5


class TestTernaryCoords:
    def test_vertices(self):
        v0 = ternary_coords(ProbabilityVector((1.0, 0.0, 0.0)))
        v1 = ternary_coords(ProbabilityVector((0.0, 1.0, 0.0)))
        v2 = ternary_coords(ProbabilityVector((0.0, 0.0, 1.0)))
        assert v0 == (0.0, 0.0)
        assert v1 == (1.0, 0.0)
        assert v2 == pytest.approx((0.5, sqrt(3) / 2))

    def test_centroid(self):
        mid = ternary_coords(ProbabilityVector((1 / 3, 1 / 3, 1 / 3)))
        assert mid == pytest.approx((0.5, sqrt(3) / 6))

    def test_dimension_guard(self):
        with pytest.raises(WrongDimension):
            ternary_coords(ProbabilityVector((0.5, 0.5)))

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_image_stays_in_the_triangle(self, a, b, c):
        if a + b + c == 0:
            a = 1
        total = a + b + c
        p = ProbabilityVector((a / total, b / total, c / total))
        x, y = ternary_coords(p)
        assert -1e-12 <= y <= sqrt(3) / 2 + 1e-12
        assert y / sqrt(3) - 1e-12 <= x <= 1 - y / sqrt(3) + 1e-12
