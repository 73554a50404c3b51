"""Possibility calculus: upper/lower probabilities, Moebius masses, capacity checks.

Oracles
-------
* The worked three-label contour (21/101, 51/101, 1) has hand-checkable
  upper/lower pairs for all six nontrivial events, and Moebius masses
  50/101, 30/101, 21/101 on the nested chain {C} < {B,C} < {A,B,C}.
* ``mass_from_belief`` is cross-checked against the textbook double-sum
  inversion m(A) = sum over B <= A of (-1)^|A\\B| bel(B), computed naively
  in this file with exact rationals.
* Upper probability of a union equals the max of the upper probabilities
  (possibility measures are maxitive); duality ties lower to upper through
  the complement.  Both are exercised with hypothesis-generated events.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    BudgetExceeded,
    Cloud,
    Contour,
    Event,
    FiniteOutcomeSpace,
    MassFunction,
    NegativeMass,
    NonConsonantContour,
    check_k_alternating,
    check_k_monotone,
    cloud_gamma,
    complement,
    enumerate_events,
    focal_elements,
    is_consonant,
    lower_prob,
    mass_from_belief,
    upper_prob,
    upper_table,
)


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


@st.composite
def consonant_contours(draw, min_k=1, max_k=5):
    k = draw(st.integers(min_k, max_k))
    vals = [
        draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        for _ in range(k)
    ]
    vals[draw(st.integers(0, k - 1))] = Fraction(1)
    return Contour(_space(k), tuple(vals))


@st.composite
def contour_with_two_events(draw):
    c = draw(consonant_contours())
    masks = st.integers(min_value=0, max_value=(1 << c.size) - 1)
    a = Event.from_mask(draw(masks), c.size)
    b = Event.from_mask(draw(masks), c.size)
    return c, a, b


@st.composite
def rational_mass_functions(draw, max_k=4):
    """Random exact mass function: positive rational masses summing to 1."""
    k = draw(st.integers(1, max_k))
    n_events = draw(st.integers(1, min(4, (1 << k) - 1)))
    masks = draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << k) - 1),
            min_size=n_events,
            max_size=n_events,
            unique=True,
        )
    )
    weights = [draw(st.integers(1, 9)) for _ in masks]
    total = sum(weights)
    masses = {
        Event.from_mask(m, k): Fraction(w, total) for m, w in zip(masks, weights)
    }
    return MassFunction(k, masses)


class TestUpperLower:
    """Frozen upper/lower table of the worked three-label example."""

    PAIRS = {
        ("A",): (Fraction(0), Fraction(21, 101)),
        ("B",): (Fraction(0), Fraction(51, 101)),
        ("C",): (Fraction(50, 101), Fraction(1)),
        ("A", "B"): (Fraction(0), Fraction(51, 101)),
        ("A", "C"): (Fraction(50, 101), Fraction(1)),
        ("B", "C"): (Fraction(80, 101), Fraction(1)),
    }

    def test_frozen_pairs(self, abc_space, abc_contour):
        for labels, (lo, hi) in self.PAIRS.items():
            ev = Event.from_labels(abc_space, labels)
            assert lower_prob(abc_contour, ev) == lo
            assert upper_prob(abc_contour, ev) == hi

    def test_empty_and_full(self, abc_contour):
        assert upper_prob(abc_contour, Event.empty(3)) == 0
        assert lower_prob(abc_contour, Event.empty(3)) == 0
        assert upper_prob(abc_contour, Event.full(3)) == 1
        assert lower_prob(abc_contour, Event.full(3)) == 1

    def test_requires_consonance(self):
        c = Contour(_space(2), (Fraction(1, 2), Fraction(7, 10)))
        with pytest.raises(NonConsonantContour):
            upper_prob(c, Event.full(2))

    def test_upper_table_matches_pointwise(self, abc_contour):
        table = upper_table(abc_contour)
        for ev in enumerate_events(abc_contour.space):
            assert table[ev.mask] == upper_prob(abc_contour, ev)

    @given(contour_with_two_events())
    def test_union_maxitivity(self, cab):
        c, a, b = cab
        assert upper_prob(c, a.union(b)) == max(upper_prob(c, a), upper_prob(c, b))

    @given(contour_with_two_events())
    def test_duality_and_order(self, cab):
        c, a, _ = cab
        assert lower_prob(c, a) == 1 - upper_prob(c, complement(a))
        assert lower_prob(c, a) <= upper_prob(c, a)

    @given(contour_with_two_events())
    def test_monotone_under_inclusion(self, cab):
        c, a, b = cab
        small, big = a.intersection(b), a.union(b)
        assert upper_prob(c, small) <= upper_prob(c, big)
        assert lower_prob(c, small) <= lower_prob(c, big)


class TestConsonance:
    def test_detects_the_sup(self):
        assert not is_consonant(Contour(_space(2), (0.5, 0.7)))
        assert is_consonant(Contour(_space(1), (Fraction(1),)))

    def test_worked_contour_is_consonant(self, abc_contour):
        assert is_consonant(abc_contour)


class TestMoebius:
    def test_frozen_chain_masses(self, abc_space, abc_contour):
        m = mass_from_belief(lambda ev: lower_prob(abc_contour, ev), abc_space)
        expected = {
            Event.from_labels(abc_space, ("C",)): Fraction(50, 101),
            Event.from_labels(abc_space, ("B", "C")): Fraction(30, 101),
            Event.full(3): Fraction(21, 101),
        }
        assert m.masses == expected

    def test_dirac_belief(self):
        space = _space(3)
        bel = lambda ev: 1 if 0 in ev.indices else 0
        m = mass_from_belief(bel, space)
        assert m.masses == {Event.from_indices((0,), 3): 1}

    def test_uniform_two_point_belief(self):
        space = _space(2)
        bel = lambda ev: Fraction(len(ev), 2)
        m = mass_from_belief(bel, space)
        assert m.masses == {
            Event.from_indices((0,), 2): Fraction(1, 2),
            Event.from_indices((1,), 2): Fraction(1, 2),
        }

    def test_rejects_belief_without_nonnegative_masses(self):
        space = _space(2)
        values = {0: Fraction(0), 1: Fraction(9, 10), 2: Fraction(9, 10), 3: Fraction(1)}
        with pytest.raises(NegativeMass):
            mass_from_belief(lambda ev: values[ev.mask], space)

    def test_rejects_ill_normalized_belief(self):
        space = _space(2)
        with pytest.raises(ValueError):
            mass_from_belief(lambda ev: Fraction(1, 2), space)  # bel(empty) != 0
        shifted = {0: Fraction(0), 1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(3, 4)}
        with pytest.raises(ValueError):
            mass_from_belief(lambda ev: shifted[ev.mask], space)  # bel(full) != 1

    @given(rational_mass_functions())
    def test_round_trip_mass_to_belief_to_mass(self, m):
        space = _space(m.space_size)
        recovered = mass_from_belief(m.belief, space)
        assert recovered.masses == m.masses

    @given(rational_mass_functions(max_k=3))
    def test_fast_inversion_equals_double_sum(self, m):
        """Subset-transform inversion == naive inclusion-exclusion, exactly."""
        space = _space(m.space_size)
        fast = mass_from_belief(m.belief, space)
        for a in enumerate_events(space):
            sub = set(a.indices)
            naive = sum(
                (-Fraction(1)) ** (len(a) - r) * m.belief(Event.from_indices(c, m.space_size))
                for r in range(len(a) + 1)
                for c in combinations(sorted(sub), r)
            )
            assert fast.masses.get(a, Fraction(0)) == naive

    @given(rational_mass_functions())
    def test_belief_plausibility_duality(self, m):
        for mask in range(1 << m.space_size):
            a = Event.from_mask(mask, m.space_size)
            assert m.belief(a) == 1 - m.plausibility(complement(a))

    def test_mass_validation(self):
        with pytest.raises(NegativeMass):
            MassFunction(2, {Event.from_indices((0,), 2): Fraction(-1, 2)})
        with pytest.raises(ValueError):
            MassFunction(2, {Event.from_indices((0,), 2): Fraction(1, 2)})
        with pytest.raises(ValueError):
            MassFunction(2, {Event.empty(2): Fraction(1)})


class TestFocalElements:
    def test_worked_chain_is_nested(self, abc_space, abc_contour):
        m = mass_from_belief(lambda ev: lower_prob(abc_contour, ev), abc_space)
        chain = focal_elements(m)
        assert chain.nested
        assert [ev.to_labels(abc_space) for ev in chain.elements] == [
            ["C"],
            ["B", "C"],
            ["A", "B", "C"],
        ]

    def test_dirac_single_focal(self):
        m = MassFunction(3, {Event.from_indices((1,), 3): Fraction(1)})
        chain = focal_elements(m)
        assert chain.nested and len(chain.elements) == 1

    def test_split_masses_are_not_nested(self):
        m = MassFunction(
            2,
            {
                Event.from_indices((0,), 2): Fraction(1, 2),
                Event.from_indices((1,), 2): Fraction(1, 2),
            },
        )
        assert not focal_elements(m).nested

    @given(consonant_contours(max_k=4))
    def test_consonant_contours_have_nested_focal_sets(self, c):
        m = mass_from_belief(lambda ev: lower_prob(c, ev), c.space)
        assert focal_elements(m).nested


class TestCapacityChecks:
    """Inclusion-exclusion inequality sweeps for small orders.

    The drastic capacity (0 everywhere except the full set) is totally
    monotone but fails 2-alternation at the pair of singletons, which
    pins down both the direction of each check and the witness report.
    """

    @staticmethod
    def _drastic(ev):
        return 1 if len(ev) == ev.space_size else 0

    def test_worked_contour_passes_all_orders(self, abc_space, abc_contour):
        up = lambda ev: upper_prob(abc_contour, ev)
        lo = lambda ev: lower_prob(abc_contour, ev)
        for k in (2, 3, 4):
            assert check_k_alternating(up, k, abc_space)
            assert check_k_monotone(lo, k, abc_space)

    def test_probability_measure_passes_both(self):
        space = _space(3)
        weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        pr = lambda ev: sum((weights[i] for i in ev.indices), Fraction(0))
        for k in (2, 3):
            assert check_k_monotone(pr, k, space)
            assert check_k_alternating(pr, k, space)

    def test_drastic_capacity_is_monotone_but_not_alternating(self):
        space = _space(2)
        assert check_k_monotone(self._drastic, 2, space)
        result = check_k_alternating(self._drastic, 2, space)
        assert not result
        assert result.witness is not None

    def test_witness_names_the_failing_collection(self):
        space = _space(2)
        witness = check_k_alternating(self._drastic, 2, space).witness
        assert witness.target == Event.empty(2)
        assert set(witness.collection) == {
            Event.from_indices((0,), 2),
            Event.from_indices((1,), 2),
        }
        assert witness.lhs > witness.rhs

    def test_order_and_size_budgets(self):
        space = _space(2)
        with pytest.raises(BudgetExceeded):
            check_k_monotone(self._drastic, 1, space)
        with pytest.raises(BudgetExceeded):
            check_k_monotone(self._drastic, 5, space)
        with pytest.raises(BudgetExceeded):
            check_k_alternating(self._drastic, 2, _space(7))

    @given(consonant_contours(max_k=4))
    def test_possibility_pairs_pass_order_two(self, c):
        assert check_k_alternating(lambda ev: upper_prob(c, ev), 2, c.space)
        assert check_k_monotone(lambda ev: lower_prob(c, ev), 2, c.space)

    def test_float_capacities_tolerate_roundoff(self):
        space = _space(3)
        weights = (0.1, 0.2, 0.7)
        pr = lambda ev: sum(weights[i] for i in ev.indices)
        assert check_k_monotone(pr, 3, space)
        assert check_k_alternating(pr, 3, space)


class TestCloud:
    def test_worked_contour_gamma(self, abc_contour):
        cloud = cloud_gamma(abc_contour)
        assert cloud.gamma.values == (Fraction(21, 101), Fraction(50, 101), Fraction(0))
        assert cloud.pi is abc_contour

    def test_point_mass_and_half(self):
        assert cloud_gamma(Contour(_space(1), (Fraction(1),))).gamma.values == (0,)
        cloud = cloud_gamma(Contour(_space(2), (Fraction(1), Fraction(1, 2))))
        assert cloud.gamma.values == (Fraction(0), Fraction(1, 2))

    def test_vacuous_contour(self):
        cloud = cloud_gamma(Contour(_space(3), (1, 1, 1)))
        assert cloud.gamma.values == (0, 0, 0)

    def test_validation(self):
        space = _space(2)
        pi = Contour(space, (Fraction(1), Fraction(1, 2)))
        with pytest.raises(ValueError):
            Cloud(Contour(space, (Fraction(1), Fraction(3, 4))), pi)  # gamma > pi
        with pytest.raises(ValueError):
            Cloud(Contour(space, (Fraction(1, 4), Fraction(1, 4))), pi)  # min != 0
        with pytest.raises(ValueError):
            Cloud(
                Contour(space, (Fraction(0), Fraction(0))),
                Contour(space, (Fraction(1, 2), Fraction(1, 2))),
            )  # pi never reaches 1

    @given(consonant_contours())
    def test_gamma_is_always_a_valid_cloud(self, c):
        cloud = cloud_gamma(c)
        assert min(cloud.gamma.values) == 0
        assert all(g <= p for g, p in zip(cloud.gamma.values, cloud.pi.values))
