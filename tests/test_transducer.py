"""Conformal transducer: scores, rank counts, and contour adjustments.

Central frozen example: the bag of 20 A / 30 B / 50 C under the
empirical-pmf measure, whose contour is (21/101, 51/101, 1) exactly.  Its
rank arithmetic is simple enough to redo by hand: a candidate's rank
count is the number of bag members whose augmented-bag label count does
not exceed the candidate's, plus the candidate itself.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    EmptyBag,
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    NonconformityMeasure,
    UnknownLabel,
    adjust_double_prime,
    adjust_prime,
    conformal_transducer,
    nonconformity_mean_abs,
    nonconformity_one_minus_emp,
    transduce_grid,
)
from consonance import transducer
from consonance.transducer import _sweep_mean_abs_grid
from conftest import ABC_BAG


class TestNonconformityScores:
    def test_mean_abs_is_distance_to_mean(self):
        assert nonconformity_mean_abs((2, 3), 1) == 1.5

    def test_mean_abs_zero_at_the_mean(self):
        assert nonconformity_mean_abs((5, 5, 5), 5) == 0
        assert nonconformity_mean_abs((0, 10), 5) == 0

    def test_mean_abs_empty_bag(self):
        with pytest.raises(EmptyBag):
            nonconformity_mean_abs((), 1.0)

    def test_one_minus_emp_frozen_values(self):
        counts = {"A": 20, "B": 30, "C": 50}
        assert nonconformity_one_minus_emp(counts, "A") == Fraction(4, 5)
        assert nonconformity_one_minus_emp(counts, "B") == Fraction(7, 10)
        assert nonconformity_one_minus_emp(counts, "C") == Fraction(1, 2)

    def test_one_minus_emp_unknown_label(self):
        with pytest.raises(UnknownLabel):
            nonconformity_one_minus_emp({"A": 1}, "B")

    def test_one_minus_emp_negative_counts(self):
        with pytest.raises(ValueError):
            nonconformity_one_minus_emp({"A": -1, "B": 2}, "A")


class TestConformalTransducer:
    """Rank-count construction: pi = #{i : T_i >= T_cand} / (n+1)."""

    def test_frozen_label_values(self):
        psi = NonconformityMeasure.one_minus_emp()
        assert conformal_transducer(ABC_BAG, "A", psi) == Fraction(21, 101)
        assert conformal_transducer(ABC_BAG, "B", psi) == Fraction(51, 101)
        assert conformal_transducer(ABC_BAG, "C", psi) == Fraction(1)

    def test_empty_data_gives_one(self):
        psi = NonconformityMeasure.mean_abs()
        assert conformal_transducer((), 3.7, psi) == Fraction(1)

    def test_candidate_term_always_counts(self):
        """The i = n+1 comparison is T >= T, so pi >= 1/(n+1)."""
        psi = NonconformityMeasure.mean_abs()
        value = conformal_transducer((0.0, 0.0, 0.0), 1e6, psi)
        assert value == Fraction(1, 4)

    def test_candidate_at_the_mean_conforms_perfectly(self):
        psi = NonconformityMeasure.mean_abs()
        assert conformal_transducer((1, 2, 3), 2.0, psi) == Fraction(1)

    def test_values_are_admissible_ranks(self):
        psi = NonconformityMeasure.one_minus_emp()
        for candidate in ("A", "B", "C"):
            value = conformal_transducer(ABC_BAG, candidate, psi)
            assert isinstance(value, Fraction)
            assert value.denominator in (1, 101)
            assert 0 < value <= 1

    @given(st.permutations(list(range(12))))
    def test_permutation_invariance(self, order):
        data = [0.3, 1.1, -0.4, 2.2, 0.0, 0.9, 1.5, -1.0, 0.6, 0.1, 2.0, -0.2]
        shuffled = [data[i] for i in order]
        psi = NonconformityMeasure.mean_abs()
        assert conformal_transducer(shuffled, 0.5, psi) == conformal_transducer(
            data, 0.5, psi
        )

    def test_user_measure_hook(self):
        """A constant score ranks everything equally: pi = 1 everywhere."""
        psi = NonconformityMeasure.from_function(lambda rest, y: 0.0)
        for candidate in (-1.0, 0.0, 5.0):
            assert conformal_transducer((1.0, 2.0), candidate, psi) == 1

    def test_from_name_dispatch(self):
        assert NonconformityMeasure.from_name("mean-abs").kind == "mean-abs-distance"
        one = NonconformityMeasure.from_name("one-minus-emp")
        assert one.kind == "one-minus-empirical-pmf"
        with pytest.raises(ValueError):
            NonconformityMeasure.from_name("entropy")


class TestTransduceGrid:
    def test_label_contour_matches_pointwise(self, abc_space, abc_contour):
        psi = NonconformityMeasure.one_minus_emp()
        for label, value in zip(abc_space.labels, abc_contour.values):
            assert value == conformal_transducer(ABC_BAG, label, psi)

    def test_frozen_label_contour(self, abc_contour):
        assert abc_contour.values == (
            Fraction(21, 101),
            Fraction(51, 101),
            Fraction(1),
        )
        assert abc_contour.provenance == "raw"

    def test_single_point_two_labels(self):
        """Leave-one-out rank enumeration by hand: both candidates get 2/2."""
        space = FiniteOutcomeSpace(("A", "B"))
        res = transduce_grid(("A",), space, NonconformityMeasure.one_minus_emp())
        assert res.contour.values == (Fraction(1), Fraction(1))

    def test_empty_data_contour_is_vacuous(self):
        space = FiniteOutcomeSpace(("A", "B", "C"))
        res = transduce_grid((), space, NonconformityMeasure.one_minus_emp())
        assert res.contour.values == (Fraction(1),) * 3

    @pytest.mark.parametrize("seed", [7, 11, 42])
    def test_grid_peak_sits_nearest_the_sample_mean(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0.0, 1.0, 10)
        grid = GridOutcomeSpace(-4.0, 4.0, 101)
        res = transduce_grid(data, grid, NonconformityMeasure.mean_abs())
        values = res.contour.values
        nearest = int(np.argmin(np.abs(np.array(grid.points()) - data.mean())))
        assert values[nearest] == 1
        assert max(values) == 1
        assert max(range(101), key=lambda i: values[i]) == nearest

    def test_grid_fast_path_agrees_with_generic_loop(self):
        """The vectorized mean-abs sweep must equal the per-point transducer."""
        rng = np.random.default_rng(3)
        data = tuple(rng.normal(1.0, 2.0, 9))
        grid = GridOutcomeSpace(-5.0, 7.0, 41)
        fast = transduce_grid(data, grid, NonconformityMeasure.mean_abs())
        psi = NonconformityMeasure.mean_abs()
        slow = tuple(conformal_transducer(data, p, psi) for p in grid.points())
        assert fast.contour.values == slow

    def test_grid_fast_path_sums_the_bag_like_the_scalar_path(self):
        """A score tie that numpy's pairwise bag sum broke differently from fsum:
        at candidate 0.3 the sweep gave 1/2 where the scalar transducer gives 1/3."""
        data = (0.3, 2.3, 1.4, 1.7, 1.8)
        grid = GridOutcomeSpace(0.3, 2.3, 11)
        psi = NonconformityMeasure.mean_abs()
        fast = transduce_grid(data, grid, psi).contour.values
        assert fast == tuple(conformal_transducer(data, p, psi) for p in grid.points())
        assert fast[0] == Fraction(1, 3)

    def test_rank_denominators(self, abc_contour):
        n = len(ABC_BAG)
        for v in abc_contour.values:
            assert (v * (n + 1)).denominator == 1


class TestGridSweepChunks:
    """The mean-abs grid branch scores its candidates a chunk at a time."""

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("points, n", [(2, 1), (41, 9), (1000, 37), (4099, 100)])
    def test_ranks_equal_the_unchunked_sweep(self, monkeypatch, cells, points, n):
        monkeypatch.setattr(transducer, "_SWEEP_CELLS", cells)
        data = tuple(np.random.default_rng(points + n).normal(0.0, 1.5, n).tolist())
        grid = GridOutcomeSpace(-4.0, 4.0, points)
        got = transduce_grid(data, grid, NonconformityMeasure.mean_abs()).contour.ranks
        want = _sweep_mean_abs_grid(data, np.array(grid.points()))
        assert got.tolist() == want.tolist()

    def test_a_large_grid_holds_chunks_not_the_whole_sweep(self):
        """2**16 candidates x 100 points: unchunked, the (G, n) temporaries
        peaked at about 100 MB; the points and ranks themselves take about 4 MB."""
        data = tuple(np.random.default_rng(0).normal(size=100).tolist())
        grid = GridOutcomeSpace(-4.0, 4.0, 2**16)
        tracemalloc.start()
        try:
            contour = transduce_grid(data, grid, NonconformityMeasure.mean_abs()).contour
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert contour.max_value() == 1
        assert peak < 16 << 20


class TestAdjustments:
    """Rescaled and lifted contours; both restore consonance."""

    def _contour(self, values):
        space = FiniteOutcomeSpace(tuple(f"y{i}" for i in range(len(values))))
        return Contour(space, tuple(values))

    def test_prime_divides_by_the_sup(self):
        out = adjust_prime(self._contour((0.5, 0.25)))
        assert out.values == (1.0, 0.5)
        assert out.provenance == "prime-adjusted"

    def test_double_prime_lifts_only_the_argmax(self):
        out = adjust_double_prime(self._contour((0.5, 0.25)))
        assert out.values == (1, 0.25)

    def test_constant_contour_becomes_vacuous_either_way(self):
        assert adjust_prime(self._contour((0.2, 0.2))).values == (1.0, 1.0)
        assert adjust_double_prime(self._contour((0.2, 0.2))).values == (1, 1)

    def test_consonant_contour_is_a_fixed_point(self):
        c = self._contour((Fraction(1, 3), Fraction(1)))
        assert adjust_prime(c).values == c.values
        assert adjust_double_prime(c).values == c.values

    def test_all_zero_contour_cannot_be_normalized(self):
        from consonance import AllZeroContour

        with pytest.raises(AllZeroContour):
            adjust_prime(self._contour((0.0, 0.0)))

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=20),
            min_size=1,
            max_size=6,
        ).filter(lambda vs: max(vs) > 0)
    )
    def test_efficiency_ordering(self, values):
        """pi <= pi'' <= pi' pointwise, with both adjusted maxima equal to 1."""
        c = self._contour(values)
        prime = adjust_prime(c).values
        double = adjust_double_prime(c).values
        for raw, dbl, pri in zip(c.values, double, prime):
            assert raw <= dbl <= pri
        assert max(prime) == 1
        assert max(double) == 1

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=20),
            min_size=2,
            max_size=6,
        ).filter(lambda vs: max(vs) > 0)
    )
    def test_prime_preserves_value_order(self, values):
        c = self._contour(values)
        prime = adjust_prime(c).values
        for a, b in zip(c.values, c.values[1:]):
            pa, pb = prime[c.values.index(a)], prime[c.values.index(b)]
            assert (a <= b) == (pa <= pb)


class TestContourJson:
    def test_label_contour_round_trip(self, abc_contour):
        back = Contour.from_json(abc_contour.to_json())
        assert back.values == abc_contour.values
        assert back.space == abc_contour.space

    def test_rationals_serialize_as_num_slash_den(self, abc_contour):
        obj = abc_contour.to_json()
        assert obj["pi"] == ["21/101", "51/101", "1/1"]

    def test_grid_contour_round_trip(self):
        grid = GridOutcomeSpace(0.0, 2.0, 5)
        c = Contour(grid, (0.1, 0.4, 1.0, 0.4, 0.1))
        obj = c.to_json()
        assert obj["grid"] == {"lo": 0.0, "hi": 2.0, "num_points": 5}
        back = Contour.from_json(obj)
        assert back.values == c.values and back.space == grid

    def test_values_outside_unit_interval_rejected(self):
        grid = GridOutcomeSpace(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            Contour(grid, (0.5, 1.2))
        with pytest.raises(ValueError):
            Contour(grid, (-0.1, 1.0))
