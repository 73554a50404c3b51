"""Integer-rank contours: exact cuts and intersections in int64.

An exact contour is held as ranks ``k`` over one denominator, and every
cut ``k/den > alpha`` is decided as ``k > floor(alpha * den)``.  The tests
below hold that integer decision to the ``Fraction`` comparison it
replaces -- above all for float alphas that sit on a rank boundary, where
the float is a hair above or below ``k/den`` -- and check that the
regions do not depend on whether a rational contour arrived as ranks or
as hand-built Fractions.  Float contours keep Python's own comparisons;
a copy of the loops they used before the rank core is kept here as the
reference they must still match.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    adjust_double_prime,
    adjust_prime,
    cpr,
    ihdr_cut,
    ihdr_intersection,
    prop1_check,
    upper_table,
)


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


#: (float alpha, denominator) pairs where alpha * den is an integer in exact
#: arithmetic, so the float lies just above or just below a rank
BOUNDARIES = [(0.1, 10), (0.2, 5), (0.3, 10), (0.5, 2)]


@st.composite
def rank_contours(draw, max_k=6, consonant=False):
    k = draw(st.integers(1, max_k))
    den = draw(st.integers(1, 60))
    ranks = draw(st.lists(st.integers(0, den), min_size=k, max_size=k))
    if consonant:
        ranks[draw(st.integers(0, k - 1))] = den
    return ranks, den


def alphas_for(den):
    on_boundary = [a for a, d in BOUNDARIES if den % d == 0]
    return st.one_of(
        st.floats(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1, max_denominator=2 * den),
        st.sampled_from([0, 1, 0.0, 1.0] + on_boundary),
        st.integers(0, den).map(lambda k: k / den),  # nearest float to a rank
    )


def _reference_cut(ranks, den, alpha):
    return tuple(i for i, k in enumerate(ranks) if Fraction(k, den) > alpha)


class TestIntegerCut:
    @given(rank_contours().flatmap(lambda rd: st.tuples(st.just(rd), alphas_for(rd[1]))))
    def test_integer_cut_equals_fraction_cut(self, case):
        (ranks, den), alpha = case
        c = Contour.from_ranks(_space(len(ranks)), ranks, den)
        assert cpr(c, alpha).event.indices == _reference_cut(ranks, den, alpha)

    @pytest.mark.parametrize("alpha, den", BOUNDARIES)
    def test_float_alpha_on_a_rank_boundary(self, alpha, den):
        ranks = list(range(den + 1))
        c = Contour.from_ranks(_space(den + 1), ranks, den)
        assert cpr(c, alpha).event.indices == _reference_cut(ranks, den, alpha)

    def test_float_boundaries_fall_on_both_sides(self):
        """The float 0.1 and 0.2 lie above their rank, 0.3 below it, 0.5 on it."""
        inside = {}
        for alpha, den in BOUNDARIES:
            c = Contour.from_ranks(_space(den + 1), list(range(den + 1)), den)
            inside[alpha] = round(alpha * den) in cpr(c, alpha).event
        assert inside == {0.1: False, 0.2: False, 0.3: True, 0.5: False}


class TestRanksAgainstFractions:
    @given(
        rank_contours(consonant=True).flatmap(lambda rd: st.tuples(st.just(rd), alphas_for(rd[1])))
    )
    def test_regions_agree_across_representations(self, case):
        (ranks, den), alpha = case
        space = _space(len(ranks))
        ranked = Contour.from_ranks(space, ranks, den)
        hand = Contour(space, tuple(Fraction(k, den) for k in ranks))
        assert ranked == hand and hash(ranked) == hash(hand)
        expected = Event(_reference_cut(ranks, den, alpha), len(ranks))
        for c in (ranked, hand):
            assert cpr(c, alpha).event == expected
            assert ihdr_cut(c, alpha).event == expected
            assert ihdr_intersection(c, alpha).event == expected
        a, b = prop1_check(ranked, (alpha,)), prop1_check(hand, (alpha,))
        assert a.passed and b.passed and a.alphas == b.alphas

    def test_intersection_matches_cut_on_a_float_boundary(self):
        """Regression: 1 - alpha once rounded in float, so the event {y1} with
        lower probability 7/10 qualified at alpha = 0.3 and the intersection
        dropped y0 (value 3/10 > 0.3) from the region."""
        c = Contour(_space(2), (Fraction(3, 10), Fraction(1)))
        assert cpr(c, 0.3).event.indices == (0, 1)
        assert ihdr_intersection(c, 0.3).event.indices == (0, 1)
        assert prop1_check(c, (0.3,)).passed

    @given(rank_contours(consonant=True))
    def test_upper_table_matches_the_fraction_table(self, rd):
        ranks, den = rd
        c = Contour.from_ranks(_space(len(ranks)), ranks, den)
        table = upper_table(c)
        for m in range(1 << len(ranks)):
            members = [Fraction(k, den) for i, k in enumerate(ranks) if m >> i & 1]
            assert table[m] == max(members, default=0)


class TestRankContour:
    def test_values_view_is_built_once(self):
        c = Contour.from_ranks(_space(3), [1, 2, 4], 4)
        assert c.values == (Fraction(1, 4), Fraction(1, 2), Fraction(1))
        assert type(c.values) is tuple and c.values is c.values
        assert c.max_value() == 1

    def test_hand_built_rationals_are_rescaled(self):
        c = Contour(_space(3), (Fraction(1, 3), Fraction(1, 2), 1))
        assert c.den == 6 and c.ranks.tolist() == [2, 3, 6]
        assert c.values == (Fraction(1, 3), Fraction(1, 2), 1)

    def test_float_contours_have_no_ranks(self):
        c = Contour(_space(2), (0.5, Fraction(1)))
        assert c.ranks is None and c.den is None
        assert c.values == (0.5, Fraction(1))

    @pytest.mark.parametrize(
        "ranks, den, error",
        [
            ([1, 5], 4, ValueError),
            ([-1, 4], 4, ValueError),
            ([1, 2, 4], 4, ValueError),
            ([1, 4], 0, ValueError),
            ([0.5, 1.0], 4, TypeError),
            ([1, 4], 4.0, TypeError),
        ],
    )
    def test_bad_ranks_rejected(self, ranks, den, error):
        with pytest.raises(error):
            Contour.from_ranks(_space(2), ranks, den)

    def test_immutable(self):
        source = np.array([1, 4])
        c = Contour.from_ranks(_space(2), source, 4)
        source[0] = 3  # the contour holds its own copy
        assert c.values[0] == Fraction(1, 4)
        with pytest.raises(ValueError):
            c.ranks[0] = 2
        with pytest.raises(FrozenInstanceError):
            c.provenance = "raw"

    def test_adjustments_stay_in_rank_form(self):
        c = Contour.from_ranks(_space(3), [1, 2, 3], 6)
        prime, double = adjust_prime(c), adjust_double_prime(c)
        assert prime.values == (Fraction(1, 3), Fraction(2, 3), Fraction(1))
        assert double.values == (Fraction(1, 6), Fraction(1, 3), Fraction(1))
        assert prime.ranks is not None and double.ranks is not None
        assert (prime.provenance, double.provenance) == ("prime-adjusted", "double-prime-adjusted")


# -- float contours: the pre-rank loops, kept verbatim as the reference -----


def _old_max_table(values):
    k = len(values)
    table = [0.0] * (1 << k)
    for m in range(1, 1 << k):
        low = (m & -m).bit_length() - 1
        table[m] = max(table[m & (m - 1)], values[low])
    return table


def _old_intersection_mask(values, alpha):
    up = _old_max_table(values)
    full = (1 << len(values)) - 1
    acc = full
    for m in range(1 << len(values)):
        if up[full ^ m] <= alpha:
            acc &= m
    return acc


def _old_prop1(values, alphas):
    distinct = sorted(set(values))
    grid = set(alphas) | set(distinct) | {0, 1}
    for a, b in zip(distinct, distinct[1:]):
        grid.add((a + b) / 2)
    sweep = tuple(sorted(grid))
    failures = []
    for alpha in sweep:
        cut = sum(1 << i for i, v in enumerate(values) if v > alpha)
        inter = _old_intersection_mask(values, alpha)
        if cut != inter:
            failures.append((alpha, cut, inter))
    return sweep, failures


@st.composite
def float_contours(draw, max_k=6):
    k = draw(st.integers(1, max_k))
    coarse = st.integers(0, 20).map(lambda i: i / 20)  # many ties and boundary floats
    vals = draw(st.lists(st.one_of(coarse, st.floats(0, 1)), min_size=k, max_size=k))
    if draw(st.booleans()):  # a rational among floats still takes the float path
        vals[draw(st.integers(0, k - 1))] = draw(st.fractions(0, 1, max_denominator=10))
    vals[draw(st.integers(0, k - 1))] = 1.0
    return vals


class TestFloatPathUnchanged:
    @given(float_contours(), st.one_of(st.floats(0, 1), st.integers(0, 20).map(lambda i: i / 20)))
    def test_intersection_matches_the_old_loop(self, vals, alpha):
        c = Contour(_space(len(vals)), vals)
        assert c.ranks is None
        assert ihdr_intersection(c, alpha).event.mask == _old_intersection_mask(vals, alpha)
        cut = sum(1 << i for i, v in enumerate(vals) if v > alpha)
        assert cpr(c, alpha).event.mask == cut

    @given(float_contours(), st.lists(st.floats(0, 1), max_size=3))
    def test_prop1_matches_the_old_loop(self, vals, alphas):
        c = Contour(_space(len(vals)), vals)
        report = prop1_check(c, tuple(alphas))
        sweep, failures = _old_prop1(vals, tuple(alphas))
        assert report.alphas == sweep
        got = [(f.alpha, f.cut_event.mask, f.intersection_event.mask) for f in report.failures]
        assert got == failures
        assert report.passed == (not failures)
