"""Per-contour caches and batched credal proposals against the code they replaced.

A contour decides consonance once, when it is built, and keeps its credal
vertices after the first ``extreme_points``; ``sample_credal`` draws and
tests its 64 Dirichlet proposals as one batch and rewinds the generator to
just past the first hit.  Each must give exactly what the old code gave:
the same samples, bit for bit, whichever proposal is accepted (the first,
a middle one, the last, or none, which falls back to the extreme points),
the same vertices, the same entropy, the same consonance verdicts.  The
old code is kept below verbatim as the reference.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, permutations
from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import (
    Contour,
    FiniteOutcomeSpace,
    ProbabilityVector,
    extreme_points,
    is_consonant,
    lower_entropy,
    sample_credal,
    upper_table,
)
from consonance._num import FLOAT_TOL, all_rational, zero_like
from consonance.credal import _prob_table
from consonance.errors import SpaceTooLarge
from consonance.possibility import _combination_index, _max_table


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the code replaced, kept verbatim as the reference ----------------------


def _old_all_rational(values) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def _old_is_consonant(c):
    return c.max_level == c.threshold(1)  # the level that stands for 1


def _old_prob_table(weights: np.ndarray, zero=0) -> np.ndarray:
    k = len(weights)
    table = np.full(1 << k, zero, dtype=weights.dtype)
    for j in reversed(range(k)):
        table[1 << j :: 2 << j] = table[0 :: 2 << j] + weights[j]
    return table


def _old_extreme_points(c):
    levels = _max_table(c).tolist()
    seen = set()
    firsts = []
    for order in permutations(range(c.size)):
        raised = [None] * c.size  # the prefix maximum each outcome raises
        prefix = 0
        prev = levels[0]
        for i in order:
            prefix |= 1 << i
            cur = levels[prefix]
            if cur != prev:
                raised[i] = prev
            prev = cur
        key = tuple(raised)
        if key not in seen:
            seen.add(key)
            firsts.append(order)
    up = upper_table(c)
    out = []
    for order in firsts:
        weights = [zero_like(c.values)] * c.size
        prefix = 0
        prev = zero_like(c.values)
        for i in order:
            prefix |= 1 << i
            weights[i] = up[prefix] - prev
            prev = up[prefix]
        out.append(ProbabilityVector(tuple(weights)))
    return out


def _old_lower_entropy(c):
    best = None
    for p in _old_extreme_points(c):
        h = -sum(float(w) * log(float(w)) for w in p.weights if w > 0)
        if best is None or h < best:
            best = h
    return best + 0.0  # turn -0.0 into 0.0


def _old_sample_credal(c, count, seed, accepted=None):
    """The per-proposal loop; ``accepted`` collects the index of the
    accepted proposal of each sample, None for the fallback."""
    rng = np.random.default_rng(seed)
    ones = np.ones(c.size)
    bound = _max_table(c, np.array([float(v) for v in c.values])) + FLOAT_TOL
    extremes = None
    out = []
    for _ in range(count):
        vec = None
        for t in range(64):
            w = rng.dirichlet(ones)
            if np.all(_old_prob_table(w) <= bound):
                vec = ProbabilityVector(tuple(float(x) for x in w))
                break
        if accepted is not None:
            accepted.append(t if vec is not None else None)
        if vec is None:
            if extremes is None:
                extremes = np.array(
                    [p.as_floats() for p in _old_extreme_points(c)], dtype=float
                )
            lam = rng.dirichlet(np.ones(len(extremes)))
            w = lam @ extremes
            w = w / w.sum()  # numpy's dirichlet can sit one ulp off the simplex
            vec = ProbabilityVector(tuple(float(x) for x in w))
        out.append(vec)
    return out


# -- strategies --------------------------------------------------------------

#: values with equal Fraction and float twins, and near misses
_TIES = (Fraction(1, 2), 0.5, Fraction(1, 4), 0.25, Fraction(1, 3), 1 / 3, Fraction(0), 0.0)


@st.composite
def contours(draw, max_k=7, consonant=True):
    kind = draw(st.sampled_from(("rank", "float", "mixed")))
    k = draw(st.integers(1, max_k))
    if kind == "rank":
        den = draw(st.integers(1, 12))
        cell = st.integers(0, den).map(lambda r: Fraction(r, den))
        one = st.just(Fraction(1))
    elif kind == "float":
        cell = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1 / 3]))
        one = st.just(1.0)
    else:
        cell = st.one_of(st.sampled_from(_TIES), st.fractions(0, 1, max_denominator=6), st.floats(0, 1))
        one = st.sampled_from([1.0, Fraction(1), 1])
    vals = draw(st.lists(cell, min_size=k, max_size=k))
    if consonant:
        vals[draw(st.integers(0, k - 1))] = draw(one)
    return Contour(_space(k), vals)


def _kinds(points):
    return [tuple(type(w) for w in p.weights) for p in points]


# -- batched proposals -------------------------------------------------------


class TestBatchedProposals:
    @settings(max_examples=60)
    @given(contours(), st.integers(0, 6), st.integers(0, 2**31))
    def test_seeded_draws_match_the_per_proposal_loop(self, c, count, seed):
        assert sample_credal(c, count=count, seed=seed) == _old_sample_credal(c, count, seed)

    #: (contour values, seed, index of the first sample's accepted proposal)
    CASES = [
        ((Fraction(1), Fraction(1, 10), Fraction(1, 10)), 92, 0),
        ((Fraction(1), Fraction(1, 10), Fraction(1, 10)), 34, 31),
        ((Fraction(1), Fraction(1, 10), Fraction(1, 10)), 193, 63),
        ((Fraction(1), Fraction(1, 10), Fraction(1, 10)), 0, None),
        ((1.0, 0.3, 0.2, 0.1), 72, 0),
        ((1.0, 0.3, 0.2, 0.1), 185, 31),
        ((1.0, 0.3, 0.2, 0.1), 130, 63),
        ((1.0, 0.3, 0.2, 0.1), 0, None),
        ((Fraction(1), Fraction(1, 2), 0.25, Fraction(1, 3), 0.2), 41, 0),
        ((Fraction(1), Fraction(1, 2), 0.25, Fraction(1, 3), 0.2), 90, 31),
        ((Fraction(1), Fraction(1, 2), 0.25, Fraction(1, 3), 0.2), 546, 63),
        ((Fraction(1), Fraction(1, 2), 0.25, Fraction(1, 3), 0.2), 1, None),
    ]

    @pytest.mark.parametrize("vals, seed, first", CASES)
    def test_first_middle_last_and_no_accepted_proposal(self, vals, seed, first):
        c = Contour(_space(len(vals)), vals)
        for count in range(7):
            accepted = []
            old = _old_sample_credal(c, count, seed, accepted)
            assert accepted[:1] == ([first] if count else [])
            new = sample_credal(c, count=count, seed=seed)
            assert new == old
            assert _kinds(new) == _kinds(old)

    def test_point_mass_contour_always_falls_back(self):
        c = Contour(_space(4), (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        accepted = []
        old = _old_sample_credal(c, 5, 3, accepted)
        assert accepted == [None] * 5
        assert sample_credal(c, count=5, seed=3) == old

    def test_vacuous_contour_accepts_every_first_proposal(self):
        c = Contour(_space(6), (1,) * 6)
        accepted = []
        old = _old_sample_credal(c, 6, 9, accepted)
        assert accepted == [0] * 6
        assert sample_credal(c, count=6, seed=9) == old

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 64), st.integers(0, 2**31))
    def test_a_dirichlet_batch_is_the_sequential_rows(self, k, size, seed):
        ones = np.ones(k)
        batch, seq = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = batch.dirichlet(ones, size=size)
        assert rows.shape == (size, k)
        for row in rows:
            assert np.array_equal(row, seq.dirichlet(ones))
        assert batch.bit_generator.state == seq.bit_generator.state
        assert batch.random() == seq.random()

    @given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**31))
    def test_batched_prob_table_is_the_row_table(self, k, rows, seed):
        ws = np.random.default_rng(seed).dirichlet(np.ones(k), size=rows)
        table = _prob_table(ws)
        assert table.shape == (rows, 1 << k)
        for w, row in zip(ws, table):
            assert np.array_equal(row, _old_prob_table(w))


# -- cached extreme points ---------------------------------------------------


class TestExtremePointCache:
    @settings(max_examples=80)
    @given(contours())
    def test_vertices_and_entropy_match_the_walk(self, c):
        old = _old_extreme_points(c)
        first, second = extreme_points(c), extreme_points(c)
        assert first == second == old
        assert _kinds(first) == _kinds(old)
        assert first is not second
        assert lower_entropy(c) == _old_lower_entropy(c)

    def test_a_caller_mutating_the_list_changes_nothing(self, abc_contour):
        c = Contour(abc_contour.space, abc_contour.values)  # a contour no other test warms
        first = extreme_points(c)
        expected = list(first)
        entropy = lower_entropy(c)
        first.clear()
        first.append(ProbabilityVector((Fraction(1, 3),) * 3))
        assert extreme_points(c) == expected
        assert lower_entropy(c) == entropy == 0.0

    def test_the_cache_belongs_to_its_contour(self):
        vals = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        a, b = Contour(_space(3), vals), Contour(_space(3), vals)
        extreme_points(a)
        assert a._extremes is not None and b._extremes is None
        assert extreme_points(b) == extreme_points(a)

    def test_the_budget_still_raises_on_every_call(self):
        c = Contour(_space(9), (1,) * 9)
        for _ in range(2):
            with pytest.raises(SpaceTooLarge):
                extreme_points(c)


# -- consonance and size decided at construction -----------------------------


class TestConstructionSlots:
    @settings(max_examples=200)
    @given(st.one_of(contours(max_k=10), contours(max_k=10, consonant=False)))
    def test_consonance_flag_is_the_threshold_test(self, c):
        assert is_consonant(c) == _old_is_consonant(c) == c._consonant
        assert c.size == c.space.size == len(c.values)

    @given(st.integers(1, 20), st.data())
    def test_rank_contours(self, den, data):
        k = data.draw(st.integers(1, 12))
        ranks = data.draw(st.lists(st.integers(0, den), min_size=k, max_size=k))
        c = Contour.from_ranks(_space(k), ranks, den)
        assert is_consonant(c) == _old_is_consonant(c) == (max(ranks) == den)
        assert c.size == k

    def test_size_is_read_only(self):
        c = Contour(_space(2), (1, 0))
        with pytest.raises(FrozenInstanceError):
            c.size = 3
        with pytest.raises(FrozenInstanceError):
            c._consonant = False


# -- all_rational over the set of types --------------------------------------


class _Frac(Fraction):
    pass


_MIXES = (1, 0, True, False, Fraction(1, 3), _Frac(2, 7), 0.5, np.int64(3), np.float64(0.25))


class TestAllRational:
    @given(st.lists(st.sampled_from(_MIXES), max_size=8))
    def test_matches_the_isinstance_form(self, values):
        assert all_rational(values) == _old_all_rational(values)
        assert all_rational(iter(values)) == _old_all_rational(values)


# -- combination index arrays ------------------------------------------------


class TestCombinationIndex:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_rows_are_the_combinations_in_order(self, n, j):
        got = _combination_index(n, j)
        assert got.tolist() == [list(c) for c in combinations(range(n), j)]
        assert got.dtype == np.int64 and not got.flags.writeable
        assert _combination_index(n, j) is got
