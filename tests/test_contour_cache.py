"""Per-contour caches against the code they replaced.

A contour decides consonance once, when it is built, and keeps its credal
vertices after the first ``extreme_points``.  Each must give exactly what
the old code gave: the same vertices (in any order), the same entropy,
the same consonance verdicts.  The old code is kept below verbatim as the
reference.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations
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
    upper_table,
)
from consonance._num import all_rational, zero_like
from consonance.errors import SpaceTooLarge
from consonance.possibility import _max_table

from conftest import same_vertices


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the code replaced, kept verbatim as the reference ----------------------


def _old_all_rational(values) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def _old_is_consonant(c):
    return c.max_level == c.threshold(1)  # the level that stands for 1


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


# -- cached extreme points ---------------------------------------------------


class TestExtremePointCache:
    @settings(max_examples=80)
    @given(contours())
    def test_vertices_and_entropy_match_the_walk(self, c):
        old = _old_extreme_points(c)
        first, second = extreme_points(c), extreme_points(c)
        assert first == second
        assert same_vertices(first, old, c.values)
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
        c = Contour(_space(17), tuple(Fraction(i, 17) for i in range(1, 18)))  # 2^16 vertices
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

