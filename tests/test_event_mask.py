"""Bitmask events and the level chain against the code they replaced.

``Event`` holds a bitmask and builds its index tuple on demand; its set
operations are bit operations.  ``upper_prob`` and ``lower_prob`` walk the
contour's level chain instead of taking a max over an index list.  Each
must give exactly what the old code gave: the same indices, lengths,
memberships, set algebra, equality, ``repr`` and labels, and the same
possibility values of the same kinds, ties across Fractions and floats
included.  The old code is kept below verbatim as the reference.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import lt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    complement,
    cpr,
    lower_prob,
    upper_prob,
)
from consonance._num import zero_like


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the code replaced, kept verbatim as the reference ----------------------


@dataclass(frozen=True)
class _OldEvent:
    """Subset of a size-``space_size`` outcome space, as sorted indices."""

    indices: tuple[int, ...]
    space_size: int

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not all(map(lt, idx, idx[1:])):
            raise ValueError("event indices must be strictly increasing")
        # increasing indices lie in range when both ends do
        if idx and not (0 <= idx[0] and idx[-1] < self.space_size):
            raise ValueError("event index out of range")

    @classmethod
    def from_indices(cls, indices, space_size: int) -> "_OldEvent":
        return cls(tuple(sorted(set(indices))), space_size)

    @classmethod
    def from_mask(cls, mask: int, space_size: int) -> "_OldEvent":
        idx = tuple(i for i in range(space_size) if mask >> i & 1)
        return cls(idx, space_size)

    @property
    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << i
        return m

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def issubset(self, other: "_OldEvent") -> bool:
        return set(self.indices) <= set(other.indices)

    def union(self, other: "_OldEvent") -> "_OldEvent":
        return _OldEvent.from_indices(self.indices + other.indices, self.space_size)

    def intersection(self, other: "_OldEvent") -> "_OldEvent":
        common = set(self.indices) & set(other.indices)
        return _OldEvent.from_indices(common, self.space_size)

    def to_labels(self, space: FiniteOutcomeSpace) -> list:
        return [space.labels[i] for i in self.indices]


def _old_complement(event):
    present = set(event.indices)
    rest = tuple(i for i in range(event.space_size) if i not in present)
    return _OldEvent(rest, event.space_size)


def _old_max_over(c, indices):
    if not indices:
        return zero_like(c.values)
    levels = c.levels.tolist()
    return c.values[max(indices, key=levels.__getitem__)]


def _old_upper_prob(c, event):
    return _old_max_over(c, event.indices)


def _old_lower_prob(c, event):
    inside = set(event.indices)
    return 1 - _old_max_over(c, [i for i in range(event.space_size) if i not in inside])


# -- strategies --------------------------------------------------------------

#: space sizes up to one past a machine word, and the harness's grid size
sizes = st.one_of(st.integers(1, 65), st.just(202))


@st.composite
def event_pairs(draw):
    """Two masks on one space, often overlapping or equal."""
    k = draw(sizes)
    masks = st.integers(0, (1 << k) - 1)
    a = draw(masks)
    b = draw(st.one_of(masks, st.just(a), masks.map(lambda m: m & a), masks.map(lambda m: m | a)))
    return k, a, b


def _same(new, old):
    """Equal values of the same kinds."""
    return (type(new), new) == (type(old), old)


#: values with equal Fraction and float twins, and near misses
_TIES = (Fraction(1, 2), 0.5, Fraction(1, 4), 0.25, Fraction(1, 3), 1 / 3, Fraction(0), 0.0)


@st.composite
def contours(draw, max_k=8):
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
    vals[draw(st.integers(0, k - 1))] = draw(one)
    return Contour(_space(k), vals)


# -- events ------------------------------------------------------------------


class TestEventMatchesTheTupleEvent:
    @given(event_pairs())
    def test_every_accessor(self, pair):
        k, a, b = pair
        new, old = Event.from_mask(a, k), _OldEvent.from_mask(a, k)
        assert new.indices == old.indices
        assert type(new.indices) is tuple
        assert new.mask == old.mask == a
        assert len(new) == len(old)
        assert new.space_size == old.space_size
        assert repr(new) == repr(old).replace("_OldEvent", "Event")
        assert new.to_labels(_space(k)) == old.to_labels(_space(k))
        for i in (-1, 0, 1, k // 2, k - 1, k, k + 64):
            assert (i in new) == (i in old)
            assert (np.int64(i) in new) == (np.int64(i) in old)

    @given(event_pairs())
    def test_set_algebra(self, pair):
        k, a, b = pair
        na, nb = Event.from_mask(a, k), Event.from_mask(b, k)
        oa, ob = _OldEvent.from_mask(a, k), _OldEvent.from_mask(b, k)
        assert na.issubset(nb) == oa.issubset(ob)
        assert nb.issubset(na) == ob.issubset(oa)
        assert na.union(nb).indices == oa.union(ob).indices
        assert na.intersection(nb).indices == oa.intersection(ob).indices
        assert complement(na).indices == _old_complement(oa).indices

    @given(event_pairs())
    def test_equality_and_hash(self, pair):
        k, a, b = pair
        na, nb = Event.from_mask(a, k), Event.from_mask(b, k)
        assert (na == nb) == (_OldEvent.from_mask(a, k) == _OldEvent.from_mask(b, k))
        if na == nb:
            assert hash(na) == hash(nb)
        twin = Event(na.indices, k)  # built from indices, not from the mask
        assert twin == na and hash(twin) == hash(na)
        assert twin.mask == a
        assert Event.from_mask(a, k + 1) != na  # same subset, other space
        assert na != _OldEvent.from_mask(a, k)

    @given(sizes, st.data())
    def test_constructors_validate_like_the_tuple_event(self, k, data):
        idx = data.draw(st.lists(st.integers(-2, k + 1), max_size=6))
        try:
            old = _OldEvent(tuple(idx), k)
        except ValueError:
            with pytest.raises(ValueError):
                Event(tuple(idx), k)
        else:
            assert Event(tuple(idx), k).indices == old.indices
        wrapped = [i % k for i in idx]
        assert Event.from_indices(wrapped, k).indices == _OldEvent.from_indices(wrapped, k).indices

    def test_empty_and_full(self):
        for k in (1, 5, 64, 202):
            assert Event.empty(k) == Event((), k)
            assert Event.full(k) == Event(range(k), k)
            assert Event.full(k).indices == tuple(range(k))

    def test_immutable_and_picklable(self):
        ev = Event((0, 2), 4)
        with pytest.raises(FrozenInstanceError):
            ev.mask = 1
        with pytest.raises(FrozenInstanceError):
            del ev.space_size
        for clone in (pickle.loads(pickle.dumps(ev)), copy.deepcopy(ev), copy.copy(ev)):
            assert clone == ev and repr(clone) == "Event(indices=(0, 2), space_size=4)"


class TestCutEvents:
    @given(st.sampled_from([3, 64, 65, 202]), st.data())
    def test_cut_matches_the_index_list(self, k, data):
        den = data.draw(st.integers(1, 100))
        ranks = data.draw(st.lists(st.integers(0, den), min_size=k, max_size=k))
        ranks[0] = den
        c = Contour.from_ranks(_space(k), ranks, den)
        alpha = data.draw(st.one_of(st.floats(0, 1), st.fractions(0, 1, max_denominator=100)))
        idx = np.flatnonzero(c.levels > c.threshold(alpha)).tolist()
        assert cpr(c, alpha).event == Event(tuple(idx), k)
        assert cpr(c, alpha).event.indices == _OldEvent(tuple(idx), k).indices


# -- the level chain ---------------------------------------------------------


class TestLevelChain:
    @settings(max_examples=200)
    @given(contours(), st.data())
    def test_values_and_kinds_match_the_max_over_path(self, c, data):
        masks = range(1 << c.size) if c.size <= 5 else [data.draw(st.integers(0, (1 << c.size) - 1))]
        for m in masks:
            new, old = Event.from_mask(m, c.size), _OldEvent.from_mask(m, c.size)
            assert _same(upper_prob(c, new), _old_upper_prob(c, old))
            assert _same(lower_prob(c, new), _old_lower_prob(c, old))

    def test_cross_kind_ties_keep_the_lowest_index(self):
        c = Contour(_space(4), (Fraction(1, 2), 0.5, 1.0, Fraction(1, 2)))
        for m in range(16):
            ev = Event.from_mask(m, 4)
            assert _same(upper_prob(c, ev), _old_upper_prob(c, _OldEvent.from_mask(m, 4)))
            assert _same(lower_prob(c, ev), _old_lower_prob(c, _OldEvent.from_mask(m, 4)))
        assert _same(upper_prob(c, Event((1, 3), 4)), 0.5)
        assert _same(upper_prob(c, Event((0, 1), 4)), Fraction(1, 2))
        assert _same(lower_prob(c, Event((0, 2), 4)), 0.5)  # 1 - pi(y1)
        assert _same(lower_prob(c, Event((2, 3), 4)), Fraction(1, 2))  # 1 - pi(y0)

    def test_wide_contour(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(0, 30, size=202)
        ranks[7] = 30
        c = Contour.from_ranks(_space(202), ranks, 30)
        for m in [0, (1 << 202) - 1] + [int(rng.integers(0, 1 << 62)) << 140 for _ in range(20)]:
            new, old = Event.from_mask(m, 202), _OldEvent.from_mask(m, 202)
            assert _same(upper_prob(c, new), _old_upper_prob(c, old))
            assert _same(lower_prob(c, new), _old_lower_prob(c, old))
