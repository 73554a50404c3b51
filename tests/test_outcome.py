"""Outcome spaces, events and their canonical encodings."""

import json
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Event,
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    SpaceTooLarge,
    UnknownLabel,
    complement,
    enumerate_events,
    space_from_json,
)
from consonance import Contour, lower_prob, mass_from_belief, outcome
from consonance.outcome import MAX_GRID_POINTS, SHARED_MAX_K


def events(k=6):
    """Arbitrary event on a size-k space, via its bitmask."""
    return st.integers(min_value=0, max_value=(1 << k) - 1).map(
        lambda m: Event.from_mask(m, k)
    )


class TestFiniteOutcomeSpace:
    def test_size_and_index(self):
        sp = FiniteOutcomeSpace(("A", "B", "C"))
        assert sp.size == 3
        assert sp.index("B") == 1

    def test_unknown_label_raises(self):
        sp = FiniteOutcomeSpace(("A", "B"))
        with pytest.raises(UnknownLabel):
            sp.index("Z")

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            FiniteOutcomeSpace(("A", "A"))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            FiniteOutcomeSpace(())

    def test_json_round_trip(self):
        sp = FiniteOutcomeSpace(("x", "y", "z"))
        assert FiniteOutcomeSpace.from_json(json.loads(json.dumps(sp.to_json()))) == sp


class TestGridOutcomeSpace:
    """Uniform grids: endpoints are hit exactly, spacing is constant."""

    def test_endpoints(self):
        g = GridOutcomeSpace(-1.0, 3.0, 9)
        assert g.point(0) == -1.0
        assert g.point(8) == 3.0
        assert g.size == 9

    def test_uniform_spacing(self):
        g = GridOutcomeSpace(0.0, 1.0, 101)
        pts = g.points()
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        assert max(gaps) - min(gaps) < 1e-12
        assert abs(g.cell_width - 0.01) < 1e-15

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            GridOutcomeSpace(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridOutcomeSpace(2.0, 1.0, 5)

    def test_indices_stay_exact_floats(self):
        g = GridOutcomeSpace(0.0, 1.0, 2**53)
        assert g.point(2**53 - 1) == 1.0
        for n in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                GridOutcomeSpace(0.0, 1.0, n)

    def test_points_past_the_budget_raise(self):
        with pytest.raises(SpaceTooLarge):
            GridOutcomeSpace(0.0, 1.0, MAX_GRID_POINTS + 1).points()

    def test_json_round_trip_is_flat(self):
        g = GridOutcomeSpace(0.5, 9.5, 19)
        obj = g.to_json()
        assert set(obj) == {"lo", "hi", "num_points"}
        assert GridOutcomeSpace.from_json(obj) == g

    def test_space_from_json_dispatch(self):
        fin = space_from_json({"labels": ["A", "B"]})
        assert isinstance(fin, FiniteOutcomeSpace)
        grid = space_from_json({"lo": 0.0, "hi": 1.0, "num_points": 3})
        assert isinstance(grid, GridOutcomeSpace)
        nested = space_from_json({"grid": {"lo": 0.0, "hi": 1.0, "num_points": 3}})
        assert nested == grid
        with pytest.raises(ValueError):
            space_from_json({"points": [1, 2, 3]})


class TestEvent:
    def test_indices_sorted_and_deduplicated(self):
        ev = Event.from_indices((2, 0, 2, 1), 4)
        assert ev.indices == (0, 1, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Event((3,), 3)

    def test_from_labels(self):
        sp = FiniteOutcomeSpace(("A", "B", "C"))
        ev = Event.from_labels(sp, ("C", "A"))
        assert ev.indices == (0, 2)
        assert ev.to_labels(sp) == ["A", "C"]

    def test_empty_and_full(self):
        assert len(Event.empty(5)) == 0
        assert Event.full(5).indices == (0, 1, 2, 3, 4)

    def test_set_algebra(self):
        a = Event.from_indices((0, 1), 4)
        b = Event.from_indices((1, 2), 4)
        assert a.union(b).indices == (0, 1, 2)
        assert a.intersection(b).indices == (1,)
        assert a.intersection(b).issubset(a)
        assert not a.issubset(b)

    def test_from_mask_rejects_bits_outside_the_space(self):
        # these used to give the empty, the full and the {0} event
        for mask in (16, -1, 17):
            with pytest.raises(ValueError):
                Event.from_mask(mask, 4)

    @given(events())
    def test_mask_round_trip(self, ev):
        assert Event.from_mask(ev.mask, ev.space_size) == ev

    @given(events())
    def test_complement_is_an_involution(self, ev):
        assert complement(complement(ev)) == ev
        assert set(ev.indices) & set(complement(ev).indices) == set()

    @given(events(), events())
    def test_de_morgan(self, a, b):
        lhs = complement(a.union(b))
        rhs = complement(a).intersection(complement(b))
        assert lhs == rhs


class TestEnumerateEvents:
    def test_counts(self):
        two = FiniteOutcomeSpace(("A", "B"))
        three = FiniteOutcomeSpace(("A", "B", "C"))
        assert len(list(enumerate_events(two))) == 4
        assert len(set(enumerate_events(three))) == 8

    def test_bitmask_order(self):
        sp = FiniteOutcomeSpace(("A", "B", "C"))
        for position, ev in enumerate(enumerate_events(sp)):
            assert ev.mask == position

    def test_enumeration_budget(self):
        big = FiniteOutcomeSpace(tuple(f"L{i}" for i in range(21)))
        with pytest.raises(SpaceTooLarge):
            list(enumerate_events(big))


class TestSharedEvents:
    """Up to ``SHARED_MAX_K`` outcomes, every enumeration yields one shared
    tuple of events per K."""

    @pytest.mark.parametrize("k", [1, 2, 7, SHARED_MAX_K])
    def test_two_enumerations_yield_the_same_objects(self, k):
        labels = FiniteOutcomeSpace(tuple(range(k)))
        first = list(enumerate_events(labels))
        again = list(enumerate_events(GridOutcomeSpace(0.0, 1.0, k) if k >= 2 else labels))
        assert all(a is b for a, b in zip(first, again)) and len(first) == len(again) == 1 << k
        assert first == [Event.from_mask(m, k) for m in range(1 << k)]

    def test_a_larger_space_builds_fresh_events(self):
        space = FiniteOutcomeSpace(tuple(range(SHARED_MAX_K + 1)))
        a, b = next(enumerate_events(space)), next(enumerate_events(space))
        assert a == b and a is not b

    def test_every_shared_k_stays_under_a_megabyte(self, monkeypatch):
        monkeypatch.setattr(outcome, "_shared", {})
        tracemalloc.start()
        try:
            for k in range(1, SHARED_MAX_K + 1):
                deque(enumerate_events(FiniteOutcomeSpace(tuple(range(k)))), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(outcome._shared) == list(range(1, SHARED_MAX_K + 1))
        assert peak < 1 << 20

    def test_a_belief_that_reads_indices_repeats_its_masses(self):
        """Reading ``indices`` fills a slot of a shared event; a later
        enumeration must see the same sets."""
        values = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), 0)
        space = FiniteOutcomeSpace(tuple("abcde"))
        c = Contour(space, values)

        def bel(ev):
            return 1 - max((v for i, v in enumerate(values) if i not in ev.indices), default=0)

        first = mass_from_belief(bel, space)
        assert mass_from_belief(bel, space) == first
        assert first == mass_from_belief(lambda ev: lower_prob(c, ev), space)
        assert [ev.indices for ev in enumerate_events(space)] == [
            Event.from_mask(m, 5).indices for m in range(32)
        ]
