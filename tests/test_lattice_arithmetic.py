"""The 2^K event paths and the credal vertices against the code they replaced.

``enumerate_events`` fills the slots of each event without ``from_mask``'s
range check, once per K up to 12 and a chunk at a time past it;
``common_integers`` reads each distinct
object once; ``mass_from_belief`` runs on both; and ``extreme_points``
reads the vertices off the level chain instead of walking K! orders.
Each must give what the old code gave -- the vertices as a multiset, in
a new order.  The old code is kept below verbatim as the reference.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    NegativeMass,
    ProbabilityVector,
    SpaceTooLarge,
    enumerate_events,
    extreme_points,
    in_credal_set,
    lower_prob,
    mass_from_belief,
    prop1_check,
    upper_table,
)
from consonance._num import all_rational, common_integers, tolerance, zero_like
from consonance.outcome import MAX_ENUM
from consonance.possibility import MassFunction, _max_table, _number_table

from conftest import same_vertices


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the code replaced, kept verbatim as the reference ----------------------


def _old_enumerate_events(space):
    k = space.size
    if k > MAX_ENUM:
        raise SpaceTooLarge(f"2^{k} events exceed the enumeration budget")
    for mask in range(1 << k):
        yield Event.from_mask(mask, k)


def _old_common_integers(values, cap=1 << 40):
    if not all_rational(values):
        return None
    den = 1
    for d in {v.denominator for v in values}:
        den = lcm(den, d)
        if den > cap:
            return None
    return [v.numerator * (den // v.denominator) for v in values], den


def _old_number_table(values, k):
    kinds = set(map(type, values))
    scaled = _old_common_integers(values) if len(kinds) == 1 else None
    if scaled is None or max(map(abs, scaled[0])) << k >= 1 << 63:
        return np.array(values, dtype=object), None
    return np.array(scaled[0], dtype=np.int64), scaled[1] if kinds == {Fraction} else None


def _old_mass_from_belief(bel, space):
    k = space.size
    f = [bel(ev) for ev in _old_enumerate_events(space)]
    tol = tolerance(f)
    if abs(f[0]) > tol:
        raise ValueError("bel(empty) must be 0")
    if abs(f[-1] - 1) > tol:
        raise ValueError("bel(full space) must be 1")

    table, den = _old_number_table(f, k)
    for j in range(k):
        pairs = table.reshape(-1, 2, 1 << j)
        pairs[:, 1, :] -= pairs[:, 0, :]

    def mass(m):
        return table.item(m) if den is None else Fraction(table.item(m), den)

    negative = np.flatnonzero(table[1:] < -tol)
    if negative.size:
        m = int(negative[0]) + 1
        raise NegativeMass(
            f"mass {mass(m)} at mask {m:b}; input is not a belief function"
        )
    focal = (np.flatnonzero(table[1:] > tol) + 1).tolist()
    return MassFunction(k, {Event.from_mask(m, k): mass(m) for m in focal})


def _old_vertices(c):
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
    zero = zero_like(c.values)
    out = []
    for order in firsts:
        weights = [zero] * c.size
        prefix = 0
        prev = zero
        for i in order:
            prefix |= 1 << i
            weights[i] = up[prefix] - prev
            prev = up[prefix]
        out.append(ProbabilityVector(tuple(weights)))
    return tuple(out)


# -- strategies --------------------------------------------------------------

#: values with equal Fraction and float twins, and zeros of both kinds
_TIES = (Fraction(1, 2), 0.5, Fraction(1, 4), 0.25, Fraction(0), 0.0, Fraction(1, 3))


@st.composite
def contours(draw, max_k=7):
    """Consonant contours of one kind of value, or mixed; ties and zeros likely."""
    kind = draw(st.sampled_from(("rank", "float", "mixed")))
    k = draw(st.integers(1, max_k))
    if kind == "rank":
        den = draw(st.integers(1, 6))
        cell, one = st.integers(0, den).map(lambda r: Fraction(r, den)), Fraction(1)
    elif kind == "float":
        cell, one = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0])), 1.0
    else:
        cell = st.one_of(st.sampled_from(_TIES), st.fractions(0, 1, max_denominator=6), st.floats(0, 1))
        one = draw(st.sampled_from([1.0, Fraction(1), 1]))
    vals = draw(st.lists(cell, min_size=k, max_size=k))
    vals[draw(st.integers(0, k - 1))] = one
    return Contour(_space(k), vals)


class Half(Fraction):
    """A Fraction subclass, as a caller might pass."""


_BIG_DENS = (1_000_003, 1_000_033, 1_000_037)  # their product is past the 2^40 cap

scalars = st.one_of(
    st.integers(-50, 50),
    st.fractions(-3, 3, max_denominator=40),
    st.fractions(0, 1, max_denominator=12).map(Half),
    st.sampled_from(_BIG_DENS).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: Fraction(n, d))),
    st.booleans(),
    st.floats(-2, 2),
)


@st.composite
def scalar_lists(draw):
    """Values of one kind or of several, with repeated objects."""
    pool = draw(st.lists(scalars, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@st.composite
def belief_tables(draw):
    """2^K tables with bel(empty) = 0 and bel(full) = 1: sums of random masses,
    which are belief functions, or arbitrary values between, which are not."""
    k = draw(st.integers(1, 6))
    n = 1 << k
    kind = draw(st.sampled_from(("fraction", "int", "float")))
    if kind == "int":
        table = [0] + draw(st.lists(st.integers(-1, 2), min_size=n - 2, max_size=n - 2)) + [1]
        return k, table
    if draw(st.booleans()):
        focal = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(focal), max_size=len(focal)))
        masses = Counter()
        for m, r in zip(focal, raw):
            masses[m] += Fraction(r, sum(raw))
        table = [sum((v for f, v in masses.items() if f & ~m == 0), Fraction(0)) for m in range(n)]
    else:
        inner = st.fractions(-1, 2, max_denominator=8)
        table = [Fraction(0)] + draw(st.lists(inner, min_size=n - 2, max_size=n - 2)) + [Fraction(1)]
    if kind == "float":
        table = [float(v) for v in table]
    return k, table


def _outcome(fn, *args):
    """A result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, NegativeMass) as exc:
        return (type(exc), str(exc))


def _same_mass(new, old):
    if isinstance(old, tuple):  # an error
        return new == old
    return list(new.masses.items()) == list(old.masses.items()) and [
        type(v) for v in new.masses.values()
    ] == [type(v) for v in old.masses.values()]


# -- enumerate_events --------------------------------------------------------


class TestEnumerateEvents:
    @settings(max_examples=40)
    @given(st.integers(1, 12), st.booleans())
    def test_same_events_in_the_same_order(self, k, grid):
        space = GridOutcomeSpace(0.0, 1.0, k) if grid and k >= 2 else _space(k)
        new, old = list(enumerate_events(space)), list(_old_enumerate_events(space))
        assert [e.mask for e in new] == [e.mask for e in old] == list(range(1 << k))
        assert new == old
        assert [hash(e) for e in new] == [hash(e) for e in old]
        assert [e.indices for e in new] == [e.indices for e in old]
        assert [repr(e) for e in new] == [repr(e) for e in old]

    def test_chunks_join_without_a_gap(self):
        space = _space(14)  # four chunks
        assert [e.mask for e in enumerate_events(space)] == list(range(1 << 14))

    def test_too_large_raises_on_first_use(self):
        events = enumerate_events(_space(MAX_ENUM + 1))
        with pytest.raises(SpaceTooLarge):
            next(events)

    def test_iterating_holds_a_chunk_not_the_lattice(self):
        """A chunk of 4,096 events is about 0.3 MB; all 2^16 are about 6 MB."""
        space = GridOutcomeSpace(0.0, 1.0, 16)
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_events(space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1 << 16
        assert peak < 1 << 21


def test_repeated_queries_leave_no_tuples_behind():
    """A tuple grown from a generator is resized, and CPython keeps one more
    block per call on its tuple freelists until a full collection, which a
    long run of lattice queries may never reach: the index tuples, a rank
    contour's values and chain, and the prop1 sweep are built at their
    final size instead."""
    space = _space(8)

    def queries():
        for _ in range(20):
            prop1_check(Contour.from_ranks(space, [8, 7, 5, 5, 3, 2, 1, 0], 8), (0.1, 0.5))
        for m in range(1 << 8):
            Event.from_mask(m, 8).indices

    queries()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            queries()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 1 << 16


# -- common_integers ---------------------------------------------------------


class TestCommonIntegers:
    @given(scalar_lists())
    def test_matches_the_old_rescale(self, values):
        new, old = common_integers(values), _old_common_integers(values)
        assert new == old
        if old is not None:
            assert all(type(n) is int for n in new[0])

    @given(scalar_lists(), st.integers(1, 1 << 12))
    def test_matches_the_old_rescale_under_a_cap(self, values, cap):
        assert common_integers(values, cap) == _old_common_integers(values, cap)

    def test_equal_values_that_are_distinct_objects(self):
        values = [Fraction(1, 3), Fraction(2, 6), Half(1, 3), 1, Fraction(5, 4)]
        assert common_integers(values) == _old_common_integers(values) == ([4, 4, 4, 12, 15], 12)


# -- _number_table ------------------------------------------------------------


#: ints whose magnitude leaves no headroom for a 2^k sum in int64
_WIDE = (1 << 62, -(1 << 61) - 3, 1 << 70)


@st.composite
def lattice_tables(draw):
    """2^k-entry lists drawn from a few objects -- each repeated, as a 2^K
    table of a belief repeats its values -- with equal-but-distinct twins,
    a Fraction subclass, ints and Fractions mixed, floats, and ints or
    numerators past the int64 headroom."""
    k = draw(st.integers(0, 12))
    wide = st.sampled_from(_WIDE)
    pool = draw(st.lists(st.one_of(scalars, wide, wide.map(lambda n: Fraction(n, 3))), min_size=1, max_size=5))
    if draw(st.booleans()):  # an equal value as a distinct object
        first = pool[0]
        twin = Fraction(first.numerator, first.denominator) if isinstance(first, Fraction) else first + 0
        pool.append(twin)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1 << k, max_size=1 << k))
    return k, [pool[i] for i in picks]


def _same_table(new, old):
    (nt, nd), (ot, od) = new, old
    return (
        nt.dtype == ot.dtype
        and nt.tolist() == ot.tolist()
        and [type(v) for v in nt.tolist()] == [type(v) for v in ot.tolist()]
        and nd == od
        and type(nd) is type(od)
    )


def _plain(values):
    """A list of one strict Fraction subclass as plain Fractions, for the old
    table: it gave such a list numerators with no denominator, a defect."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and (kind := kinds.pop()) is not Fraction and issubclass(kind, Fraction):
        return [Fraction(v) for v in values]
    return values


class TestNumberTable:
    @settings(max_examples=300)
    @given(lattice_tables())
    def test_matches_the_old_per_element_rescale(self, kt):
        k, values = kt
        table, den, tol = _number_table(values, k)
        assert _same_table((table, den), _old_number_table(_plain(values), k))
        assert tol == tolerance(values) and type(tol) is type(tolerance(values))

    @given(scalar_lists(), st.integers(0, 20))
    def test_any_list_and_headroom(self, values, k):
        assert _same_table(_number_table(values, k)[:2], _old_number_table(_plain(values), k))

    def test_cases(self):
        third, twin = Fraction(1, 3), Fraction(2, 6)
        for values, k in (
            ([third, twin, third, Fraction(1)] * 4, 4),  # equal objects, one denominator
            ([Half(1, 2), Half(1, 4)] * 2, 2),  # a subclass: as plain Fractions
            ([0, Fraction(1, 2), 1, Fraction(1, 2)], 2),  # mixed kinds: objects
            ([0.25, 0.5, 0.25, 1.0], 2),  # floats: objects
            ([0, 1 << 60, 1, 1 << 60], 2),  # 2^60 << 2 overflows int64: objects
            ([0, 1 << 59, 1, 1 << 59], 2),  # 2^59 << 2 is 2^61: int64
        ):
            assert _same_table(_number_table(values, k)[:2], _old_number_table(_plain(values), k))


# -- mass_from_belief --------------------------------------------------------


class TestMassFromBelief:
    @given(belief_tables())
    def test_tables_match_the_old_inversion(self, kt):
        k, table = kt
        bel = lambda ev: table[ev.mask]  # noqa: E731
        assert _same_mass(
            _outcome(mass_from_belief, bel, _space(k)),
            _outcome(_old_mass_from_belief, bel, _space(k)),
        )

    @given(contours())
    def test_necessity_matches_the_old_inversion(self, c):
        bel = lambda ev: lower_prob(c, ev)  # noqa: E731
        assert _same_mass(mass_from_belief(bel, c.space), _old_mass_from_belief(bel, c.space))

    def test_a_fraction_subclass_keeps_its_denominator(self):
        """The old table read values of one Fraction subclass as bare
        numerators and raised ``masses sum to 2`` here."""
        c = Contour(_space(2), (Fraction(1), Fraction(1, 2)))
        m = mass_from_belief(lambda ev: Half(lower_prob(c, ev)), c.space)
        assert m.masses == {Event.from_mask(0b01, 2): Fraction(1, 2), Event.from_mask(0b11, 2): Fraction(1, 2)}


# -- vertices from the chain -------------------------------------------------


def _formula(c) -> int:
    """t_top * prod(1 + t_l) over the lower positive levels, from the values."""
    counts = Counter(v for v in c.values if v > 0)
    top = max(counts)
    return counts[top] * prod(1 + t for v, t in counts.items() if v != top)


class TestChainVertices:
    @settings(max_examples=60)
    @given(contours())
    def test_same_vertices_as_the_walk(self, c):
        assert same_vertices(extreme_points(c), _old_vertices(c), c.values)

    @given(contours(max_k=10))
    def test_the_count_formula(self, c):
        pts = extreme_points(c)
        assert len(pts) == _formula(c)
        assert len({p.weights for p in pts}) == len(pts)

    @settings(max_examples=30)
    @given(contours(max_k=10))
    def test_every_vertex_is_a_member(self, c):
        assert all(in_credal_set(p, c) for p in extreme_points(c))

    def test_pure_contours_keep_their_kind(self):
        for vals, kind in (((Fraction(1, 2), 1, Fraction(0)), Fraction), ((0.5, 1.0, 0.0), float)):
            for p in extreme_points(Contour(_space(3), vals)):
                assert {type(w) for w in p.weights} == {kind}

    def test_past_the_budget_raises_before_building(self):
        k = 60  # 2^59 vertices: only a count worked out first can refuse this quickly
        c = Contour(_space(k), tuple(Fraction(i, k) for i in range(1, k + 1)))
        with pytest.raises(SpaceTooLarge, match="vertices exceed the budget"):
            extreme_points(c)

    def test_any_size_within_the_budget(self):
        c = Contour(_space(41), (Fraction(1),) + (Fraction(1, 2),) * 40)
        pts = extreme_points(c)
        assert len(pts) == 41
        assert pts[0].weights == (Fraction(1),) + (Fraction(0),) * 40
