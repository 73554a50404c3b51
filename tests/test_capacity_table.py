"""Capacity checks from one difference table, against the scan they replaced.

``check_k_monotone`` and ``check_k_alternating`` decide their orders from
the local differences ``sum_{E subset B} (-1)^|E| nu(A - E)`` (Chateauneuf &
Jaffray 1989).  The old code walked every collection of up to k distinct
sub- or supersets of every target; it is kept below verbatim as the
reference.  The verdicts must agree on rational belief functions, monotone
capacities and arbitrary set functions; every failing result must name a
real violation; and the exact number path must not overflow, which the
scan's int64 cast did.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    check_k_alternating,
    check_k_monotone,
    lower_prob,
    upper_prob,
)
from consonance._num import FLOAT_TOL, all_rational, common_integers, tolerance

CHECKS = {"monotone": check_k_monotone, "alternating": check_k_alternating}


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the code replaced, kept verbatim as the reference ----------------------


def _submasks(mask: int) -> list[int]:
    out = []
    s = mask
    while True:
        out.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    out.reverse()
    return out


@lru_cache(maxsize=32)  # pools are 2^i <= 64 events and j <= 4: 28 keys at most
def _combination_index(n: int, j: int) -> np.ndarray:
    """Every j-combination of ``range(n)`` in lexicographic order, one per
    row of a read-only ``(C(n, j), j)`` int64 array."""
    combos = np.fromiter(
        (i for c in combinations(range(n), j) for i in c), dtype=np.int64
    ).reshape(-1, j)
    combos.flags.writeable = False
    return combos


def _scan_capacity(table, k: int, space_size: int, alternating: bool):
    """Shared sweep for the k-monotone / k-alternating checks.

    Targets in cardinality-then-lexicographic order; for each target the
    admissible pool is its subsets (monotone) or supersets (alternating),
    and every combination of 1..k distinct pool events is tested with the
    inclusion-exclusion bound.  Numpy evaluates whole combination blocks;
    rational capacities are rescaled to a common integer denominator so the
    comparison is exact, float capacities treat violations within
    ``FLOAT_TOL`` as ties.  Returns the first violation as
    (target, combo_masks, rhs) -- rhs a Fraction when exact, else a float --
    or None.
    """
    full = (1 << space_size) - 1
    scaled = common_integers(table)
    if scaled is not None:
        arr, den = np.array(scaled[0], dtype=np.int64), scaled[1]
        tol = 0
    else:
        arr = np.array([float(v) for v in table])
        tol = FLOAT_TOL

    targets = sorted(range(full + 1), key=lambda m: (bin(m).count("1"), m))
    for a in targets:
        if alternating:
            pool = [a | x for x in _submasks(full ^ a)]
        else:
            pool = _submasks(a)
        pool_arr = np.array(pool, dtype=np.int64)
        for j in range(1, k + 1):
            if j > len(pool):
                break
            combos = _combination_index(len(pool), j)
            masks = pool_arr[combos]
            rhs = np.zeros(len(combos), dtype=arr.dtype)
            for r in range(1, j + 1):
                sign = 1 if r % 2 else -1
                for cols in combinations(range(j), r):
                    m = masks[:, cols[0]]
                    for col in cols[1:]:
                        m = (m | masks[:, col]) if alternating else (m & masks[:, col])
                    rhs = rhs + sign * arr[m]
            if alternating:
                bad = arr[a] > rhs + tol
            else:
                bad = arr[a] < rhs - tol
            hits = np.flatnonzero(bad)
            if hits.size:
                first = int(hits[0])
                bound = Fraction(int(rhs[first]), den) if scaled else float(rhs[first])
                return a, tuple(int(m) for m in masks[first]), bound
    return None


# -- strategies --------------------------------------------------------------

#: small denominators keep the scan's int64 sums far from overflow, and make
#: every inclusion-exclusion sum of the float twins either round to within
#: 1e-15 of 0 or lie at least 1/27720 from it: the margin of every float
#: case exceeds FLOAT_TOL, so the two tests cannot split on a near tie
_RATIONALS = st.fractions(-1, 1, max_denominator=12)


def _cell(kind):
    if kind == "rational":
        return _RATIONALS
    if kind == "int":
        return st.integers(-3, 3)
    if kind == "float":
        return _RATIONALS.map(float)
    return st.one_of(_RATIONALS, _RATIONALS.map(float))  # mixed kinds


@st.composite
def belief_functions(draw, k):
    """nu(A) = sum of positive rational masses on focal sets inside A."""
    focal = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=6))
    weights = [draw(st.integers(1, 5)) for _ in focal]
    total = sum(weights)
    return [
        sum((Fraction(w, total) for f, w in zip(focal, weights) if f & m == f), Fraction(0))
        for m in range(1 << k)
    ]


@st.composite
def monotone_capacities(draw, k):
    """nu(A) = the largest of some rational weights on subsets of A."""
    raw = draw(st.lists(st.fractions(0, 1, max_denominator=12), min_size=1 << k, max_size=1 << k))
    table = [Fraction(0)] * (1 << k)
    for m in range(1, 1 << k):
        table[m] = max([raw[m]] + [table[m ^ 1 << i] for i in range(k) if m >> i & 1])
    return table


@st.composite
def set_functions(draw, k):
    kind = draw(st.sampled_from(("rational", "int", "float", "mixed")))
    return draw(st.lists(_cell(kind), min_size=1 << k, max_size=1 << k))


@st.composite
def cases(draw, max_k=4):
    k = draw(st.integers(1, max_k))
    order = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(tuple(CHECKS)))
    table = draw(st.one_of(belief_functions(k), monotone_capacities(k), set_functions(k)))
    return k, order, kind, table


def _run(k, order, kind, table):
    return CHECKS[kind](lambda ev: table[ev.mask], order, _space(k))


def _inclusion_exclusion(nu, collection, alternating):
    """sum over nonempty sub-collections I of (-1)^(|I|+1) nu(union or
    intersection of I), built from the events themselves."""
    total = 0
    for r in range(1, len(collection) + 1):
        for sub in combinations(collection, r):
            mask = sub[0].mask
            for ev in sub[1:]:
                mask = mask | ev.mask if alternating else mask & ev.mask
            total += (-1) ** (r + 1) * nu[mask]
    return total


# -- verdicts ----------------------------------------------------------------


class TestVerdictsMatchTheScan:
    @settings(max_examples=300)
    @given(cases())
    def test_up_to_four_outcomes_every_order(self, case):
        k, order, kind, table = case
        old = _scan_capacity(table, order, k, kind == "alternating")
        assert _run(*case).ok == (old is None)

    @settings(max_examples=40)
    @given(st.integers(2, 3), st.sampled_from(tuple(CHECKS)), st.data())
    def test_five_outcomes_up_to_order_three(self, order, kind, data):
        table = data.draw(
            st.one_of(belief_functions(5), monotone_capacities(5), set_functions(5))
        )
        old = _scan_capacity(table, order, 5, kind == "alternating")
        assert _run(5, order, kind, table).ok == (old is None)


# -- witnesses ---------------------------------------------------------------


class TestWitnesses:
    @settings(max_examples=200)
    @given(cases(max_k=5))
    def test_every_witness_is_a_violation(self, case):
        k, order, kind, table = case
        result = _run(*case)
        if result.ok:
            assert result.witness is None
            return
        w = result.witness
        alternating = kind == "alternating"
        assert result.kind == kind and result.k == order
        assert 1 <= len(w.collection) <= order
        assert len(set(w.collection)) == len(w.collection)
        for ev in w.collection:
            assert ev != w.target
            assert w.target.issubset(ev) if alternating else ev.issubset(w.target)
        assert w.lhs == table[w.target.mask]
        rhs = _inclusion_exclusion(table, w.collection, alternating)
        tol = tolerance(table)
        if all_rational(table):
            assert type(w.rhs) is Fraction and w.rhs == rhs
        else:
            assert type(w.rhs) is float and abs(w.rhs - rhs) <= FLOAT_TOL
        assert (w.lhs > rhs + tol) if alternating else (w.lhs < rhs - tol)

    def test_the_first_local_violation_is_reported(self):
        """The drastic capacity on three outcomes breaks 2-alternation at
        each singleton target {i}, through the two pairs that contain it;
        the smallest such target is reported, {0} with {0,1} and {0,2}."""
        drastic = lambda ev: 1 if len(ev) == 3 else 0  # noqa: E731
        w = check_k_alternating(drastic, 2, _space(3)).witness
        assert w.target == Event.from_mask(0b001, 3)
        assert w.collection == (Event.from_mask(0b011, 3), Event.from_mask(0b101, 3))
        assert (w.lhs, w.rhs) == (0, -1)


# -- the exact number path ---------------------------------------------------


class TestOverflow:
    @pytest.mark.parametrize("c", [1, 2**40, 2**62])
    def test_large_rational_values_keep_the_verdict(self, c):
        """nu = c on every nonempty event breaks 2-monotonicity at the
        pair of singletons, nu(ab) = c < c + c - 0; the scan's int64 rhs
        wrapped at c = 2**62 and passed it."""
        result = check_k_monotone(lambda ev: c * (len(ev) > 0), 2, _space(2))
        assert not result
        assert result.witness.lhs == c and result.witness.rhs == 2 * c

    def test_integers_past_int64_are_answered(self):
        """An additive capacity of integers beyond int64; the scan raised
        ``OverflowError`` on the cast."""
        nu = lambda ev: 10**20 * len(ev)  # noqa: E731
        assert check_k_monotone(nu, 2, _space(3))
        assert check_k_alternating(nu, 2, _space(3))


# -- consonant contours at the budget edge -----------------------------------


@st.composite
def contours(draw, k):
    kind = draw(st.sampled_from(("rank", "float", "mixed")))
    rank = st.fractions(0, 1, max_denominator=12)
    cell = {"rank": rank, "float": st.floats(0, 1), "mixed": st.one_of(rank, st.floats(0, 1))}
    vals = draw(st.lists(cell[kind], min_size=k, max_size=k))
    vals[draw(st.integers(0, k - 1))] = 1.0 if kind == "float" else Fraction(1)
    return Contour(_space(k), vals)


@settings(max_examples=30)
@given(contours(6))
def test_consonant_contours_pass_at_six_outcomes_order_four(c):
    assert check_k_alternating(lambda ev: upper_prob(c, ev), 4, c.space)
    assert check_k_monotone(lambda ev: lower_prob(c, ev), 4, c.space)
