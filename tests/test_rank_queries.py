"""Lattice queries in integer ranks against the code they replaced.

``prop1_check`` decides its whole sweep in one sorted pass and builds the
sweep from the ranks; ``in_credal_set`` and ``prop2_membership`` rescale
the ranks and the weights over ``lcm(den, weight denominators)``;
``upper_table`` maps ranks back to values through one index;
``extreme_points`` skips the re-validation of its vertices;
``lower_entropy`` is decided by consonance; ``sample_credal`` draws all
its exponentials in one call.  Each must give what the old code gave,
types included.  The old code is kept below verbatim as the reference.
"""

import math
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import (
    Contour,
    FiniteOutcomeSpace,
    ProbabilityVector,
    SpaceTooLarge,
    extreme_points,
    focal_chain,
    in_credal_set,
    lower_entropy,
    prop1_check,
    prop2_membership,
    sample_credal,
    upper_table,
)
from consonance._num import all_rational, common_integers, tolerance, zero_like
from consonance.possibility import _max_table, _require_consonant
from consonance.region import Prop1Report, Prop1Violation, _cut_rows, _event_of
from consonance.credal import _prob_table
from consonance.outcome import Event


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the code replaced, kept verbatim as the reference ----------------------


def _old_check_alpha(alpha):
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _old_cut_event(c, alpha):
    return _event_of(_cut_rows(c.levels, c.threshold(alpha)))


def _old_intersection_event(c, table, alpha):
    qualifies = table[::-1] <= c.threshold(alpha)
    full = (1 << c.size) - 1
    acc = np.bitwise_and.reduce(np.flatnonzero(qualifies), initial=full)
    return Event.from_mask(int(acc), c.size)


def _old_prop1_check(c, alphas=(), space=None):
    table = _max_table(c)  # also enforces consonance and the size budget

    distinct = sorted(set(c.values))
    grid = set(alphas) | set(distinct) | {0, 1}
    for a, b in zip(distinct, distinct[1:]):
        grid.add((a + b) / 2)
    sweep = tuple(sorted(grid))

    failures = []
    for alpha in sweep:
        _old_check_alpha(alpha)
        cut = _old_cut_event(c, alpha)
        inter = _old_intersection_event(c, table, alpha)
        if cut.mask != inter.mask:
            failures.append(Prop1Violation(alpha, cut, inter))
    return Prop1Report(not failures, sweep, tuple(failures))


def _old_upper_table(c):
    table = _max_table(c).tolist()
    table[0] = zero_like(c.values)
    if c.ranks is not None:  # map ranks back to the contour's values
        value_of = dict(zip(c.ranks.tolist(), c.values))
        table[1:] = [value_of[k] for k in table[1:]]
    return table


def _old_in_credal_set(p, c, space=None, tol=None):
    if tol is None:
        tol = tolerance(c.values, p.weights)
    w = p.weights
    if all_rational([tol]):
        scaled = common_integers((*c.values, *w))
        if scaled is not None:  # values and weights lie in [0, 1], so every sum fits
            nums, d = np.array(scaled[0], dtype=np.int64), scaled[1]
            up = _max_table(c, nums[: c.size])
            return bool(np.all(_prob_table(nums[c.size :]) - up <= math.floor(tol * d)))
    up = np.array(_old_upper_table(c), dtype=object)  # raises SpaceTooLarge past K = 20
    return bool(np.all(_prob_table(np.array(w, dtype=object), zero_like(w)) <= up + tol))


def _old_prop2_membership(p, c, space=None, tol=None):
    if tol is None:
        tol = tolerance(c.values, p.weights)
    _require_consonant(c)
    levels = c.levels
    for alpha in set(c.values):
        inside = (levels > c.threshold(alpha)).tolist()
        if sum(compress(p.weights, inside)) < 1 - alpha - tol:
            return False
    return True


def _old_lower_entropy(c, space=None):
    best = None
    for p in extreme_points(c):
        h = -sum(float(w) * math.log(float(w)) for w in p.weights if w > 0)
        if best is None or h < best:
            best = h
    return best + 0.0  # turn -0.0 into 0.0


def _old_sample_credal(c, space=None, count=1, seed=0):
    focal = [(list(ev.indices), float(m)) for ev, m in focal_chain(c)]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = np.zeros(c.size)
        for members, mass in focal:
            e = rng.standard_exponential(len(members))
            w[members] += mass * (e / e.sum())  # exactly mass on a singleton
        out.append(ProbabilityVector(tuple(w.tolist())))
    return out


# -- strategies --------------------------------------------------------------


class Half(Fraction):
    """A Fraction subclass, as a caller might pass."""


#: values with equal Fraction and float twins, and zeros of both kinds
_TIES = (Fraction(1, 2), 0.5, Fraction(1, 4), 0.25, Fraction(0), 0.0, Fraction(1, 3), 1 / 3)


@st.composite
def contours(draw, max_k=7):
    """Consonant contours: integer ranks over a denominator the values need
    not reduce to, hand-built rationals (ints, Fractions and a subclass:
    ranks, with the values kept as given), floats, or floats mixed with
    rationals.  Ties and zero levels are likely."""
    kind = draw(st.sampled_from(("ranks", "rational", "float", "mixed")))
    k = draw(st.integers(1, max_k))
    top = draw(st.integers(0, k - 1))
    if kind == "ranks":
        den = draw(st.integers(1, 12))
        ranks = draw(st.lists(st.integers(0, den), min_size=k, max_size=k))
        ranks[top] = den
        return Contour.from_ranks(_space(k), ranks, den)
    if kind == "rational":
        fracs = st.fractions(0, 1, max_denominator=8)
        cell = st.one_of(st.sampled_from((0, 1, Fraction(0), Fraction(1, 2))), fracs, fracs.map(Half))
        one = st.sampled_from((1, Fraction(1), Half(1)))
    elif kind == "float":
        cell, one = st.one_of(st.floats(0, 1), st.sampled_from((0.0, 0.25, 0.5, 1.0))), st.just(1.0)
    else:
        cell = st.one_of(st.sampled_from(_TIES), st.fractions(0, 1, max_denominator=6), st.floats(0, 1))
        one = st.sampled_from((1.0, Fraction(1), 1))
    vals = draw(st.lists(cell, min_size=k, max_size=k))
    vals[top] = draw(one)
    return Contour(_space(k), vals)


@st.composite
def contour_alphas(draw):
    """A contour and caller alphas: fresh ones, the contour's own values and
    midpoints as floats, Fraction/float twins, repeats, the endpoints as
    ints, floats and bools, and now and then one outside [0, 1]."""
    c = draw(contours())
    vals = sorted(set(c.values))
    twins = [float(v) for v in vals] + [float((a + b) / 2) for a, b in zip(vals, vals[1:])]
    pool = st.one_of(
        st.sampled_from(twins),
        st.sampled_from((0, 1, 0.0, 1.0, True, False, Fraction(1, 2), 0.5, 0.05, 0.2)),
        st.floats(0, 1),
        st.fractions(0, 1, max_denominator=30),
    )
    alphas = draw(st.lists(pool, max_size=6))
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from((-0.1, 1.5, Fraction(3, 2), math.nan)))
        alphas.insert(draw(st.integers(0, len(alphas))), bad)
    return c, alphas


_CAPPED_PRIME = 2**61 - 1  # a weight denominator past the 2^40 cap


@st.composite
def points(draw, k):
    """Rational points with small denominators, points whose denominators
    pass the 2^40 cap, and float points."""
    raw = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
    raw[draw(st.integers(0, k - 1))] += 1
    total = sum(raw)
    weights = [Fraction(r, total) for r in raw]
    kind = draw(st.sampled_from(("small", "capped", "float")))
    if kind == "capped" and k > 1:
        shift = Fraction(draw(st.integers(1, 1000)), _CAPPED_PRIME)
        i, j = draw(st.permutations(range(k)))[:2]
        if weights[j] >= shift:
            weights[i] += shift
            weights[j] -= shift
    if kind == "float":
        weights = [float(w) for w in weights]
        weights[-1] = 1.0 - math.fsum(weights[:-1]) if k > 1 else 1.0
        weights = [max(w, 0.0) for w in weights]
    return ProbabilityVector(tuple(weights))


@st.composite
def contour_points(draw):
    """A contour and a point: often one of its vertices (a boundary member),
    otherwise a fresh point of :func:`points`."""
    c = draw(contours(max_k=6))
    if draw(st.booleans()):
        try:
            return c, draw(st.sampled_from(extreme_points(c)))
        except SpaceTooLarge:
            pass
    return c, draw(points(c.size))


tols = st.one_of(
    st.none(),
    st.just(0),
    st.fractions(-1, 1, max_denominator=50),
    st.just(Fraction(1, _CAPPED_PRIME)),
    st.sampled_from((1e-12, 0.01, -0.01)),
)


def _outcome(fn, *args, **kwargs):
    """A result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        return (type(exc), str(exc))


def _types(report):
    return [type(a) for a in report.alphas] if isinstance(report, Prop1Report) else None


# -- prop1_check -------------------------------------------------------------


class TestProp1Sweep:
    @settings(max_examples=300)
    @given(contour_alphas())
    def test_reports_match_the_per_alpha_scan(self, ca):
        c, alphas = ca
        new, old = _outcome(prop1_check, c, alphas), _outcome(_old_prop1_check, c, alphas)
        assert new == old
        assert _types(new) == _types(old)

    def test_a_caller_float_is_kept_over_the_equal_value(self):
        c = Contour.from_ranks(_space(3), (1, 2, 2), 2)
        report = prop1_check(c, (0.5, Fraction(1, 2), 1))
        assert report.alphas == (0, 0.5, Fraction(3, 4), 1)
        assert [type(a) for a in report.alphas] == [int, float, Fraction, int]
        assert report.passed and report == _old_prop1_check(c, (0.5, Fraction(1, 2), 1))

    def test_midpoints_of_int_values_are_floats(self):
        c = Contour(_space(3), (0, 1, Fraction(1, 2)))
        report = prop1_check(c)
        assert report.alphas == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
        assert [type(a) for a in report.alphas] == [int, Fraction, Fraction, Fraction, int]
        c = Contour(_space(2), (0, 1))
        assert [type(a) for a in prop1_check(c).alphas] == [int, float, int]

    def test_a_generator_of_alphas(self):
        c = Contour.from_ranks(_space(3), (1, 3, 2), 3)
        assert prop1_check(c, (a for a in (0.1, 0.9))) == prop1_check(c, (0.1, 0.9))

    @pytest.mark.parametrize("k", [12, 16])
    def test_large_rank_contours(self, k):
        rng = np.random.default_rng(k)
        ranks = rng.integers(0, 101, size=k)
        ranks[3] = 101
        c = Contour.from_ranks(_space(k), ranks, 101)
        alphas = (0.05, 0.2, 0.5)
        new, old = prop1_check(c, alphas), _old_prop1_check(c, alphas)
        assert new.passed and new == old and _types(new) == _types(old)


# -- membership --------------------------------------------------------------


class TestMembership:
    @settings(max_examples=300)
    @given(contour_points(), tols)
    def test_in_credal_set_matches_the_old_check(self, cp, tol):
        c, p = cp
        assert in_credal_set(p, c, tol=tol) is _old_in_credal_set(p, c, tol=tol)

    @settings(max_examples=300)
    @given(contour_points(), tols)
    def test_prop2_matches_the_old_loop(self, cp, tol):
        c, p = cp
        assert prop2_membership(p, c, tol=tol) is _old_prop2_membership(p, c, tol=tol)

    @settings(max_examples=200)
    @given(contour_points(), st.one_of(st.none(), st.just(0), st.fractions(0, 1, max_denominator=50)))
    def test_the_two_characterizations_agree(self, cp, tol):
        c, p = cp
        if not all_rational(c.values) or not all_rational(p.weights):
            return  # float sums round; the exact identity is for exact inputs
        assert in_credal_set(p, c, tol=tol) == prop2_membership(p, c, tol=tol)

    def test_weights_past_the_cap_take_the_fallback(self):
        c = Contour.from_ranks(_space(3), (1, 2, 3), 3)
        eps = Fraction(1, _CAPPED_PRIME)
        inside = ProbabilityVector((Fraction(1, 3) - eps, Fraction(1, 3), Fraction(1, 3) + eps))
        outside = ProbabilityVector((Fraction(1, 3) + eps, Fraction(1, 3), Fraction(1, 3) - eps))
        for p, want in ((inside, True), (outside, False)):
            for tol in (None, 0, eps / 2):
                assert in_credal_set(p, c, tol=tol) is want is _old_in_credal_set(p, c, tol=tol)
                assert prop2_membership(p, c, tol=tol) is want is _old_prop2_membership(p, c, tol=tol)
        assert in_credal_set(outside, c, tol=eps) and prop2_membership(outside, c, tol=eps)


# -- upper_table, vertices, entropy, sampling --------------------------------


class TestUpperTable:
    @given(contours(max_k=8))
    def test_matches_the_dict_lookup(self, c):
        new, old = upper_table(c), _old_upper_table(c)
        assert new == old
        assert [type(v) for v in new] == [type(v) for v in old]


class TestVertices:
    @settings(max_examples=200)
    @given(contours(max_k=8))
    def test_every_vertex_would_pass_validation(self, c):
        """Vertices skip ``__post_init__``; their weights are nonnegative and
        telescope to exactly 1 on exact contours, within FLOAT_TOL otherwise."""
        exact = all_rational(c.values)
        for p in extreme_points(c):
            assert type(p) is ProbabilityVector and type(p.weights) is tuple
            assert len(p.weights) == c.size and all(w >= 0 for w in p.weights)
            if exact:
                assert sum(p.weights) == 1
            assert ProbabilityVector(p.weights) == p


class TestLowerEntropy:
    @settings(max_examples=100)
    @given(contours(max_k=6))
    def test_matches_the_vertex_walk(self, c):
        new, old = lower_entropy(c), _old_lower_entropy(c)
        assert new == old == 0.0
        assert math.copysign(1.0, new) == math.copysign(1.0, old)

    def test_any_k(self):
        k = 17  # distinct levels: 2^16 vertices, past the budget
        c = Contour(_space(k), tuple(Fraction(i, k) for i in range(1, k + 1)))
        with pytest.raises(SpaceTooLarge):
            extreme_points(c)
        assert lower_entropy(c) == 0.0


class TestSampling:
    @settings(max_examples=100)
    @given(contours(max_k=16), st.integers(0, 5), st.integers(0, 2**31))
    def test_bit_identical_to_one_draw_per_set(self, c, count, seed):
        new = sample_credal(c, count=count, seed=seed)
        old = _old_sample_credal(c, count=count, seed=seed)
        bits = [np.array([p.weights for p in s]).tobytes() for s in (new, old)]
        assert bits[0] == bits[1]
        assert [type(w) for p in new for w in p.weights] == [float] * (count * c.size)
