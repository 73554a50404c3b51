"""The 2^K and K! kernels of possibility and credal against their old loops.

``mass_from_belief`` runs the subset transform over one numpy array
(int64 or object), ``in_credal_set`` compares a doubling table of
weight sums with the contour's max-table in one expression, and
``extreme_points`` reads the vertices off the level chain.  Each must
give exactly what the Python loop it replaced gave: the same values of the
same kinds in the same order, the same verdicts on float input, the same
error at the same mask -- except the vertices, which come in another order
and are compared as a multiset.  The loops are kept below verbatim as the
reference.
"""

from fractions import Fraction
from itertools import permutations
from math import lcm, log

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    Event,
    FiniteOutcomeSpace,
    ProbabilityVector,
    extreme_points,
    in_credal_set,
    lower_entropy,
    lower_prob,
    mass_from_belief,
    upper_prob,
    upper_table,
)
from consonance._num import all_rational, common_integers, tolerance, zero_like
from consonance.errors import NegativeMass
from consonance.outcome import complement
from consonance.possibility import MassFunction

from conftest import same_vertices


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


# -- the loops these kernels replaced, kept verbatim as the reference ------


def _old_common_integers(values, cap=1 << 40):
    if not all_rational(values):
        return None
    fracs = [Fraction(v) for v in values]
    den = 1
    for f in fracs:
        den = lcm(den, f.denominator)
        if den > cap:
            return None
    return [int(f * den) for f in fracs], den


def _old_upper_prob(c, event):
    if len(event) == 0:
        return zero_like(c.values)
    return max(c.values[i] for i in event.indices)


def _old_lower_prob(c, event):
    return 1 - _old_upper_prob(c, complement(event))


def _old_mass_from_belief(bel, space):
    k = space.size
    f = [bel(Event.from_mask(m, k)) for m in range(1 << k)]
    tol = tolerance(f)
    if abs(f[0]) > tol:
        raise ValueError("bel(empty) must be 0")
    if abs(f[-1] - 1) > tol:
        raise ValueError("bel(full space) must be 1")

    for j in range(k):
        bit = 1 << j
        for m in range(1 << k):
            if m & bit:
                f[m] = f[m] - f[m ^ bit]

    masses = {}
    for m in range(1, 1 << k):
        val = f[m]
        if val < -tol:
            raise NegativeMass(
                f"mass {val} at mask {m:b}; input is not a belief function"
            )
        if val > tol:
            masses[Event.from_mask(m, k)] = val
    return MassFunction(k, masses)


def _old_prob_table(weights):
    k = len(weights)
    table = [zero_like(weights)] * (1 << k)
    for m in range(1, 1 << k):
        low = (m & -m).bit_length() - 1
        table[m] = table[m & (m - 1)] + weights[low]
    return table


def _old_in_credal_set(p, c, tol=None):
    if tol is None:
        tol = tolerance(c.values, p.weights)
    up = upper_table(c)
    pt = _old_prob_table(p.weights)
    return all(pt[m] <= up[m] + tol for m in range(len(up)))


def _old_extreme_points(c):
    up = upper_table(c)
    seen = set()
    out = []
    for order in permutations(range(c.size)):
        weights = [zero_like(c.values)] * c.size
        raised = [None] * c.size  # the prefix maximum each outcome raises
        prefix = 0
        prev = zero_like(c.values)
        for i in order:
            prefix |= 1 << i
            cur = up[prefix]
            weights[i] = cur - prev
            if cur != prev:
                raised[i] = prev
            prev = cur
        key = tuple(raised)
        if key not in seen:
            seen.add(key)
            out.append(ProbabilityVector(tuple(weights)))
    return out


def _old_lower_entropy(c):
    best = None
    for p in _old_extreme_points(c):
        h = -sum(float(w) * log(float(w)) for w in p.weights if w > 0)
        if best is None or h < best:
            best = h
    return best + 0.0


# -- helpers ---------------------------------------------------------------


def _same(a, b):
    """Equal, of the same kind, element by element."""
    return a == b and [type(x) for x in a] == [type(x) for x in b]


def _outcome(fn, *args):
    """A result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def _same_mass(new, old):
    if isinstance(old, tuple):  # an error
        return new == old
    return (
        list(new.masses) == list(old.masses)
        and _same(list(new.masses.values()), list(old.masses.values()))
    )


def _table_bel(table):
    return lambda ev: table[ev.mask]


# -- strategies ------------------------------------------------------------

rationals = st.fractions(0, 1, max_denominator=30)
floats01 = st.one_of(st.floats(0, 1), st.integers(0, 12).map(lambda i: i / 12))
#: distinct primes whose product is far beyond the 2^40 rank cap
BIG_PRIMES = (1_000_003, 1_000_033, 1_000_037, 1_000_039)


@st.composite
def contours(draw, max_k=5, kinds=("rank", "float", "mixed", "big")):
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1, max_k))
    if kind == "rank":
        den = draw(st.integers(1, 40))
        vals = [Fraction(r, den) for r in draw(st.lists(st.integers(0, den), min_size=k, max_size=k))]
        one = Fraction(1)
    elif kind == "float":
        vals = draw(st.lists(floats01, min_size=k, max_size=k))
        one = 1.0
    elif kind == "mixed":
        vals = draw(st.lists(st.one_of(rationals, floats01), min_size=k, max_size=k))
        one = draw(st.sampled_from([1.0, Fraction(1)]))
    else:  # rationals whose common denominator exceeds the cap: no ranks
        k = max(k, 4)
        vals = [Fraction(draw(st.integers(1, p - 1)), p) for p in BIG_PRIMES[:3]]
        vals += [Fraction(1)] + draw(st.lists(rationals, min_size=k - 4, max_size=k - 4))
        return Contour(_space(k), draw(st.permutations(vals)))
    vals[draw(st.integers(0, k - 1))] = one
    return Contour(_space(k), vals)


@st.composite
def belief_tables(draw, kind):
    """Tables with bel(empty) = 0 and bel(full) = 1 and anything between:
    true belief functions (from random masses) and non-beliefs."""
    k = draw(st.integers(1, 6))
    n = 1 << k
    if draw(st.booleans()):  # a belief function: masses on random focal sets
        focal = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(focal), max_size=len(focal)))
        masses = {}
        for m, r in zip(focal, raw):
            masses[m] = masses.get(m, 0) + Fraction(r, sum(raw))
        table = [sum((v for m, v in masses.items() if m & a == m), Fraction(0)) for a in range(n)]
        if kind == "float":
            table = [float(v) for v in table]
        elif kind == "mixed":
            table = [draw(st.sampled_from([v, float(v)])) for v in table]
        elif kind == "int":
            table = [int(a == n - 1) for a in range(n)]
    else:
        if kind == "rational":
            cell = rationals
        elif kind == "float":
            cell = floats01
        elif kind == "int":
            cell = st.integers(-3, 3)
        else:
            cell = st.one_of(rationals, floats01, st.integers(0, 1))
        table = draw(st.lists(cell, min_size=n, max_size=n))
        table[0], table[-1] = {"rational": (Fraction(0), Fraction(1)), "float": (0.0, 1.0)}.get(kind, (0, 1))
    return k, table


class TestCommonIntegers:
    @given(
        st.lists(
            st.one_of(
                st.integers(-50, 50),
                st.fractions(max_denominator=10**6),
                st.sampled_from([Fraction(1, p) for p in BIG_PRIMES]),
                st.floats(0, 1),
            ),
            max_size=8,
        )
    )
    def test_matches_the_old_loop(self, values):
        assert common_integers(values) == _old_common_integers(values)


class TestUpperLowerProb:
    @given(contours(max_k=6), st.data())
    def test_values_and_kinds_match_the_old_loop(self, c, data):
        mask = data.draw(st.integers(0, (1 << c.size) - 1))
        ev = Event.from_mask(mask, c.size)
        assert _same([upper_prob(c, ev), lower_prob(c, ev)],
                     [_old_upper_prob(c, ev), _old_lower_prob(c, ev)])


class TestMassFromBelief:
    @pytest.mark.parametrize("kind", ["rational", "float", "mixed", "int"])
    @given(data=st.data())
    def test_matches_the_old_loop(self, kind, data):
        k, table = data.draw(belief_tables(kind))
        bel = _table_bel(table)
        new = _outcome(mass_from_belief, bel, _space(k))
        old = _outcome(_old_mass_from_belief, bel, _space(k))
        assert _same_mass(new, old)

    @given(contours(max_k=6))
    def test_contour_beliefs_match_the_old_loop(self, c):
        bel = lambda ev: lower_prob(c, ev)  # noqa: E731
        new = _outcome(mass_from_belief, bel, c.space)
        old = _outcome(_old_mass_from_belief, bel, c.space)
        assert _same_mass(new, old) and not isinstance(new, tuple)

    @given(st.integers(2, 5), st.data())
    def test_over_cap_denominators(self, k, data):
        """Common denominators beyond 2^40 leave int64 for the object path."""
        n = 1 << k
        cells = st.sampled_from([Fraction(i, p) for p in BIG_PRIMES for i in (1, 2)])
        table = data.draw(st.lists(cells, min_size=n, max_size=n))
        table[0], table[-1] = Fraction(0), Fraction(1)
        table[1:4] = (Fraction(1, p) for p in BIG_PRIMES[:3])
        assert common_integers(table) is None
        bel = _table_bel(table)
        assert _same_mass(_outcome(mass_from_belief, bel, _space(k)),
                          _outcome(_old_mass_from_belief, bel, _space(k)))

    @pytest.mark.parametrize(
        "table",
        [
            [0, 3 << 61, 3 << 61, 1],
            [Fraction(0), Fraction(3 << 61), Fraction(3 << 61), Fraction(1)],
            [0, 1 << 62, 1 << 62, 1 - (1 << 62), 1 << 62, 1, 1, 1],
        ],
    )
    def test_first_negative_mass_beyond_int64(self, table):
        """The only negative mass is at a mask whose alternating sum passes
        2^63: int64 would wrap it to a positive mass."""
        k = len(table).bit_length() - 1
        new = _outcome(mass_from_belief, _table_bel(table), _space(k))
        assert new[0] is NegativeMass
        assert _same_mass(new, _outcome(_old_mass_from_belief, _table_bel(table), _space(k)))

    @pytest.mark.parametrize("scale", [1, 3, 7])
    @given(k=st.integers(2, 6), data=st.data())
    def test_integers_that_would_overflow_int64(self, scale, k, data):
        """Values whose numerators times 2^K reach 2^63: the transform must
        take the object path rather than wrap around."""
        n = 1 << k
        big = (1 << 62) // scale
        table = data.draw(st.lists(st.sampled_from([big, -big, Fraction(big, 2), 0]), min_size=n, max_size=n))
        table[0], table[-1] = 0, 1
        if data.draw(st.booleans()):
            table = [Fraction(v) for v in table]
        bel = _table_bel(table)
        new = _outcome(mass_from_belief, bel, _space(k))
        assert _same_mass(new, _outcome(_old_mass_from_belief, bel, _space(k)))

    def test_negative_mass_names_the_smallest_mask(self):
        # masks 3 and 5 both come out negative; the error names 3 = 0b11
        table = [0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1, 1]
        with pytest.raises(NegativeMass, match=r"mass -1/2 at mask 11;"):
            mass_from_belief(_table_bel(table), _space(3))


@st.composite
def points(draw, c):
    """Rational and float points, on and off the credal set."""
    kind = draw(st.sampled_from(["rational", "float", "vertex", "float-vertex", "mixed"]))
    k = c.size
    if kind == "rational":
        raw = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
        return ProbabilityVector(tuple(Fraction(r, sum(raw)) for r in raw))
    if kind == "float":
        raw = draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k))
        return ProbabilityVector(tuple(r / sum(raw) for r in raw))
    vertex = draw(st.sampled_from(extreme_points(c))).weights
    if kind == "vertex":
        return ProbabilityVector(vertex)
    if kind == "float-vertex":  # members on the boundary, rounded
        return ProbabilityVector(tuple(float(w) for w in vertex))
    i = draw(st.integers(0, k - 1))
    return ProbabilityVector(tuple(float(w) if j == i else w for j, w in enumerate(vertex)))


tols = st.one_of(
    st.none(),
    st.just(0),
    st.just(0.0),
    st.fractions(-1, 1, max_denominator=1000),
    st.sampled_from([1e-12, 1e-9, -1e-12, 0.25]),
)


class TestInCredalSet:
    @given(contours(), st.data())
    def test_matches_the_old_loop(self, c, data):
        p = data.draw(points(c))
        tol = data.draw(tols)
        assert in_credal_set(p, c, tol=tol) is _old_in_credal_set(p, c, tol)

    @given(contours(kinds=("rank",)), st.data())
    def test_float_dirichlet_points_on_rank_contours(self, c, data):
        """The sample_credal proposals: float weights, the default tolerance."""
        raw = data.draw(st.lists(st.floats(1e-6, 1), min_size=c.size, max_size=c.size))
        p = ProbabilityVector(tuple(r / sum(raw) for r in raw))
        assert in_credal_set(p, c) is _old_in_credal_set(p, c)

    def test_float_sums_add_in_the_old_order(self):
        """P({y0, y1, y2}) is (0.7 + 0.2) + 0.1 = 0.9999999999999999, its
        upper probability; summed from y0 up it would round to 1.0, and at
        tolerance 0.0 the point would drop out of the credal set."""
        c = Contour(_space(4), (0.4, 0.4, 0.9999999999999999, 1.0))
        p = ProbabilityVector((0.1, 0.2, 0.7, 0.0))
        assert (0.1 + 0.2) + 0.7 == 1.0
        for tol in (0.0, 1e-17, Fraction(0), None):
            assert in_credal_set(p, c, tol=tol) is _old_in_credal_set(p, c, tol) is True

    @given(contours(kinds=("rank",)), st.data())
    def test_rational_points_with_a_rational_tolerance(self, c, data):
        p = data.draw(points(c).filter(lambda p: all_rational(p.weights)))
        tol = data.draw(st.fractions(-1, 1, max_denominator=100))
        assert in_credal_set(p, c, tol=tol) is _old_in_credal_set(p, c, tol)

    @pytest.mark.parametrize("wden", [3, 7, 11])
    def test_large_rank_denominators(self, wden):
        """den * wden beyond int64, and ranks beyond exact floats."""
        den = (1 << 61) + 1
        for ranks in ([den // wden, den], [1, den], [den, den]):
            c = Contour.from_ranks(_space(2), ranks, den)
            for w in ((1, wden - 1), (wden - 1, 1)):
                for p in (ProbabilityVector(tuple(Fraction(x, wden) for x in w)),
                          ProbabilityVector(tuple(x / wden for x in w))):
                    for tol in (None, 0, Fraction(1, 10**19), 1e-12, 0.0):
                        assert in_credal_set(p, c, tol=tol) is _old_in_credal_set(p, c, tol)

    def test_float_levels_round_once(self):
        """rank/den rounds to 0.33333333333332466; the int64 rank rounded to
        a float and then divided rounds one ulp higher, which would admit a
        point with that weight at tolerance 0."""
        den, rank = (1 << 61) + 1, 768614336404544704
        c = Contour.from_ranks(_space(2), [rank, den], den)
        x = 0.3333333333333247
        p = ProbabilityVector((x, 1 - x))
        assert float(Fraction(rank, den)) < x
        assert in_credal_set(p, c, tol=0.0) is _old_in_credal_set(p, c, 0.0) is False


class TestExtremePoints:
    @given(contours())
    def test_same_vertices_and_weights(self, c):
        assert same_vertices(extreme_points(c), _old_extreme_points(c), c.values)

    @given(contours())
    def test_lower_entropy_matches(self, c):
        assert lower_entropy(c) == _old_lower_entropy(c)
