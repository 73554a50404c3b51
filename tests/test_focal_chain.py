"""The focal chain of a consonant contour, and the credal sampler built on it.

``focal_chain`` reads the Moebius masses of the contour's lower probability
off its level chain; on every contour small enough to invert it must give
what ``mass_from_belief`` gives.  ``sample_credal`` spreads each focal mass
over its focal set, so it needs no 2^K table and no vertex walk: it must
return members at any K, put no weight where the contour is 0, repeat per
seed, and average to the pignistic transform.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consonance import (
    Contour,
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    NonconformityMeasure,
    adjust_double_prime,
    focal_chain,
    in_credal_set,
    lower_prob,
    mass_from_belief,
    prop2_membership,
    sample_credal,
    transduce_grid,
)
from consonance._num import FLOAT_TOL, fmt_scalar, parse_scalar
from consonance.cli import main
from consonance.errors import NonConsonantContour


def _space(k):
    return FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k)))


#: values with equal Fraction and float twins, and near misses
_TIES = (Fraction(1, 2), 0.5, Fraction(1, 4), 0.25, Fraction(1, 3), 1 / 3, Fraction(0), 0.0)


@st.composite
def contours(draw, max_k):
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


def _transduced(k, seed):
    """The contour of 200 draws from a random pmf on k labels."""
    rng = np.random.default_rng(seed)
    space = _space(k)
    bag = tuple(space.labels[i] for i in rng.choice(k, size=200, p=rng.dirichlet(np.ones(k))))
    return transduce_grid(bag, space, NonconformityMeasure.one_minus_emp()).contour


def _grid_contour():
    """Double-prime-adjusted mean-abs contour on 202 grid points."""
    data = tuple(np.random.default_rng(4).normal(size=30).tolist())
    space = GridOutcomeSpace(-4.0, 4.0, 202)
    return adjust_double_prime(transduce_grid(data, space, NonconformityMeasure.mean_abs()).contour)


class TestFocalChain:
    @settings(max_examples=150)
    @given(contours(max_k=12))
    def test_matches_the_moebius_inversion(self, c):
        chain = focal_chain(c)
        moebius = mass_from_belief(lambda ev: lower_prob(c, ev), c.space).masses
        events = [ev for ev, _ in chain]
        assert all(a.issubset(b) and a != b for a, b in zip(events, events[1:]))  # innermost first
        if c.ranks is not None:
            assert dict(chain) == moebius
            assert [type(m) for _, m in chain] == [type(moebius[ev]) for ev in events]
        else:
            got = dict(chain)
            for ev in got.keys() | moebius.keys():
                assert abs(got.get(ev, 0) - moebius.get(ev, 0)) <= FLOAT_TOL

    def test_table1_masses(self, abc_contour):
        assert [(ev.indices, m) for ev, m in focal_chain(abc_contour)] == [
            ((2,), Fraction(50, 101)),
            ((1, 2), Fraction(30, 101)),
            ((0, 1, 2), Fraction(21, 101)),
        ]

    def test_needs_consonance(self):
        with pytest.raises(NonConsonantContour):
            focal_chain(Contour(_space(2), (Fraction(1, 2), Fraction(1, 3))))


@st.composite
def near_tolerance_contours(draw):
    """Float and mixed contours whose levels, or gaps between levels, sit
    near ``FLOAT_TOL``."""
    near = st.one_of(
        st.floats(0, 4 * FLOAT_TOL),
        st.sampled_from([FLOAT_TOL / 2, FLOAT_TOL, 2 * FLOAT_TOL]),
        st.tuples(st.sampled_from([0.5, 1 / 3, Fraction(1, 3)]), st.floats(-4 * FLOAT_TOL, 4 * FLOAT_TOL))
        .map(sum),
        st.sampled_from([Fraction(1, 2), Fraction(1, 3)]),
    )
    vals = draw(st.lists(near, min_size=2, max_size=8))
    vals[draw(st.integers(0, len(vals) - 1))] = 1.0
    return Contour.from_json(Contour(_space(len(vals)), vals).to_json())


def _cli_payload(c, action):
    """``consonance --json possibility <action>`` on the contour: (exit code, payload)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "contour.json")
        with open(path, "w") as fh:
            json.dump(c.to_json(), fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = main(["--json", "possibility", action, "--contour", path])
    return code, json.loads(sink.getvalue())


class TestCliMassAndFocal:
    """``possibility mass|focal`` read the chain, and print what the 2^K
    Moebius inversion printed before: the same text on rank contours,
    masses within ``FLOAT_TOL`` otherwise (a mass the inversion rounds
    into ``FLOAT_TOL`` of 0 and drops is still printed)."""

    @settings(max_examples=100)
    @given(contours(max_k=12))
    def test_mass_rows_match_the_moebius_inversion(self, c):
        c = Contour.from_json(c.to_json())  # as the CLI reads it back
        moebius = mass_from_belief(lambda ev: lower_prob(c, ev), c.space).masses
        rows = [
            {"event": ev.to_labels(c.space), "mass": fmt_scalar(m)}
            for ev, m in sorted(moebius.items(), key=lambda kv: (len(kv[0]), kv[0].indices))
        ]
        code, payload = _cli_payload(c, "mass")
        assert code == 0
        if c.ranks is not None:
            assert payload["mass"] == rows
        else:
            got = {tuple(r["event"]): parse_scalar(r["mass"]) for r in payload["mass"]}
            want = {tuple(r["event"]): parse_scalar(r["mass"]) for r in rows}
            assert want.keys() <= got.keys()
            for ev in got:
                assert abs(got[ev] - want.get(ev, 0)) <= FLOAT_TOL

    @settings(max_examples=100)
    @given(near_tolerance_contours())
    @example(Contour(_space(3), (1.0, 2e-12, 1e-12)))  # inversion dropped 2e-12 in all
    def test_levels_near_the_float_tolerance(self, c):
        """Masses at or under ``FLOAT_TOL`` are real masses: the CLI prints
        all of them, and ``mass_from_belief`` drops only after its sum check."""
        code, payload = _cli_payload(c, "mass")
        assert code == 0
        masses = [parse_scalar(r["mass"]) for r in payload["mass"]]
        assert all(m > 0 for m in masses) and abs(sum(masses) - 1) <= FLOAT_TOL
        chain = dict(focal_chain(c))
        moebius = mass_from_belief(lambda ev: lower_prob(c, ev), c.space).masses
        assert moebius.keys() <= chain.keys()
        for ev, m in chain.items():
            assert abs(moebius.get(ev, 0) - m) <= FLOAT_TOL

    @pytest.mark.parametrize("k", [21, 41])
    def test_grid_contours_past_the_subset_table(self, k):
        c = adjust_double_prime(
            transduce_grid(
                tuple(np.random.default_rng(k).normal(size=15).tolist()),
                GridOutcomeSpace(-3.0, 3.0, k),
                NonconformityMeasure.mean_abs(),
            ).contour
        )
        code, payload = _cli_payload(c, "mass")
        assert code == 0
        assert sum(parse_scalar(r["mass"]) for r in payload["mass"]) == 1
        code, payload = _cli_payload(c, "focal")
        assert code == 0 and payload["nested"] is True
        assert payload["elements"][-1] == [i for i, v in enumerate(c.values) if v > 0]


class TestChainSampler:
    @settings(max_examples=80)
    @given(contours(max_k=8), st.integers(0, 2**31))
    def test_draws_are_members_off_the_zero_set_and_repeat(self, c, seed):
        draws = sample_credal(c, count=3, seed=seed)
        for p in draws:
            assert in_credal_set(p, c)
            assert all(w == 0 for w, v in zip(p.weights, c.values) if v == 0)
        assert sample_credal(c, count=3, seed=seed) == draws

    def test_mean_is_the_pignistic_transform(self, abc_contour):
        draws = np.array([p.as_floats() for p in sample_credal(abc_contour, count=20_000, seed=11)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        betp = np.array([7, 22, 72]) / 101
        assert np.all(np.abs(draws.mean(axis=0) - betp) <= 4 * se)

    @pytest.mark.parametrize("k", [9, 12])
    def test_transduced_contours_past_the_vertex_budget(self, k):
        for seed in range(3):
            c = _transduced(k, seed)
            draws = sample_credal(c, count=4, seed=seed)
            assert len(draws) == 4
            assert all(in_credal_set(p, c) for p in draws)

    def test_grid_contour_without_a_subset_table(self):
        c = _grid_contour()
        assert c.size == 202
        for p in sample_credal(c, count=5, seed=2):
            assert abs(sum(p.weights) - 1) <= FLOAT_TOL
            assert prop2_membership(p, c)

    def test_cli_samples_a_grid_contour(self, tmp_path, capsys):
        path = tmp_path / "grid_contour.json"
        path.write_text(json.dumps(_grid_contour().to_json()))
        code = main(["--json", "credal", "sample", "--contour", str(path), "--count", "2", "--seed", "1"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["samples"]
        assert [len(r) for r in rows] == [202, 202]
