"""Count-table coverage cells, checked against the per-trial path and exactly.

Label cells under the empirical-pmf measure are decided a block of trials
at a time over one rank matrix, by two region constructions that share no
code: the strict cut and the necessity-side prefix.  The tests below pin:

- the label draw: numpy's own ``Generator.choice`` construction, index for
  index and state for state;
- hit parity with the per-trial path as it stood before batching, kept
  here as the oracle;
- cut/prefix agreement on rank, float and mixed contours, one row and
  many;
- that breaking either construction makes ``run_coverage`` raise;
- bounded memory for long cells;
- exact coverage of the label families, enumerated in rationals, against
  the Monte-Carlo hits.
"""

import inspect
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial, floor, prod, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from consonance import (
    Contour,
    FiniteOutcomeSpace,
    NonconformityMeasure,
    ProcessSpec,
    cpr,
    ihdr_cut,
    prop1_check,
    run_coverage,
)
from consonance import harness, region
from consonance.cli import main

CAT3 = ProcessSpec("iid-categorical", weights=(0.2, 0.3, 0.5))
CAT12 = ProcessSpec("iid-categorical", weights=(1 / 12,) * 12)
ZERO3 = ProcessSpec("iid-categorical", weights=(0.5, 0.5, 0.0))
URN3 = ProcessSpec("polya-urn", counts=(2, 3, 5))
GAUSS = ProcessSpec("iid-gaussian", mu=0.0, sigma=1.0)
LABEL_SPECS = {"cat3": CAT3, "cat12": CAT12, "zero3": ZERO3, "urn3": URN3}


def _trial_rng(seed, t):
    return np.random.default_rng(np.random.SeedSequence((seed, t)))


# --------------------------------------------------------------------------
# the per-trial label path before batching: the oracle
# --------------------------------------------------------------------------

def _choice_draw(spec, rng, size):
    if spec.family == "iid-categorical":
        return rng.choice(len(spec.weights), size=size, p=np.array(spec.weights, float))
    theta = rng.dirichlet(np.array(spec.counts, float))
    return rng.choice(len(spec.counts), size=size, p=theta)


def _dict_ranks(data, space):
    counts = Counter(data)
    ranks = []
    for label in space.labels:
        aug = dict(counts)
        aug[label] = aug.get(label, 0) + 1
        ranks.append(sum(v for v in aug.values() if v <= aug[label]))
    return np.array(ranks, dtype=np.int64)


def _oracle_hits(spec, n, alpha, trials, seed):
    space = spec.label_space()
    hits = 0
    for t in range(trials):
        seq = _choice_draw(spec, _trial_rng(seed, t), n + 1)
        data = tuple(space.labels[i] for i in seq[:n])
        held = int(seq[n])
        ranks = _dict_ranks(data, space) if n else np.ones(space.size, dtype=np.int64)
        contour = Contour.from_ranks(space, ranks, n + 1, provenance="raw")
        hits += bool(contour.levels[held] > contour.threshold(alpha))
    return hits


class TestDraw:
    @pytest.mark.parametrize("name", sorted(LABEL_SPECS))
    def test_equals_generator_choice_index_and_state(self, name):
        spec = LABEL_SPECS[name]
        for t in range(2000):
            ours, theirs = _trial_rng(99, t), _trial_rng(99, t)
            size = 1 + t % 60
            got = spec.draw(ours, size)
            want = _choice_draw(spec, theirs, size)
            assert np.array_equal(got, want), (name, t)
            assert ours.bit_generator.state == theirs.bit_generator.state, (name, t)

    def test_zero_weight_label_is_never_drawn(self):
        draws = np.concatenate([ZERO3.draw(_trial_rng(3, t), 50) for t in range(200)])
        assert 2 not in set(draws.tolist())


class TestHitParity:
    @pytest.mark.parametrize("name", sorted(LABEL_SPECS))
    def test_every_cell_matches_the_per_trial_oracle(self, name):
        spec = LABEL_SPECS[name]
        for n in (0, 1, 5, 20, 100):
            for alpha in (0.0, 0.05, 0.2, 0.5):
                report = run_coverage(spec, n, alpha, None, 200, 201)
                assert report.path == "count-table"
                assert report.hits == _oracle_hits(spec, n, alpha, 200, 201), (name, n, alpha)

    @pytest.mark.parametrize("trials", [harness._BLOCK + 37, 2 * harness._BLOCK + 5])
    def test_trial_counts_off_the_block_size(self, trials):
        report = run_coverage(CAT3, 20, 0.2, None, trials, 5)
        assert report.trials == trials
        assert report.hits == _oracle_hits(CAT3, 20, 0.2, trials, 5)

    def test_other_cells_stay_per_trial(self):
        emp = NonconformityMeasure.from_function(lambda rest, y: -list(rest).count(y))
        assert run_coverage(CAT3, 5, 0.2, emp, 20, 1).path == "per-trial"
        assert run_coverage(GAUSS, 5, 0.2, None, 20, 1).path == "per-trial"

    def test_cli_json_reports_the_path(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(CAT3.to_json()))
        argv = ["--json", "coverage", "--spec", str(spec), "--n", "20",
                "--alpha", "0.2", "--trials", "300", "--seed", "7"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == "count-table" and payload["hits"] == 271


# --------------------------------------------------------------------------
# the two constructions agree
# --------------------------------------------------------------------------

_TIES = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1, 3), Fraction(1)]
_FLOATS = [0.0, 0.2, 0.25, 0.5, 0.30000000000000004, 1e-17, 1 - 2**-53, 1.0]


@st.composite
def contours(draw, max_k=8):
    """Consonant rank, float and mixed contours, with ties and zero levels."""
    k = draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(["rank", "float", "mixed"]))
    fractions = st.one_of(st.sampled_from(_TIES), st.fractions(0, 1, max_denominator=9))
    floats = st.one_of(st.sampled_from(_FLOATS), st.floats(0, 1))
    pool = {"rank": fractions, "float": floats, "mixed": st.one_of(fractions, floats)}[kind]
    vals = draw(st.lists(pool, min_size=k, max_size=k))
    vals[draw(st.integers(0, k - 1))] = 1.0 if kind == "float" else Fraction(1)
    return Contour(FiniteOutcomeSpace(tuple(f"y{i}" for i in range(k))), vals)


@given(contours())
def test_necessity_prefix_equals_the_cut_over_the_prop1_sweep(c):
    for alpha in prop1_check(c).alphas:
        assert ihdr_cut(c, alpha).event == cpr(c, alpha).event, (c.values, alpha)


@given(
    st.integers(1, 30).flatmap(
        lambda den: st.tuples(
            st.just(den),
            st.lists(st.lists(st.integers(0, den), min_size=4, max_size=4),
                     min_size=1, max_size=40),
            st.integers(0, den),
        )
    )
)
def test_rows_agree_on_every_rank_matrix(case):
    """The batched prefix, all rows through one searchsorted, equals the cut."""
    den, rows, t = case
    levels = np.array(rows, dtype=np.int64)
    assert np.array_equal(region._prefix_rows(levels, t), region._cut_rows(levels, t))


def test_prefix_at_the_largest_rank_denominator():
    """Row shift and query stay inside int64 for a denominator near 2^62."""
    den = (1 << 62) - 1
    c = Contour.from_ranks(FiniteOutcomeSpace(("a", "b", "c")), [den, den - 1, 5], den)
    for alpha in (0, 1, 0.999999, Fraction(den - 1, den), Fraction(5, den), Fraction(4, den)):
        assert ihdr_cut(c, alpha).event == cpr(c, alpha).event, alpha


def _mutant(module, name, old, new):
    """``module.name`` recompiled with the one occurrence of ``old`` replaced."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


class TestMutations:
    """Breaking either construction makes the harness raise."""

    CELLS = [(CAT3, 20, 0.2, 200), (GAUSS, 20, 0.2, 60)]
    MUTATIONS = [
        ("_cut_rows", "return levels > t", "return levels >= t"),
        ("_prefix_rows", ".searchsorted(shift - t)", ".searchsorted(shift - t) + 1"),
        ("_prefix_rows", ".searchsorted(shift - t)", ".searchsorted(shift - t) - 1"),
    ]

    @pytest.mark.parametrize("name, old, new", MUTATIONS)
    @pytest.mark.parametrize("spec, n, alpha, trials", CELLS, ids=["label", "numeric"])
    def test_mutant_raises(self, monkeypatch, spec, n, alpha, trials, name, old, new):
        mutant = _mutant(region, name, old, new)
        for module in (region, harness):  # the harness holds its own binding
            monkeypatch.setattr(module, name, mutant)
        with pytest.raises(AssertionError):
            run_coverage(spec, n, alpha, None, trials, 7)

    def test_unmutated_cells_run(self):
        for spec, n, alpha, trials in self.CELLS:
            assert run_coverage(spec, n, alpha, None, trials, 7).trials == trials


def test_memory_does_not_grow_with_the_trial_count():
    """A 20,000-trial cell held whole would need a 23 MB rank broadcast."""
    tracemalloc.start()
    try:
        report = run_coverage(CAT12, 100, 0.2, None, 20_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.path == "count-table" and report.trials == 20_000
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --------------------------------------------------------------------------
# exact coverage
# --------------------------------------------------------------------------

def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rising(a, m):
    return prod(range(a, a + m), start=1)


def _bag_probability(spec, bag):
    """P(counts of n+1 draws = bag): multinomial, or Dirichlet-multinomial for the urn."""
    size = sum(bag)
    ways = factorial(size) // prod(factorial(c) for c in bag)
    if spec.family == "iid-categorical":
        return ways * prod(Fraction(str(w)) ** c for w, c in zip(spec.weights, bag))
    a = spec.counts
    return Fraction(ways * prod(_rising(ai, c) for ai, c in zip(a, bag)), _rising(sum(a), size))


def exact_coverage(spec, n, alpha) -> Fraction:
    """``sum_c' P(c') sum_l c'(l)/(n+1) [rank_c'(l) > floor(alpha (n+1))]``.

    The held-out point is a uniform pick from the n+1 exchangeable draws;
    leaving out label ``l`` and adding it back as the candidate gives the
    bag ``c'`` again, so its rank is ``sum_m c'(m) [c'(m) <= c'(l)]``.
    """
    k, size = len(spec.weights or spec.counts), n + 1
    thr = floor(Fraction(alpha) * size)
    total = Fraction(0)
    for bag in _compositions(size, k):
        covered = sum(c for c in bag if sum(m for m in bag if m <= c) > thr)
        total += _bag_probability(spec, bag) * Fraction(covered, size)
    return total


def test_bag_probabilities_sum_to_one():
    for spec in (CAT3, URN3):
        assert sum(_bag_probability(spec, b) for b in _compositions(6, 3)) == 1


@pytest.mark.parametrize("spec", [CAT3, URN3], ids=["cat3", "urn3"])
@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5])
def test_exact_coverage_meets_the_guarantee_and_the_hits(spec, n, alpha):
    exact = exact_coverage(spec, n, alpha)
    assert exact >= 1 - Fraction(alpha)
    trials = 20_000
    hits = run_coverage(spec, n, alpha, None, trials, 11).hits
    p = float(exact)
    sd = sqrt(trials * p * (1 - p))
    if sd == 0:
        assert hits == trials * p
    else:
        assert abs(hits - trials * p) / sd <= 4, (hits, trials * p)
