"""Block seeding of count-table cells: numpy's own trial states, computed a
block at a time.

Trial t of a cell with master seed s draws from
``default_rng(SeedSequence((s, t)))``.  Count-table cells compute the PCG64
``(state, inc)`` of a whole block at once and re-seed one generator per
trial, so the states must equal numpy's for every seed width (1, 2 and 5
uint32 words), for numpy integer seeds, and across the word boundaries of
t.  Each block checks its first state against numpy; a mutated constant
must make that guard raise.
"""

import warnings

import numpy as np
import pytest

from consonance import ProcessSpec, run_coverage
from consonance import harness

CAT3 = ProcessSpec("iid-categorical", weights=(0.2, 0.3, 0.5))
URN3 = ProcessSpec("polya-urn", counts=(2, 3, 5))

SEEDS = [0, 2**32 - 1, 2**32, 2**62 - 1, 2**130, np.int64(5), np.int64(2**62 - 1)]


def numpy_states(seed, start, stop):
    states = []
    for t in range(start, stop):
        st = np.random.PCG64(np.random.SeedSequence((int(seed), t))).state["state"]
        states.append((st["state"], st["inc"]))
    return states


def block_states(seed, start, stop):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy scalar overflow anywhere
        return harness._pcg64_states(seed, start, stop)


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_first_blocks_match_numpy(seed):
    stop = harness._BLOCK + 3
    assert block_states(seed, 0, stop) == numpy_states(seed, 0, stop)
    assert block_states(seed, harness._BLOCK, stop) == numpy_states(seed, harness._BLOCK, stop)


@pytest.mark.parametrize("seed", [0, 2**62 - 1, 2**130], ids=str)
@pytest.mark.parametrize("start", [2**32 - harness._BLOCK, 2**32], ids=["below-2**32", "at-2**32"])
def test_blocks_at_the_word_boundary_of_t(seed, start):
    """t = 2**32 is the first trial index of two uint32 words."""
    stop = start + harness._BLOCK
    assert block_states(seed, start, stop) == numpy_states(seed, start, stop)


def test_a_range_across_the_word_boundary():
    start, stop = 2**32 - 3, 2**32 + 4
    assert block_states(7, start, stop) == numpy_states(7, start, stop)


def test_one_trial_and_the_block_edges():
    for start, stop in [(0, 1), (harness._BLOCK - 1, harness._BLOCK + 1), (10**6, 10**6 + 1)]:
        assert block_states(11, start, stop) == numpy_states(11, start, stop)


def test_negative_seed_raises_value_error():
    with pytest.raises(ValueError):
        harness._pcg64_states(-1, 0, 4)
    with pytest.raises(ValueError):
        run_coverage(CAT3, 5, 0.2, None, 10, -1)


@pytest.mark.parametrize("spec", [CAT3, URN3], ids=["cat3", "urn3"])
def test_reseeded_generator_draws_as_a_fresh_one(spec):
    gen = np.random.Generator(np.random.PCG64(0))
    for t, (state, inc) in enumerate(harness._pcg64_states(2**61 + 9, 0, 50)):
        gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        fresh = harness._trial_rng(2**61 + 9, t)
        assert np.array_equal(spec.draw(gen, 21), spec.draw(fresh, 21))
        assert gen.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize(
    "name, value",
    [
        ("_MIX_MULT_L", 0xCA01F9DF),
        ("_MIX_MULT_R", 0x4973F717),
        ("_MULT_A", 0x931E8877),
        ("_INIT_B", 0x8B51F9DF),
        ("_PCG_MULT", 0x2360ED051FC65DA44385DF649FCCF647),
    ],
)
def test_a_mutated_constant_trips_the_block_guard(monkeypatch, name, value):
    monkeypatch.setattr(harness, name, value)
    with pytest.raises(AssertionError, match="block seeding"):
        run_coverage(CAT3, 20, 0.2, None, 50, 7)


def test_every_block_is_guarded(monkeypatch):
    """States wrong from the second block on are caught at that block."""
    real = harness._pcg64_states

    def off_after_first_block(seed, start, stop):
        states = real(seed, start, stop)
        return states if start < harness._BLOCK else [(s ^ 1, i) for s, i in states]

    monkeypatch.setattr(harness, "_pcg64_states", off_after_first_block)
    with pytest.raises(AssertionError, match=f"trial {harness._BLOCK}"):
        run_coverage(CAT3, 5, 0.2, None, harness._BLOCK + 10, 3)
