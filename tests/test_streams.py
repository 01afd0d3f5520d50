import numpy as np
import pytest

from sativ.streams import (
    TAG_GROUP,
    _pcg64_seed_words,
    replication_seed,
    substream,
    substreams,
)


def numpy_state(seed, path, i) -> dict:
    """numpy's own PCG64 state at address (seed, *path, i)."""
    entropy = seed if isinstance(seed, int) else list(seed)
    return np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(*path, i))).state


def numpy_words(seed, path, i) -> np.ndarray:
    entropy = seed if isinstance(seed, int) else list(seed)
    return np.random.SeedSequence(entropy, spawn_key=(*path, i)).generate_state(4, np.uint64)


BIG = 2**32
CASES = {
    "int seed": (20260810, (TAG_GROUP,), 40),
    "seed 0": (0, (TAG_GROUP,), 5),
    "replication seed": (replication_seed(20260810, 3), (TAG_GROUP,), 12),
    "replication of replication": (replication_seed(replication_seed(7, 1), 2), (TAG_GROUP,), 6),
    # entropy beyond the four pool words runs numpy's second mixing loop
    "long tuple": ((1, 2, 3, 4, 5, 6, 7), (TAG_GROUP,), 6),
    "two-word seed": (BIG + 5, (TAG_GROUP,), 4),
    "two-word tuple entries": ((BIG * 3 + 1, 0, 2**63), (TAG_GROUP,), 2),
    "empty tuple seed": ((), (TAG_GROUP,), 2),
    "no path": (5, (), 3),
    "long path": (5, (TAG_GROUP, 9, BIG), 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_states_equal_numpy(case):
    seed, path, count = CASES[case]
    got = [rng.bit_generator.state for rng in substreams(seed, *path, count=count)]
    assert got == [numpy_state(seed, path, i) for i in range(count)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_words_equal_generate_state(case):
    seed, path, count = CASES[case]
    expect = np.array([numpy_words(seed, path, i) for i in range(count)])
    assert np.array_equal(_pcg64_seed_words(seed, path, count), expect)


def test_draws_equal_substream():
    # the reused generator draws what a fresh one would, including after
    # a draw that leaves a buffered 32-bit half behind
    for i, rng in enumerate(substreams((4, 2, 1), TAG_GROUP, count=4)):
        ref = substream((4, 2, 1), TAG_GROUP, i)
        assert rng.integers(0, 2**31, 3, dtype=np.int32).tolist() == ref.integers(
            0, 2**31, 3, dtype=np.int32
        ).tolist()
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))


@pytest.mark.parametrize("count", [0, 1])
def test_zero_or_one_id(count):
    got = [rng.bit_generator.state for rng in substreams(9, TAG_GROUP, count=count)]
    assert got == [numpy_state(9, (TAG_GROUP,), i) for i in range(count)]


@pytest.mark.parametrize("count", [-1, 2**32 + 1])
def test_out_of_range_ids_rejected(count):
    with pytest.raises(ValueError):
        list(substreams(9, TAG_GROUP, count=count))
