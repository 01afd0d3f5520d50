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
    "int seed": (20260810, (TAG_GROUP,), range(40)),
    "seed 0": (0, (TAG_GROUP,), range(5)),
    "replication seed": (replication_seed(20260810, 3), (TAG_GROUP,), range(12)),
    "replication of replication": (
        replication_seed(replication_seed(7, 1), 2), (TAG_GROUP,), range(6)
    ),
    # entropy beyond the four pool words runs numpy's second mixing loop
    "long tuple": ((1, 2, 3, 4, 5, 6, 7), (TAG_GROUP,), range(6)),
    "two-word seed": (BIG + 5, (TAG_GROUP,), range(4)),
    "two-word tuple entries": ((BIG * 3 + 1, 0, 2**63), (TAG_GROUP,), [0, 1]),
    "two-word ids": (11, (TAG_GROUP,), [0, BIG - 1, BIG, BIG + 9, 2**63, 2**64 - 1]),
    "sparse ids": (11, (TAG_GROUP,), [3, 1000, 17, 2**31 + 1, 5]),
    "empty tuple seed": ((), (TAG_GROUP,), [0, 1]),
    "no path": (5, (), [0, 1, 2]),
    "long path": (5, (TAG_GROUP, 9, BIG), [0, 1]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_states_equal_numpy(case):
    seed, path, ids = CASES[case]
    got = [rng.bit_generator.state for rng in substreams(seed, *path, ids=ids)]
    assert got == [numpy_state(seed, path, i) for i in ids]


@pytest.mark.parametrize("case", sorted(CASES))
def test_words_equal_generate_state(case):
    seed, path, ids = CASES[case]
    expect = np.array([numpy_words(seed, path, i) for i in ids])
    assert np.array_equal(_pcg64_seed_words(seed, path, ids), expect)


def test_ids_as_arrays():
    ids = [0, 5, 2**40]
    for as_given in (np.array(ids, dtype=np.int64), np.array(ids, dtype=np.uint64), tuple(ids)):
        got = [rng.bit_generator.state for rng in substreams(3, TAG_GROUP, ids=as_given)]
        assert got == [numpy_state(3, (TAG_GROUP,), i) for i in ids]


def test_draws_equal_substream():
    # the reused generator draws what a fresh one would, including after
    # a draw that leaves a buffered 32-bit half behind
    ids = range(4)
    for i, rng in zip(ids, substreams((4, 2, 1), TAG_GROUP, ids=ids)):
        ref = substream((4, 2, 1), TAG_GROUP, i)
        assert rng.integers(0, 2**31, 3, dtype=np.int32).tolist() == ref.integers(
            0, 2**31, 3, dtype=np.int32
        ).tolist()
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))


@pytest.mark.parametrize("ids", [[], [7], [2**64 - 1]])
def test_zero_or_one_id(ids):
    got = [rng.bit_generator.state for rng in substreams(9, TAG_GROUP, ids=ids)]
    assert got == [numpy_state(9, (TAG_GROUP,), i) for i in ids]


@pytest.mark.parametrize("ids", [[1, -1], np.array([0, -2]), [0, 2**64]])
def test_out_of_range_ids_rejected(ids):
    with pytest.raises((ValueError, OverflowError)):
        list(substreams(9, TAG_GROUP, ids=ids))
