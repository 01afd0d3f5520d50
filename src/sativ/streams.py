"""Splittable random streams.

Every random draw in the package flows through a stream addressed by a
(seed, *path) tuple of integers, so any group's draw is reproducible from
the root seed and its index, independent of evaluation order or the number
of worker processes.  Built on ``numpy.random.SeedSequence`` spawn keys.

``substreams`` gives the streams of the addresses ``(seed, *path, i)`` for
i = 0..count-1, one per group index of a dataset.  It derives them in one
vectorized pass instead of one ``SeedSequence`` and ``PCG64`` per address:
numpy's ``SeedSequence`` entropy mixing and ``generate_state(4, uint64)``,
run on a ``uint32`` column with one entry per index (each index is one
word), then ``PCG64``'s seeding of its 128-bit state from those four words.
The words before the index are the same for every address, so they are
mixed once.  The tests pin each state to
``np.random.PCG64(np.random.SeedSequence(...)).state``.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Reserved path tags.  Streams with different leading tags never collide.
TAG_SATURATIONS = 0
TAG_GROUP = 1
TAG_REPLICATION = 2
TAG_ORACLE = 3

Seed = int | tuple[int, ...]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def substream(seed: Seed, *path: int) -> np.random.Generator:
    """Return the generator at address ``(seed, *path)``.

    The same address always yields the same stream; distinct addresses
    yield statistically independent streams.
    """
    entropy = seed if isinstance(seed, int) else list(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=path))


def substreams(seed: Seed, *path: int, count: int) -> Iterator[np.random.Generator]:
    """An iterator over the generators at ``(seed, *path, i)`` for i = 0..count-1.

    Each gives the stream ``substream(seed, *path, i)`` gives.  One
    generator is reused, its state set per address, so a generator from
    the iterator is valid only until the next one is requested.  ``count``
    must lie in [0, 2**32], so that each index is one uint32 word.
    """
    return _reseeded(_pcg64_seed_words(seed, path, count))


def _reseeded(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the PCG64 seeding of each row of ``words``."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    state = bit_generator.state
    # one row of Python ints at a time: a list of all rows would cost ~230 bytes per id
    for s_hi, s_lo, i_hi, i_lo in map(np.ndarray.tolist, words):
        # PCG64's seeding: inc = (initseq << 1) | 1, then two LCG steps
        # from 0 with the initial state added after the first
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state["state"] = {
            "state": ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128,
            "inc": inc,
        }
        bit_generator.state = state
        yield rng


def replication_seed(seed: Seed, rep: int) -> tuple[int, ...]:
    """Derive the root seed for Monte Carlo replication ``rep``."""
    base = (seed,) if isinstance(seed, int) else tuple(seed)
    return base + (TAG_REPLICATION, rep)


def _int_words(x: int) -> list[int]:
    """An integer as little-endian uint32 words, as SeedSequence splits it."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hashmix(value, const: int):
    """SeedSequence's hashmix of uint32 words, Python ints or a uint32 array.

    Returns the mixed words and the next hash constant.
    """
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, Python ints or uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _pcg64_seed_words(seed: Seed, path: tuple[int, ...], count: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(*path, i)).generate_state(4, np.uint64)`` for
    i = 0..count-1.

    Returns a (count, 4) uint64 array: PCG64's initial state (high, low
    word) and its stream selector (high, low word).
    """
    if not 0 <= count <= 2**32:
        raise ValueError(f"count must lie in [0, 2**32], got {count}")

    # The assembled entropy is the seed's words, zero-padded to the pool
    # size because the spawn key is not empty, then the path's words, then
    # the index's one word.  Everything before the index is mixed once,
    # in Python ints: the pool words and the running hash constant.
    run = [w for x in ([seed] if isinstance(seed, int) else seed) for w in _int_words(x)]
    prefix = run + [0] * (_POOL_SIZE - len(run)) + [w for x in path for w in _int_words(x)]
    const = _INIT_A
    pool = []
    for word in prefix[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for word in prefix[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[i_dst] = _mix(pool[i_dst], value)

    index = np.arange(count, dtype=np.uint32)
    mixed = [np.full(count, p, dtype=np.uint32) for p in pool]
    for i_dst in range(_POOL_SIZE):
        value, const = _hashmix(index, const)
        mixed[i_dst] = _mix(mixed[i_dst], value)
    # generate_state: eight uint32 words cycling over the pool, read
    # as four little-endian uint64 words
    state = np.empty((count, 8), dtype=np.uint32)
    c = _INIT_B
    for i_dst in range(8):
        value = mixed[i_dst % _POOL_SIZE] ^ c
        c = c * _MULT_B & _MASK32
        value *= c
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8")
