"""Deterministic seed derivation.

All randomized procedures in this package draw from ``numpy.random.Generator``
instances seeded through :func:`mix`, a SplitMix64 fold over a root seed and a
tuple of integer stream tags.  Deriving every stream independently from
``(master_seed, tags...)`` keeps runs reproducible bit for bit and makes the
result independent of the order in which trials or queries are processed.

A loop that draws once from each of many streams reseeds one generator in
place through :func:`generators`: each stream starts in the state
:func:`generator` starts in, bit for bit, without building a generator per
stream.  :func:`mix_each` derives such a loop's seeds in one vectorised fold.
:func:`choice_sets` draws a ``choice`` without replacement from each of many
streams at once, reading the streams' raw words.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for a 64-bit state."""
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(seed: int, *streams: int) -> int:
    """Fold ``streams`` into ``seed``, returning a 64-bit sub-seed.

    ``mix(s)`` whitens a bare seed; ``mix(s, a, b)`` derives a stream that is
    stable under adding unrelated streams elsewhere.  Negative inputs are
    reduced modulo 2**64.
    """
    state = splitmix64(seed & _MASK64)
    for tag in streams:
        state = splitmix64(state ^ (tag & _MASK64))
    return state


def generator(seed: int, *streams: int) -> np.random.Generator:
    """A ``numpy`` generator for the derived stream ``mix(seed, *streams)``."""
    return np.random.default_rng(mix(seed, *streams))


# The vectorised steps below hold every operand in an array or a numpy
# scalar of the array's type: on numpy 1.x a uint64 scalar beside a Python
# int promotes to float64.  They run on 1-d arrays, which wrap silently where
# numpy scalars would warn.
_U64_GAMMA = np.uint64(_GAMMA)
_U64_MULT1, _U64_MULT2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U64_27, _U64_30, _U64_31, _U64_32 = np.uint64(27), np.uint64(30), np.uint64(31), np.uint64(32)


def words(values: int | Sequence[int] | np.ndarray) -> np.ndarray:
    """Integers reduced modulo 2**64, as a ``uint64`` array of their shape."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)
    # Through Python ints: numpy reads a list mixing ints past 2**63 with
    # negative ones, or with small ones, as float64.
    array = np.asarray(values, dtype=object)
    flat = [operator.index(v) & _MASK64 for v in array.ravel().tolist()]
    return np.array(flat, dtype=np.uint64).reshape(array.shape)


def _splitmix64_words(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of each word of a 1-d ``uint64`` array."""
    z = x + _U64_GAMMA
    z = (z ^ (z >> _U64_30)) * _U64_MULT1
    z = (z ^ (z >> _U64_27)) * _U64_MULT2
    return z ^ (z >> _U64_31)


def mix_each(
    seed: int | Sequence[int] | np.ndarray, *streams: int | Sequence[int] | np.ndarray
) -> np.ndarray:
    """:func:`mix` elementwise, as a ``uint64`` array.

    The seed and each stream tag are ints or integer arrays, broadcast
    together: ``mix_each(s, a, tags)[i] == mix(s, a, tags[i])``, and a
    column of seeds against a matrix of tags folds each row from its own
    seed.
    """
    seeds, *tags = np.broadcast_arrays(*map(words, (seed, *streams)))
    state = _splitmix64_words(seeds.ravel())
    for tag in tags:
        state = _splitmix64_words(state ^ tag.ravel())
    return state.reshape(seeds.shape)


# numpy's SeedSequence with its default pool of four 32-bit words.  Its hash
# constant advances once per hash whatever the value hashed, so the i-th
# hash of every entropy uses the same constants, and columns of constants
# hash many rows at once.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_U32_MIX_L, _U32_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_U32_16 = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of ``count`` successive hashes, as
    ``(count, 1)`` ``uint32`` columns."""
    consts = [init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(count + 1)]
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# Hashes 0-3 fill the pool.  Then each source word in turn is hashed once
# for each other word (hashes 4-15) and mixed into it.  The output hashes
# the pool's words cyclically, eight times for four 64-bit words.
_XOR_A, _MULTS_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_FILL = _XOR_A[:_POOL], _MULTS_A[:_POOL]
_CROSS = [
    (src, [d for d in range(_POOL) if d != src], (_XOR_A[i:i + 3], _MULTS_A[i:i + 3]))
    for src, i in enumerate(range(_POOL, _POOL * _POOL, 3))
]
_OUT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hash of each row of ``values`` under its row's constants."""
    xor, mult = constants
    values = (values ^ xor) * mult
    return values ^ (values >> _U32_16)


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each word ``e``
    of a 1-d ``uint64`` array, as the rows of an ``(n, 4)`` array.

    The entropy is one 32-bit word below 2**32 and two above.  The pool pads
    it with hashes of 0, so one word hashes as that word beside a zero.
    """
    low = (entropy & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (entropy >> _U64_32).astype(np.uint32)
    zeros = np.zeros_like(low)
    pool = _hashmix(np.stack([low, high, zeros, zeros]), _FILL)
    for src, dst, constants in _CROSS:
        mixed = _U32_MIX_L * pool[dst] - _U32_MIX_R * _hashmix(pool[src], constants)
        pool[dst] = mixed ^ (mixed >> _U32_16)
    hashed = _hashmix(np.concatenate([pool, pool]), _OUT)
    # Pairs of 32-bit words read as little-endian 64-bit words, as numpy does.
    return np.ascontiguousarray(hashed.T).astype("<u4").view("<u8").astype(np.uint64)


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def generators(seeds: Sequence[int] | np.ndarray) -> Iterator[np.random.Generator]:
    """One generator, reseeded in place for each of ``seeds`` in turn.

    Each yield is in the state ``generator(s)`` starts in, bit for bit,
    including an empty uint32 buffer.  It is the same object every time, so
    a draw must be taken before the next seed's.  Every seed is hashed at
    once when the first generator is taken, and a seed's reseed happens
    only when its generator is taken.
    """
    states = _seed_sequence_states(_splitmix64_words(words(seeds).ravel()))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state_high, state_low, seq_high, seq_low in states.tolist():
        # PCG64's seeding: from state 0, one step, add the initial state, one
        # more step; a step is state * MULT + inc with an odd increment.
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = ((inc + (state_high << 64 | state_low)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# numpy's Generator.choice(n, k, replace=False) draws by Floyd's algorithm
# unless n > 10000 and k > n // 50, where it shuffles a tail of range(n)
# instead.  Floyd's steps j = n - k ... n - 1 each draw a value in [0, j] by
# Lemire's method from one 32-bit word, a PCG64 output's low half first,
# and a value already drawn becomes j.  A final shuffle orders the draws; it
# moves no value in or out of the set, and each stream serves one draw, so
# it is not replayed.
_TAIL_FROM, _TAIL_DIVISOR = 10000, 50
_U64_LOW32, _U64_2_32 = np.uint64(0xFFFFFFFF), np.uint64(1 << 32)


def choice_sets(sizes: np.ndarray, k: int, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """The set ``generator(s).choice(n, k, replace=False)`` draws, for each
    ``n`` of ``sizes`` and ``s`` of ``seeds``, as the rows of a ``(rows,
    k)`` matrix; the order within a row is not ``choice``'s.  Every ``n`` is
    at least ``k`` and at most 2**32, where ``choice`` draws 32-bit values.

    A set of exactly ``k`` is ``range(k)`` and takes no stream.  The rest
    read ``ceil(k / 2)`` words each from :func:`generators` and take their
    ``k`` steps together, one bool per sample marking the values drawn.  A
    row that needs the tail shuffle, or whose words a Lemire step rejects
    (with probability below ``k * n / 2**32``), draws through ``choice``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    seeds = words(seeds)
    sets = np.empty((sizes.size, k), dtype=np.intp)
    sets[:] = np.arange(k)
    drawing = sizes > k
    tail = drawing & (sizes > _TAIL_FROM) & (k > sizes // _TAIL_DIVISOR)
    floyd = np.flatnonzero(drawing & ~tail)
    n = sizes[floyd]
    raw = np.empty((floyd.size, (k + 1) // 2), dtype=np.uint64)
    for row, rng in zip(raw, generators(seeds[floyd])):
        row[:] = rng.bit_generator.random_raw(raw.shape[1])
    starts = np.cumsum(n) - n
    taken = np.zeros(int(n.sum()), dtype=bool)
    rejected = np.zeros(floyd.size, dtype=bool)
    for step in range(k):
        word = raw[:, step // 2]
        draw = word & _U64_LOW32 if step % 2 == 0 else word >> _U64_32
        j = n - (k - step)
        bound = (j + 1).astype(np.uint64)
        scaled = draw * bound
        # Lemire's threshold is 2**32 mod bound; numpy redraws below it.
        rejected |= (scaled & _U64_LOW32) < _U64_2_32 % bound
        value = (scaled >> _U64_32).astype(np.intp)
        seen = taken[starts + value]
        value[seen] = j[seen]
        taken[starts + value] = True
        sets[floyd, step] = value
    for row in np.concatenate([floyd[rejected], np.flatnonzero(tail)]).tolist():
        sets[row] = generator(int(seeds[row])).choice(int(sizes[row]), k, replace=False)
    return sets
