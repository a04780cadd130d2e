"""Seed derivation: reference values, determinism, and stream separation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conscal import seeding

from oracles import drawn_by_choice, raw_words_by_generator

_GAMMA = 0x9E3779B97F4A7C15


def test_splitmix64_matches_reference_outputs():
    # First three outputs of the well-known SplitMix64 stream seeded at 0,
    # i.e. the mix function applied at successive multiples of the increment.
    assert seeding.splitmix64(0) == 0xE220A8397B1DCDAF
    assert seeding.splitmix64(_GAMMA) == 0x6E789E6AA1B965F4
    assert seeding.splitmix64((2 * _GAMMA) % 2**64) == 0x06C45D188009454F


def test_splitmix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1):
        out = seeding.splitmix64(x)
        assert 0 <= out < 2**64


def test_mix_is_deterministic_and_order_sensitive():
    assert seeding.mix(0, 1, 2) == seeding.mix(0, 1, 2)
    assert seeding.mix(0, 1, 2) != seeding.mix(0, 2, 1)
    assert seeding.mix(7) != seeding.mix(8)


def test_mix_reduces_negative_inputs_modulo_2_64():
    assert seeding.mix(-1) == seeding.mix(2**64 - 1)
    assert seeding.mix(0, -1) == seeding.mix(0, 2**64 - 1)


def test_mix_with_no_streams_whitens_the_seed():
    assert seeding.mix(0) == seeding.splitmix64(0)
    assert seeding.mix(12345) == seeding.splitmix64(12345)


@given(
    seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
    tags=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=4),
)
def test_mix_output_is_a_stable_64_bit_word(seed, tags):
    first = seeding.mix(seed, *tags)
    assert first == seeding.mix(seed, *tags)
    assert 0 <= first < 2**64


def test_generator_streams_are_reproducible_and_distinct():
    a1 = seeding.generator(0, 1).random(4)
    a2 = seeding.generator(0, 1).random(4)
    b = seeding.generator(0, 2).random(4)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b.tolist()


def test_generator_streams_do_not_collide_with_the_bare_seed():
    # Deriving (seed, tag) must not alias the whitened bare tag stream.
    assert seeding.mix(0, 1) != seeding.mix(1)
    assert seeding.generator(0, 1).random() != seeding.generator(1).random()


# ---------------------------------------------------------------------------
# batch reseeding
# ---------------------------------------------------------------------------

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**32), -(2**63), -(2**70) - 3]
_SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def test_reseeds_start_where_built_generators_start_at_the_edge_seeds():
    built = _states(seeding.generator(s) for s in _EDGE_SEEDS)
    assert _states(seeding.generators(_EDGE_SEEDS)) == built
    # The same seeds reduced modulo 2**64, as a uint64 array.
    words = np.array([s % 2**64 for s in _EDGE_SEEDS], dtype=np.uint64)
    assert _states(seeding.generators(words)) == built


@given(st.lists(_SEEDS, max_size=40))
def test_reseeds_start_where_built_generators_start(seeds):
    assert _states(seeding.generators(seeds)) == _states(map(seeding.generator, seeds))


@given(seed=_SEEDS | st.sampled_from(_EDGE_SEEDS), n=st.integers(2, 60), data=st.data())
def test_reseeded_draws_equal_the_built_generators_draws(seed, n, data):
    k = data.draw(st.integers(1, n - 1))
    rngs = seeding.generators([seed] * 4)
    # Each draw from a fresh reseed of the one generator, the first after a
    # draw that leaves half of a 64-bit output buffered for the next uint32.
    rng = next(rngs)
    rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    drawn = [
        next(rngs).integers(0, 1000, size=3, dtype=np.uint32).tolist(),
        next(rngs).choice(n, size=k, replace=False).tolist(),
        next(rngs).permutation(n).tolist(),
    ]
    assert drawn == [
        seeding.generator(seed).integers(0, 1000, size=3, dtype=np.uint32).tolist(),
        seeding.generator(seed).choice(n, size=k, replace=False).tolist(),
        seeding.generator(seed).permutation(n).tolist(),
    ]


def test_a_generator_is_reseeded_only_when_taken():
    rngs = seeding.generators([3, 4])
    first = next(rngs)
    first.random(5)
    assert next(rngs) is first
    assert first.bit_generator.state == seeding.generator(4).bit_generator.state
    assert list(rngs) == []
    assert list(seeding.generators([])) == []


@given(
    seeds=st.lists(_SEEDS | st.sampled_from(_EDGE_SEEDS), max_size=12),
    count=st.sampled_from([0, 1, 50]) | st.integers(0, 60),
)
@example(seeds=[], count=3)
@example(seeds=_EDGE_SEEDS, count=0)
@example(seeds=_EDGE_SEEDS, count=1)
@example(seeds=_EDGE_SEEDS, count=3)
@example(seeds=_EDGE_SEEDS, count=50)
def test_replayed_words_are_the_built_generators_raw_words(seeds, count):
    want = raw_words_by_generator(seeds, count)
    replayed = seeding.pcg64_words(seeds, count)
    assert replayed.dtype == np.uint64 and replayed.shape == (len(seeds), count)
    assert replayed.tolist() == want.tolist()
    # The same seeds reduced modulo 2**64, as a uint64 array.
    words = np.array([s % 2**64 for s in seeds], dtype=np.uint64)
    assert seeding.pcg64_words(words, count).tolist() == want.tolist()


def test_reseeds_and_replayed_words_start_from_the_same_states():
    # generators sets each state from pcg64_words' seeding step: a yielded
    # generator is in the built generator's state and reads the replay's words.
    seeds = _EDGE_SEEDS + np.random.default_rng(5).integers(0, 2**63, 200).tolist()
    replayed = seeding.pcg64_words(seeds, 7).tolist()
    for seed, rng, words in zip(seeds, seeding.generators(seeds), replayed, strict=True):
        assert rng.bit_generator.state == seeding.generator(seed).bit_generator.state
        assert rng.bit_generator.random_raw(7).tolist() == words


@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    streams=st.lists(st.integers(min_value=-(2**64), max_value=2**64), max_size=3),
    tags=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=8),
)
def test_mix_each_equals_mix_entry_by_entry(seed, streams, tags):
    mixed = seeding.mix_each(seed, *streams, np.array(tags, dtype=np.int64))
    assert mixed.dtype == np.uint64 and mixed.shape == (len(tags),)
    assert mixed.tolist() == [seeding.mix(seed, *streams, t) for t in tags]
    assert seeding.mix_each(seed, *streams, tags).tolist() == mixed.tolist()


def test_mix_each_folds_each_row_of_tags_from_its_own_seed():
    seeds = np.array([2**64 - 1, 0, 7], dtype=np.uint64)
    tags = np.arange(12).reshape(3, 4)
    mixed = seeding.mix_each(seeds[:, None], 3, tags)
    assert mixed.shape == (3, 4)
    assert mixed.tolist() == [
        [seeding.mix(int(s), 3, int(t)) for t in row] for s, row in zip(seeds, tags)
    ]
    assert seeding.mix_each(5).tolist() == seeding.mix(5)


# ---------------------------------------------------------------------------
# batch draws without replacement
# ---------------------------------------------------------------------------


def _sets(sizes, k, seeds):
    return [sorted(row) for row in seeding.choice_sets(np.array(sizes), k, seeds).tolist()]


@st.composite
def _draws(draw):
    """Sets of mixed sizes, a k up to the smallest, and a seed for each set."""
    sizes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    k = draw(st.integers(1, min(sizes)))
    seed = _SEEDS | st.sampled_from(_EDGE_SEEDS)
    return sizes, k, draw(st.lists(seed, min_size=len(sizes), max_size=len(sizes)))


@given(_draws())
@example(([1, 2, 7], 1, [0, 2**64 - 1, -1]))  # k = n, then n - 1, then inside
@example(([5, 4, 9], 4, [0, 2**64 - 1, -1]))  # k = n - 1, then n
@example(([60] * 3, 59, [0, 2**64 - 1, -1]))
def test_batch_draws_are_the_sets_choice_draws(draws):
    sizes, k, seeds = draws
    assert _sets(sizes, k, seeds) == [drawn_by_choice(n, k, s) for n, s in zip(sizes, seeds)]


def _drawing_through_choice(monkeypatch):
    """The seeds of the rows ``choice_sets`` hands to ``choice``."""
    built, generator = [], seeding.generator

    def counting_builds(seed, *streams):
        built.append(seed)
        return generator(seed, *streams)

    monkeypatch.setattr(seeding, "generator", counting_builds)
    return built


def test_rows_whose_words_a_lemire_step_rejects_draw_through_choice(monkeypatch):
    # Drawing 5000 of 10000, a step rejects with probability about 1/500
    # per row; of seeds 0-399, these two rows reject.
    seeds = list(range(400))
    want = [drawn_by_choice(10000, 5000, s) for s in seeds]
    built = _drawing_through_choice(monkeypatch)
    assert _sets([10000] * 400, 5000, seeds) == want
    assert built == [137, 376]


@pytest.mark.parametrize("n, k, tail", [
    (10001, 200, False), (10001, 201, True), (20000, 400, False), (20000, 401, True),
    (20000, 1000, True),
])
def test_rows_past_choices_tail_shuffle_bound_draw_through_choice(monkeypatch, n, k, tail):
    # choice shuffles a tail of range(n) when n > 10000 and k > n // 50.
    # The rows' seeds reach choice reduced modulo 2**64.
    seeds = [0, -1]
    want = [drawn_by_choice(n, k, s) for s in seeds]
    built = _drawing_through_choice(monkeypatch)
    assert _sets([n, n], k, seeds) == want
    assert built == ([0, 2**64 - 1] if tail else [])
