"""Synthetic dataset generator with known ground truth.

Each query gets a latent difficulty ``pi`` (the probability that one sampled
response lands on the gold answer) and a full answer distribution:

* ``pi`` is drawn from Beta(difficulty_alpha, difficulty_beta), or held at
  ``difficulty_constant`` when that is set;
* the remaining mass ``1 - pi`` is split over ``distractor_count`` wrong
  answers by stick-breaking with Beta(c, c * remaining) sticks — the
  stick-breaking construction of a symmetric Dirichlet(c) — so tiny
  concentrations put nearly all wrong mass on one distractor and large ones
  spread it evenly thin;
* the k responses per query draw answers i.i.d. from that distribution and
  embed them in a ``\\boxed{...}`` template;
* token log-probabilities are a noisy, monotone, deliberately compressed
  function of ``pi``: the per-response geometric mean is
  ``TP_LO + (TP_HI - TP_LO) * clip(pi + N(0, TP_NOISE), 0, 1)`` spread over
  the tokens with zero-mean jitter (clipped to stay <= 0).  The compression
  into a narrow high band keeps the score informative for ranking while
  grossly overconfident in absolute terms.  Answer-span tokens use the same
  construction inside an even narrower band near 1;
* response embeddings are ``signal_strength * pi * u + N(0, noise_scale^2)``
  per dimension, with ``u`` a fixed unit direction derived from the seed, so
  a linear probe can recover difficulty up to noise; the query embedding uses
  the same construction with its own noise draw;
* most responses also state a coarse verbal confidence — a ``\\boxed{0.85}``
  style decimal placed before the answer box — drawn from the same kind of
  noisy band (``VC_LO``..``VC_HI``), rounded to two decimals, and omitted
  entirely with probability ``VC_OMIT`` so imputation paths get exercised;
* labels mark whether a response's sampled answer is the gold one.

All randomness derives from ``mix(seed, query_index)``, which is what lets
:func:`query_truth` recompute a query's exact answer distribution after the
fact.  An optional ``group_shift`` adds a second group of queries with its
own difficulty distribution and group tag for distribution-shift studies.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, TextIO

import numpy as np

from . import parts, records, seeding
from .errors import ConfigError, DataError, require_integer, require_real, require_size
from .records import GenerationBatch, QueryRecord, write_json_lines

MAIN_GROUP = "main"

# Token-probability link: band and noise of the per-response geometric mean.
TP_LO = 0.75
TP_HI = 0.98
TP_NOISE = 0.35
# Answer-span link: clustered close to certainty.
ANS_LO = 0.90
ANS_HI = 0.995
ANS_NOISE = 0.45
# Verbal confidence statements: coarse, optimistic, occasionally omitted.
VC_LO = 0.55
VC_HI = 0.95
VC_NOISE = 0.45
VC_OMIT = 0.08
_TOKEN_JITTER = 0.5
_TOKEN_COUNT = (12, 25)
_ANSWER_TOKEN_COUNT = (2, 5)

_STREAM_QUERY = 0x51
_STREAM_DIRECTION = 0xD1


@dataclass(frozen=True)
class GroupShift:
    """A second query group with its own difficulty distribution."""

    tag: str
    difficulty_alpha: float
    difficulty_beta: float
    difficulty_constant: float | None = None


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings, valid once constructed: an impossible value
    raises :class:`ConfigError` from the constructor."""

    n_queries: int = 1000
    k: int = 20
    difficulty_alpha: float = 0.45
    difficulty_beta: float = 0.28
    difficulty_constant: float | None = None
    distractor_count: int = 25
    stick_concentration: float = 18.0
    embedding_dim: int = 16
    signal_strength: float = 2.0
    noise_scale: float = 0.25
    group_shift: GroupShift | None = None
    temperature: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_queries", "k", "distractor_count", "embedding_dim"):
            require_size(name, getattr(self, name))
        require_integer("seed", self.seed)
        positive = [
            ("difficulty_alpha", self.difficulty_alpha),
            ("difficulty_beta", self.difficulty_beta),
            ("stick_concentration", self.stick_concentration),
        ]
        fractions = [("difficulty_constant", self.difficulty_constant)]
        shift = self.group_shift
        if shift is not None:
            if not isinstance(shift.tag, str) or shift.tag in ("", MAIN_GROUP):
                raise ConfigError(
                    "group_shift tag must be a nonempty string that differs from the main tag"
                )
            positive += [
                ("group_shift difficulty_alpha", shift.difficulty_alpha),
                ("group_shift difficulty_beta", shift.difficulty_beta),
            ]
            fractions.append(("group_shift difficulty_constant", shift.difficulty_constant))
        for name, value in positive:
            require_real(name, value)
            if value <= 0:
                raise ConfigError(f"{name} must be a positive real, got {value!r}")
        for name, value in fractions:
            if value is not None:
                require_real(name, value)
                if not 0.0 <= value <= 1.0:
                    raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("signal_strength", "noise_scale", "temperature"):
            require_real(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be a nonnegative real")


@dataclass(frozen=True)
class QueryTruth:
    """Exact per-query ground truth recomputed from the generator seed."""

    pi: float
    modal_prob: float
    masses: tuple[float, ...]


def _total_queries(config: SynthConfig) -> int:
    return config.n_queries * (2 if config.group_shift is not None else 1)


def _group_of(config: SynthConfig, index: int) -> tuple[str, float, float, float | None]:
    if index < config.n_queries:
        return (
            MAIN_GROUP,
            config.difficulty_alpha,
            config.difficulty_beta,
            config.difficulty_constant,
        )
    shift = config.group_shift
    assert shift is not None
    return shift.tag, shift.difficulty_alpha, shift.difficulty_beta, shift.difficulty_constant


def _query_id(index: int) -> str:
    return f"q{index:06d}"


def _query_index(qid: str) -> int | None:
    """The index whose :func:`_query_id` is ``qid``, or None if there is none."""
    digits = qid[1:]
    if not (qid[:1] == "q" and digits.isascii() and digits.isdigit()):
        return None
    try:
        index = int(digits)
    except ValueError:  # past int's digit limit
        return None
    return index if _query_id(index) == qid else None


def _gold_answer(index: int) -> str:
    return f"{_query_id(index)}a"


def _distractor_answer(index: int, j: int) -> str:
    return f"{_query_id(index)}d{j}"


def _query_rng(config: SynthConfig, index: int) -> np.random.Generator:
    return seeding.generator(config.seed, _STREAM_QUERY, index)


def _answer_distribution(
    config: SynthConfig, index: int
) -> tuple[np.random.Generator, float, np.ndarray]:
    """Redrawable prefix of a query's randomness: difficulty and masses."""
    rng = _query_rng(config, index)
    _, alpha, beta, constant = _group_of(config, index)
    drawn = float(rng.beta(alpha, beta))
    pi = drawn if constant is None else float(constant)
    m = config.distractor_count
    remainder = 1.0 - pi
    shares = np.empty(m)
    if m == 1:
        shares[0] = remainder
    else:
        c = config.stick_concentration
        sticks = rng.beta(c, c * np.arange(m - 1, 0, -1))
        left = remainder
        for j in range(m - 1):
            shares[j] = left * sticks[j]
            left -= shares[j]
        shares[m - 1] = left
    masses = np.concatenate([[pi], shares])
    return rng, pi, masses


def query_truth(config: SynthConfig, query: QueryRecord) -> QueryTruth:
    """Ground truth for a query produced by :func:`generate` under ``config``.

    ``modal_prob`` is the probability that one fresh sample equals the
    modal-by-mass answer, i.e. the largest answer mass.
    """
    qid = query.query_id
    index = _query_index(qid)
    if index is None:
        raise DataError(f"query {qid!r} was not produced by this generator")
    if index >= _total_queries(config):
        raise DataError(f"query {qid!r} is out of range for this configuration")
    if query.gold_answers is None or query.gold_answers[0] != _gold_answer(index):
        raise DataError(f"query {qid!r} does not match this generator configuration")
    group, *_ = _group_of(config, index)
    if query.group != group:
        raise DataError(f"query {qid!r} group {query.group!r} does not match {group!r}")
    _, pi, masses = _answer_distribution(config, index)
    return QueryTruth(pi=pi, modal_prob=float(masses.max()), masses=tuple(masses.tolist()))


def _segmented_logprobs(
    rng: np.random.Generator,
    ln_gm: np.ndarray,
    count_range: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """One row of token log-probabilities per entry of ``ln_gm``.

    Returns the rows' values end to end and each row's length.  Row ``j``
    has a random length in ``count_range``; its values are one zero-mean
    slice of a single flat jitter draw shifted to mean ``ln_gm[j]``, then
    clipped to stay <= 0.
    """
    k = ln_gm.shape[0]
    lengths = rng.integers(count_range[0], count_range[1], size=k)
    jitter = rng.normal(0.0, _TOKEN_JITTER, size=int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    means = np.add.reduceat(jitter, starts) / lengths
    values = np.minimum(jitter - np.repeat(means, lengths) + np.repeat(ln_gm, lengths), 0.0)
    return values, lengths


def _band_logmeans(rng: np.random.Generator, pi: float, k: int, lo: float, hi: float,
                   noise: float) -> np.ndarray:
    level = np.clip(pi + rng.normal(0.0, noise, size=k), 0.0, 1.0)
    return np.log(lo + (hi - lo) * level)


def generate(
    config: SynthConfig, indices: range | None = None
) -> tuple[list[QueryRecord], GenerationBatch, np.ndarray]:
    """Generate a dataset: queries, generations, and their labels ``z``.

    Deterministic given ``config``; single sequential pass over queries.
    The generations stay in the columns they are drawn into; ``z`` is an
    ``int8`` column over the generation rows, 1 where the sampled answer is
    the gold one.  ``indices``, a range of query indices of step 1 (default:
    every query), limits the dataset to those queries: each query draws
    from a stream of its own, so they are the same queries, generation rows
    and labels as that slice of the whole dataset's, bit for bit.
    """
    total, k = _total_queries(config), config.k
    if indices is None:
        indices = range(total)
    elif indices.step != 1 or not 0 <= indices.start <= indices.stop <= total:
        raise ValueError(f"{indices!r} is not a range of step 1 within range(0, {total})")
    direction = seeding.generator(config.seed, _STREAM_DIRECTION).normal(
        size=config.embedding_dim
    )
    direction /= np.linalg.norm(direction)
    n = len(indices)
    queries: list[QueryRecord] = []
    z = np.empty(n * k, dtype=np.int8)
    texts: list[str] = []
    sampled: list[str] = []
    token_column, span_column = array("d"), array("d")
    # Each row's length goes in after its row's start; summed once, the
    # lengths become the columns' offsets.
    token_offsets = np.zeros(n * k + 1, dtype=np.intp)
    span_offsets = np.zeros(n * k + 1, dtype=np.intp)
    embeddings = np.empty((n * k, config.embedding_dim))
    for position, index in enumerate(indices):
        rows = slice(position * k, (position + 1) * k)
        rng, pi, masses = _answer_distribution(config, index)
        group, *_ = _group_of(config, index)
        qid = _query_id(index)
        gold = _gold_answer(index)
        answers = [gold] + [_distractor_answer(index, j) for j in range(config.distractor_count)]
        drawn = rng.choice(len(answers), size=k, p=masses)
        z[rows] = drawn == 0
        tokens, token_offsets[1:][rows] = _segmented_logprobs(
            rng,
            _band_logmeans(rng, pi, k, TP_LO, TP_HI, TP_NOISE),
            _TOKEN_COUNT,
        )
        token_column.frombytes(tokens.tobytes())
        spans, span_offsets[1:][rows] = _segmented_logprobs(
            rng,
            _band_logmeans(rng, pi, k, ANS_LO, ANS_HI, ANS_NOISE),
            _ANSWER_TOKEN_COUNT,
        )
        span_column.frombytes(spans.tobytes())
        stated = np.round(np.exp(_band_logmeans(rng, pi, k, VC_LO, VC_HI, VC_NOISE)), 2)
        vc_omitted = rng.random(size=k) < VC_OMIT
        signal = config.signal_strength * pi * direction
        embeddings[rows] = signal + rng.normal(0.0, config.noise_scale, size=(k, config.embedding_dim))
        question_embedding = signal + rng.normal(0.0, config.noise_scale, size=config.embedding_dim)
        queries.append(
            QueryRecord(
                query_id=qid,
                text=f"Synthetic reasoning task {index} (group {group}).",
                group=group,
                gold_answers=(gold,),
                question_embedding=tuple(question_embedding.tolist()),
            )
        )
        per_sample = zip(drawn.tolist(), vc_omitted.tolist(), stated.tolist())
        for j, (d, omitted, vc) in enumerate(per_sample):
            answer = answers[d]
            if omitted:
                text = (
                    f"Attempt {j}: worked through the steps and settled on "
                    f"\\boxed{{{answer}}}."
                )
            else:
                text = (
                    f"Attempt {j}: I'd put my confidence at \\boxed{{{vc:.2f}}}. "
                    f"Worked through the steps and settled on \\boxed{{{answer}}}."
                )
            texts.append(text)
            sampled.append(answer)
    np.cumsum(token_offsets, out=token_offsets)
    np.cumsum(span_offsets, out=span_offsets)
    generations = GenerationBatch(
        query_id=tuple(q.query_id for q in queries for _ in range(k)),
        sample_index=tuple(range(k)) * n,
        response_text=tuple(texts),
        answer=tuple(sampled),
        token_logprobs=np.frombuffer(token_column),
        token_offsets=token_offsets,
        answer_token_logprobs=np.frombuffer(span_column),
        answer_token_offsets=span_offsets,
        embedding=embeddings,
    )
    return queries, generations, z


def sampling_meta(config: SynthConfig) -> dict[str, Any]:
    """The ``sampling_meta`` of every generation line :func:`generate` makes."""
    return {"temperature": config.temperature, "source": "conscal-synth/1"}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def benchmark_config(n_queries: int = 1500, k: int = 100, seed: int = 0, **overrides) -> SynthConfig:
    """The standard benchmark: informative embeddings, miscalibrated token
    scores, U-shaped difficulty, thin distractors."""
    return replace(
        SynthConfig(n_queries=n_queries, k=k, seed=seed),
        **overrides,
    )


def premise_config(n_queries: int = 2000, k: int = 100, seed: int = 0, **overrides) -> SynthConfig:
    """A regime where majority-vote agreement is calibrated by construction.

    Difficulty Beta(2, 1) gives the gold answer mass density 2*pi, and a
    single dominant distractor takes nearly all remaining mass, so among
    queries whose top answer holds share q the gold answer is on top with
    probability q.
    """
    return replace(
        SynthConfig(
            n_queries=n_queries,
            k=k,
            seed=seed,
            difficulty_alpha=2.0,
            difficulty_beta=1.0,
            distractor_count=4,
            stick_concentration=0.01,
            embedding_dim=8,
            signal_strength=1.0,
            noise_scale=0.3,
        ),
        **overrides,
    )


def shifted_benchmark_config(
    n_queries: int = 1500, k: int = 100, seed: int = 0, **overrides
) -> SynthConfig:
    """Benchmark plus a harder shifted group for out-of-domain studies."""
    base = replace(
        benchmark_config(n_queries=n_queries, k=k, seed=seed),
        group_shift=GroupShift(tag="shifted", difficulty_alpha=0.35, difficulty_beta=0.55),
    )
    return replace(base, **overrides)


PRESETS = {
    "benchmark": benchmark_config,
    "premise": premise_config,
    "shift": shifted_benchmark_config,
}


# ---------------------------------------------------------------------------
# truth sidecar
# ---------------------------------------------------------------------------


def _truth_objects(
    queries: Iterable[QueryRecord], truths: Iterable[QueryTruth]
) -> Iterator[dict[str, Any]]:
    for query, truth in zip(queries, truths):
        yield {"query_id": query.query_id, "pi": truth.pi, "modal_prob": truth.modal_prob}


def write_truth(
    path: str, config: SynthConfig, queries: Iterable[QueryRecord]
) -> list[QueryTruth]:
    """Write the ``{"query_id", "pi", "modal_prob"}`` sidecar for a dataset.

    Returns the per-query truths it wrote, in query order.
    """
    queries = list(queries)
    truths = [query_truth(config, query) for query in queries]
    write_json_lines(path, _truth_objects(queries, truths))
    return truths


# ---------------------------------------------------------------------------
# the dataset files
# ---------------------------------------------------------------------------

DATASET_FILES = ("queries.jsonl", "generations.jsonl", "labels.jsonl", "truth.jsonl")
# A dataset part holds at least this many generation rows.  A row takes
# 22-34 us to draw and format, so a fork and the append of a 6 MB part (see
# conscal.parts) cost about 100 rows' time: 1,000 rows are ten times that.
_ROWS_PER_PART = 1000


def write_dataset(config: SynthConfig, *paths: str) -> tuple[list[float], int]:
    """Write the dataset of ``config`` into ``paths``, one for each of
    :data:`DATASET_FILES`: its queries, generations, labels and truth.

    Returns each query's ``pi``, in query order, and the count of samples
    whose answer is the gold one.  The queries are cut into ranges of
    about equal rows (see :func:`conscal.parts.part_ranges`, with at least
    ``_ROWS_PER_PART`` rows a part); each range is generated and formatted
    in a part of its own (see :func:`conscal.parts.write_parts`), so the
    bytes do not depend on the number of parts.
    """
    k = config.k
    rows = range(0, _total_queries(config) * k + 1, k)
    ranges = parts.part_ranges(rows, _ROWS_PER_PART)
    values = parts.write_parts(paths, ranges, lambda indices: _dataset_part(config, indices))
    pis = [pi for part_pis, _ in values for pi in part_pis]
    return pis, sum(correct for _, correct in values)


def _dataset_part(
    config: SynthConfig, indices: range
) -> tuple[list[Callable[[TextIO], None]], tuple[list[float], int]]:
    """The queries ``indices`` of the dataset: a writer for each of its
    files, and their ``pi`` values with the count of gold samples."""
    queries, batch, z = generate(config, indices)
    truths = [query_truth(config, query) for query in queries]
    writers = [
        lambda handle: handle.writelines(records.query_lines(queries)),
        lambda handle: handle.writelines(records.generation_lines(batch, sampling_meta(config))),
        lambda handle: handle.writelines(records.label_lines(batch, z)),
        lambda handle: handle.writelines(records.object_lines(_truth_objects(queries, truths))),
    ]
    return writers, ([truth.pi for truth in truths], int(z.sum()))
