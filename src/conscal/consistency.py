"""Answer extraction, agreement scoring, and proxy-target construction.

A set of k sampled responses to one query votes on an answer.  The empirical
share of samples agreeing with an answer ``a`` is its self-consistency score

    s = (1/k) * #{ j : answer_j == a },

and the modal answer's share is the proxy confidence target used to train the
calibrator without any correctness labels.  Answers are compared after a
deliberately minimal normalization (strip edge whitespace, casefold); no
numeric canonicalization is attempted, so "0.50" and "0.5" stay distinct.

:func:`boxed_groups` is the one scan for boxed groups: it yields them
from the last marker backwards, found as they are asked for.
:func:`extract_boxed` takes its first group, and
:func:`conscal.baselines.parse_verbal_confidence` reads on to the first
decimal one.  :func:`answer_codes` is the one place answers are extracted:
it turns every query's samples into integer codes in one pass, and every
target (:func:`build_target` over all samples, :func:`subsample_targets`
over a seeded draw) is then a count over those codes.  One rule draws the
k samples: the set ``seeding.generator(seed).choice(n, k, replace=False)``
draws, or all ``n`` positions, taking no generator, when ``k == n``.
:func:`seeding.choice_sets` draws every query's set in one call, from
every query's raw PCG64 words replayed at once in arrays: the same sets,
not in ``choice``'s order.  :func:`subsample_shares` counts the draws of
many rows, each an index into one list of coded sets, with one
``bincount``, for the trial loop, which reads only the shares; one target
is the same count over one row, and :func:`subsample_targets_each` builds
many targets from one call's draws.  A target is a
:class:`~conscal.records.ConsistencyTarget`; :mod:`conscal.records` reads and
writes the targets file.  A query's gold answers are one :func:`gold_set`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import seeding
from .errors import DataError
from .records import ConsistencyTarget, GenerationBatch, SampleSets

log = logging.getLogger(__name__)

_BOX_MARKER = "\\boxed{"


def _group_content(text: str, start: int) -> str | None:
    """Content of the ``\\boxed{`` group at ``start``, or None if it never closes."""
    begin = i = start + len(_BOX_MARKER)
    depth = 1
    # Between one closing brace and the next, braces only open.
    while (close := text.find("}", i)) != -1:
        depth += text.count("{", i, close) - 1
        if depth == 0:
            return text[begin:close]
        i = close + 1
    return None


def boxed_groups(text: str) -> Iterator[str]:
    """Contents of every balanced ``\\boxed{...}`` group, from the last
    marker backwards: the groups in start order, reversed.

    Braces nest: ``\\boxed{\\frac{1}{2}}`` yields ``\\frac{1}{2}``.  A group
    whose braces never balance is skipped.  The groups are found as they
    are asked for, so a caller that stops early scans no further back.
    """
    start = text.rfind(_BOX_MARKER)
    while start != -1:
        content = _group_content(text, start)
        if content is not None:
            yield content
        # The marker cannot overlap itself, so every earlier one ends by ``start``.
        start = text.rfind(_BOX_MARKER, 0, start)


def extract_boxed(text: str) -> str | None:
    """Return the content of the last balanced ``\\boxed{...}`` group in
    start order, the first that :func:`boxed_groups` yields."""
    return next(boxed_groups(text), None)


def normalize_answer(raw: str) -> str:
    """Strip edge whitespace and casefold.  Nothing else; idempotent."""
    return raw.strip().casefold()


def gold_set(gold_answers: Sequence[str]) -> frozenset[str]:
    """A query's gold answers, normalized.  A coded answer (see
    :func:`answer_codes`) is already normalized, so it is correct when it
    is a member."""
    return frozenset(map(normalize_answer, gold_answers))


def _answer(batch: GenerationBatch, row: int, disagreeing: list[int]) -> str | None:
    """Normalized answer of generation ``row`` of ``batch``, or None if none.

    A pre-extracted ``answer`` wins over in-text extraction.  Where both
    exist and disagree, which usually means the upstream extractor and this
    one diverge, ``row`` is appended to ``disagreeing``, which
    :func:`answer_codes` counts in its one warning.
    """
    given = batch.answer[row]
    extracted = extract_boxed(batch.response_text[row])
    if given is None:
        return normalize_answer(extracted) if extracted is not None else None
    answer = normalize_answer(given)
    if extracted is not None and answer != normalize_answer(extracted):
        disagreeing.append(row)
    return answer


@dataclass(frozen=True, eq=False)
class AnswerCodes:
    """One query's answers as integer codes, from one extraction pass.

    ``codes[j]`` is sample ``j``'s index into ``answers`` (-1 when it has no
    answer); ``answers`` holds the distinct normalized answers in sorted
    order, so the first most frequent code is the lexicographically smallest
    modal answer.  ``sample_index[j]`` is sample ``j``'s logged index, kept
    as a Python int because loaded indices are unbounded JSON integers.
    """

    query_id: str
    sample_index: tuple[int, ...]
    codes: np.ndarray
    answers: tuple[str, ...]


def answer_codes(sets: SampleSets) -> list[AnswerCodes]:
    """Extract and normalize every sample's answer once, then code each
    query's answers.  The samples whose pre-extracted answer disagrees with
    the boxed one are logged in one warning."""
    batch = sets.batch
    rows, bounds = sets.rows.tolist(), sets.offsets.tolist()
    coded = []
    disagreeing: list[int] = []
    for query_id, start, stop in zip(sets.query_ids, bounds, bounds[1:]):
        part = rows[start:stop]
        answers = [_answer(batch, i, disagreeing) for i in part]
        distinct = sorted({a for a in answers if a is not None})
        index: dict[str | None, int] = {None: -1, **{a: i for i, a in enumerate(distinct)}}
        codes = np.array([index[a] for a in answers], dtype=np.intp)
        indices = tuple(map(batch.sample_index.__getitem__, part))
        coded.append(AnswerCodes(query_id, indices, codes, tuple(distinct)))
    if disagreeing:
        preview = ", ".join(
            f"{batch.query_id[i]}/{batch.sample_index[i]}" for i in disagreeing[:5]
        )
        more = "" if len(disagreeing) <= 5 else f" (+{len(disagreeing) - 5} more)"
        log.warning(
            "%d pre-extracted answers disagree with the boxed answer: %s%s",
            len(disagreeing), preview, more,
        )
    return coded


def _range_error(coded: AnswerCodes, k: int) -> DataError:
    return DataError(f"query {coded.query_id}: cannot subsample {k} of {coded.codes.size} samples")


def _no_answer(coded: AnswerCodes, k: int) -> DataError:
    return DataError(f"query {coded.query_id}: no extractable answer in any of {k} samples")


def _target(coded: AnswerCodes, positions: Sequence[int]) -> ConsistencyTarget:
    """Modal answer among the samples of ``coded`` at ``positions``, which
    ascend."""
    codes = coded.codes[positions]
    (modal,), (count,) = _modal_counts(codes[None], 1 + len(coded.answers))
    if count == 0:
        raise _no_answer(coded, codes.size)
    first = positions[int((codes == modal).argmax())]
    return ConsistencyTarget(
        query_id=coded.query_id,
        selected_sample_index=coded.sample_index[first],
        answer=coded.answers[modal],
        s=int(count) / codes.size,
        k=codes.size,
    )


def build_target(codes: AnswerCodes) -> ConsistencyTarget:
    """Modal answer over all of a set's samples, its share, and the
    representative generation."""
    return _target(codes, range(codes.codes.size))


def _draws(
    sizes: np.ndarray, k: int, seeds: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which sets, of ``sizes`` samples each, a draw of ``k`` fits (``1 <=
    k <= n``), and the positions drawn from each that it fits, as the rows
    of a ``(fits, k)`` matrix: the set that
    ``seeding.generator(seed).choice(n, k, replace=False)`` draws, in no
    particular order."""
    fits = sizes >= k if k >= 1 else np.zeros(sizes.size, dtype=bool)
    return fits, seeding.choice_sets(sizes[fits], max(k, 0), seeding.words(seeds)[fits])


def subsample_targets_each(
    coded: Sequence[AnswerCodes], k: int, seeds: Sequence[int] | np.ndarray
) -> list[ConsistencyTarget | DataError]:
    """``subsample_targets(c, k, seed=s)`` for each ``c`` and ``s`` of
    ``coded`` and ``seeds``, or the :class:`DataError` it raises, from one
    draw of every set."""
    fits, positions = _draws(np.array([c.codes.size for c in coded], dtype=np.int64), k, seeds)
    drawn = iter(np.sort(positions, axis=1))
    outcomes: list[ConsistencyTarget | DataError] = []
    for c, fit in zip(coded, fits.tolist()):
        if not fit:
            outcomes.append(_range_error(c, k))
            continue
        try:
            outcomes.append(_target(c, next(drawn)))
        except DataError as error:
            outcomes.append(error)
    return outcomes


def subsample_targets(codes: AnswerCodes, k: int, seed: int) -> ConsistencyTarget:
    """Target built from ``k`` samples drawn uniformly without replacement.

    Deterministic given ``(codes, k, seed)``.  Selected sample indices keep
    their original values.
    """
    (outcome,) = subsample_targets_each([codes], k, [seed])
    if isinstance(outcome, DataError):
        raise outcome
    return outcome


def subsample_shares(
    coded: Sequence[AnswerCodes],
    rows: Sequence[int] | np.ndarray,
    k: int,
    seeds: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """``subsample_targets(coded[r], k, seed=s).s`` for each ``r`` and ``s``
    of ``rows`` and ``seeds``, from the same draws, counted at once.

    ``rows`` indexes the sets of ``coded`` and may repeat them: the trial
    loop passes each trial's calibration queries.  A loop of
    :func:`subsample_targets` would raise the first failing row's error; so
    does this.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if not rows.size:
        return np.zeros(0)
    sizes = np.array([c.codes.size for c in coded], dtype=np.int64)
    fits, drawn = _draws(sizes[rows], k, seeds)
    # Positions, then flat indices into the sets' codes, then codes: one
    # rows x k matrix at a time.
    drawn += (np.cumsum(sizes) - sizes)[rows[fits], None]
    drawn = np.concatenate([c.codes for c in coded])[drawn]
    count = _modal_counts(drawn, 1 + max(len(c.answers) for c in coded))[1]
    failing = ~fits
    failing[fits] = count == 0
    if failing.any():
        first = int(failing.argmax())
        c = coded[rows[first]]
        raise _no_answer(c, k) if fits[first] else _range_error(c, k)
    return count / k


def _modal_counts(codes: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The modal code of each row of ``codes``, a matrix of answer codes
    below ``width - 1``, and its count, by one ``bincount``; a row without
    an answer counts 0.

    Row ``r``'s codes are shifted into ``[width * r, width * (r + 1))``, with
    column 0 for samples without an answer, which never vote.  ``argmax``
    takes the first maximum, so ties go to the smallest answer string.
    Counts ignore order, so the draws need no sort.
    """
    rows = codes.shape[0]
    shifted = codes + (1 + width * np.arange(rows))[:, None]
    counts = np.bincount(shifted.ravel(), minlength=rows * width).reshape(rows, width)
    counts[:, 0] = 0
    modal = counts.argmax(axis=1)
    return modal - 1, counts[np.arange(rows), modal]
