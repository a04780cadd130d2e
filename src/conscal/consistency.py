"""Answer extraction, agreement scoring, and proxy-target construction.

A set of k sampled responses to one query votes on an answer.  The empirical
share of samples agreeing with an answer ``a`` is its self-consistency score

    s = (1/k) * #{ j : answer_j == a },

and the modal answer's share is the proxy confidence target used to train the
calibrator without any correctness labels.  Answers are compared after a
deliberately minimal normalization (strip edge whitespace, casefold); no
numeric canonicalization is attempted, so "0.50" and "0.5" stay distinct.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import seeding
from .errors import DataError, RecordError, json_error_reason
from .records import GenerationRecord, SampleSet, _is_finite_real

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


def boxed_groups(text: str) -> list[str]:
    """Contents of every balanced ``\\boxed{...}`` group, in start order.

    Braces nest: ``\\boxed{\\frac{1}{2}}`` yields ``\\frac{1}{2}``.  A group
    whose braces never balance is skipped.
    """
    groups: list[str] = []
    start = text.find(_BOX_MARKER)
    while start != -1:
        content = _group_content(text, start)
        if content is not None:
            groups.append(content)
        start = text.find(_BOX_MARKER, start + 1)
    return groups


def extract_boxed(text: str) -> str | None:
    """Return the content of the last balanced ``\\boxed{...}`` group.

    "Last" is in start order, as in :func:`boxed_groups`: markers are tried
    from the end of the text backwards and the first one that balances wins.
    """
    start = text.rfind(_BOX_MARKER)
    while start != -1:
        content = _group_content(text, start)
        if content is not None:
            return content
        # The marker cannot overlap itself, so every earlier one ends by ``start``.
        start = text.rfind(_BOX_MARKER, 0, start)
    return None


def normalize_answer(raw: str) -> str:
    """Strip edge whitespace and casefold.  Nothing else; idempotent."""
    return raw.strip().casefold()


@dataclass(frozen=True)
class AnswerKey:
    """A gold answer with acceptable aliases, all normalized."""

    canonical: str
    aliases: tuple[str, ...] = ()

    @classmethod
    def from_gold(cls, gold_answers: Sequence[str]) -> "AnswerKey":
        if not gold_answers:
            raise DataError("gold_answers must be nonempty to build an answer key")
        normalized = [normalize_answer(a) for a in gold_answers]
        canonical = normalized[0]
        aliases = tuple(dict.fromkeys(a for a in normalized[1:] if a != canonical))
        return cls(canonical=canonical, aliases=aliases)


def is_match(answer: str, key: AnswerKey) -> bool:
    """True when a normalized answer equals the key or one of its aliases."""
    normalized = normalize_answer(answer)
    return normalized == key.canonical or normalized in key.aliases


@dataclass(frozen=True)
class ConsistencyTarget:
    """The modal answer of a sample set and its agreement share.

    ``selected_sample_index`` is the representative generation whose response
    carries the modal answer (the lowest sample_index among them); ``s`` is
    the modal share over all ``k`` samples, including samples that produced no
    extractable answer (those dilute ``s`` but can never be selected).
    """

    query_id: str
    selected_sample_index: int
    answer: str
    s: float
    k: int


def canonical_answer(generation: GenerationRecord) -> str | None:
    """Normalized answer of one generation, or None when there is none.

    A pre-extracted ``answer`` field wins over in-text extraction; when both
    exist and disagree a warning is logged, since that usually means the
    upstream extractor and this one diverge.
    """
    extracted = extract_boxed(generation.response_text)
    if generation.answer is None:
        return normalize_answer(extracted) if extracted is not None else None
    answer = normalize_answer(generation.answer)
    if extracted is not None and answer != normalize_answer(extracted):
        log.warning(
            "query %s sample %d: pre-extracted answer %r disagrees with boxed %r",
            generation.query_id,
            generation.sample_index,
            generation.answer,
            extracted,
        )
    return answer


@dataclass(frozen=True, eq=False)
class AnswerCodes:
    """The answers of one sample set as integer codes, from one extraction pass.

    ``codes[j]`` is sample ``j``'s index into ``answers`` (-1 when it has no
    answer); ``answers`` holds the distinct normalized answers in sorted
    order, so the first most frequent code is the lexicographically smallest
    modal answer.
    """

    codes: np.ndarray
    answers: tuple[str, ...]


def answer_codes(samples: Sequence[GenerationRecord]) -> AnswerCodes:
    """Extract and normalize each sample's answer once, as codes."""
    answers = [canonical_answer(g) for g in samples]
    distinct = sorted({a for a in answers if a is not None})
    index: dict[str | None, int] = {a: i for i, a in enumerate(distinct)}
    index[None] = -1
    return AnswerCodes(np.array([index[a] for a in answers], dtype=np.intp), tuple(distinct))


def _checked(sample_set: SampleSet, codes: AnswerCodes | None) -> AnswerCodes:
    """The given codes once they fit the set, else the set's codes."""
    if codes is None:
        return answer_codes(sample_set.samples)
    if codes.codes.shape != (sample_set.k,):
        raise ValueError(
            f"query {sample_set.query_id}: {codes.codes.size} answer codes for "
            f"{sample_set.k} samples"
        )
    return codes


def _target(
    sample_set: SampleSet, codes: np.ndarray, answers: tuple[str, ...], positions: Sequence[int]
) -> ConsistencyTarget:
    """Modal answer among ``codes``, the codes of the samples at ``positions``."""
    counts = np.bincount(codes[codes >= 0])
    if counts.size == 0:
        raise DataError(
            f"query {sample_set.query_id}: no extractable answer in any of "
            f"{codes.size} samples"
        )
    # argmax takes the first maximum: ties go to the smallest answer string.
    modal = int(counts.argmax())
    first = positions[int((codes == modal).argmax())]
    return ConsistencyTarget(
        query_id=sample_set.query_id,
        selected_sample_index=sample_set.samples[first].sample_index,
        answer=answers[modal],
        s=int(counts[modal]) / codes.size,
        k=codes.size,
    )


def build_target(
    sample_set: SampleSet, *, codes: AnswerCodes | None = None
) -> ConsistencyTarget:
    """Modal answer, its share, and the representative generation.

    ``codes`` are the set's :func:`answer_codes` when the caller already has
    them; without them every sample's answer is extracted here.
    """
    coded = _checked(sample_set, codes)
    return _target(sample_set, coded.codes, coded.answers, range(sample_set.k))


def test_time_sc(sample_set: SampleSet) -> tuple[str, float]:
    """Deployment-side majority vote: (modal answer, its share).

    Same tie-breaking as :func:`build_target`.
    """
    target = build_target(sample_set)
    return target.answer, target.s


def subsample_targets(
    sample_set: SampleSet, k: int, seed: int, *, codes: AnswerCodes | None = None
) -> ConsistencyTarget:
    """Target built from ``k`` samples drawn uniformly without replacement.

    Deterministic given ``(sample_set, k, seed)``.  Selected sample indices
    keep their original values.  With the set's ``codes`` the drawn samples
    are counted without extracting anything; without them only the drawn
    samples are extracted.
    """
    if not 1 <= k <= sample_set.k:
        raise DataError(
            f"query {sample_set.query_id}: cannot subsample {k} of {sample_set.k} samples"
        )
    chosen = np.sort(seeding.generator(seed).choice(sample_set.k, size=k, replace=False))
    if codes is None:
        coded = answer_codes([sample_set.samples[i] for i in chosen])
        return _target(sample_set, coded.codes, coded.answers, chosen)
    coded = _checked(sample_set, codes)
    return _target(sample_set, coded.codes[chosen], coded.answers, chosen)


# ---------------------------------------------------------------------------
# target file round trip
# ---------------------------------------------------------------------------


def write_targets(path: str, targets: Iterable[ConsistencyTarget]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for t in targets:
            obj = {
                "query_id": t.query_id,
                "selected_sample_index": t.selected_sample_index,
                "answer": t.answer,
                "s": t.s,
                "k": t.k,
            }
            handle.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")


def load_targets(path: str) -> list[ConsistencyTarget]:
    targets: list[ConsistencyTarget] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise RecordError(
                    f"{path}:{lineno}: invalid JSON ({json_error_reason(exc)})",
                    path=path,
                    line=lineno,
                ) from exc
            problems: list[str] = []
            if not isinstance(obj, dict):
                problems.append("record must be a JSON object")
            else:
                if not isinstance(obj.get("query_id"), str) or not obj.get("query_id"):
                    problems.append("query_id must be a nonempty string")
                idx = obj.get("selected_sample_index")
                if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                    problems.append("selected_sample_index must be a nonnegative integer")
                if not isinstance(obj.get("answer"), str):
                    problems.append("answer must be a string")
                s = obj.get("s")
                k = obj.get("k")
                # A k too large for a float cannot be checked against s.
                k_ok = isinstance(k, int) and _is_finite_real(k) and k >= 1
                if not k_ok:
                    problems.append("k must be a positive integer")
                if not isinstance(s, (int, float)) or isinstance(s, bool) or not 0.0 <= s <= 1.0:
                    problems.append("s must be a number in [0, 1]")
                elif k_ok:
                    if not math.isclose(s * k, round(s * k), abs_tol=1e-9):
                        problems.append("s * k must be an integer sample count")
                if isinstance(obj.get("query_id"), str):
                    if obj["query_id"] in seen:
                        problems.append(f"duplicate target for query {obj['query_id']!r}")
                    else:
                        seen.add(obj["query_id"])
            if problems:
                raise RecordError(f"{path}:{lineno}: {problems[0]}", path=path, line=lineno)
            targets.append(
                ConsistencyTarget(
                    query_id=obj["query_id"],
                    selected_sample_index=obj["selected_sample_index"],
                    answer=obj["answer"],
                    s=float(obj["s"]),
                    k=obj["k"],
                )
            )
    return targets
