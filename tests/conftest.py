"""Shared test fixtures and record builders."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from conscal.records import GenerationBatch, QueryRecord, SampleSets

# Model fitting inside property bodies makes per-example runtimes jittery;
# judge examples on correctness, not wall clock.
settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


def make_query(
    query_id: str = "q1",
    *,
    group: str = "main",
    gold: tuple[str, ...] | None = ("a",),
    question_embedding: tuple[float, ...] | None = None,
) -> QueryRecord:
    return QueryRecord(
        query_id=query_id,
        text=f"question {query_id}",
        group=group,
        gold_answers=gold,
        question_embedding=question_embedding,
    )


def make_generation(
    query_id: str = "q1",
    sample_index: int = 0,
    *,
    answer: str | None = None,
    text: str | None = None,
    token_logprobs: tuple[float, ...] = (-0.1, -0.2),
    answer_token_logprobs: tuple[float, ...] | None = (-0.05,),
    embedding: tuple[float, ...] = (0.0, 1.0),
) -> dict:
    """One generation's fields, for :func:`make_batch`.

    ``answer`` is boxed in the text; the answer field stays absent, which
    forces in-text extraction unless a test sets it.
    """
    if text is None:
        text = f"thinking... \\boxed{{{answer}}}" if answer is not None else "no answer here"
    return {
        "query_id": query_id,
        "sample_index": sample_index,
        "response_text": text,
        "answer": None,
        "token_logprobs": token_logprobs,
        "answer_token_logprobs": answer_token_logprobs,
        "embedding": embedding,
    }


def make_batch(rows: Sequence[Mapping]) -> GenerationBatch:
    """A batch holding ``rows`` (dicts of generation fields) in order.

    ``answer`` and ``answer_token_logprobs`` may be left out.
    """

    def flat(name: str) -> tuple[np.ndarray, np.ndarray]:
        parts = [row.get(name) or () for row in rows]
        values = np.array([v for part in parts for v in part], dtype=float)
        return values, np.cumsum([0] + [len(part) for part in parts])

    tokens, token_offsets = flat("token_logprobs")
    spans, span_offsets = flat("answer_token_logprobs")
    dim = len(rows[0]["embedding"]) if rows else 0
    embedding = np.array([row["embedding"] for row in rows], dtype=float)
    return GenerationBatch(
        query_id=tuple(row["query_id"] for row in rows),
        sample_index=tuple(row["sample_index"] for row in rows),
        response_text=tuple(row["response_text"] for row in rows),
        answer=tuple(row.get("answer") for row in rows),
        token_logprobs=tokens,
        token_offsets=token_offsets,
        answer_token_logprobs=spans,
        answer_token_offsets=span_offsets,
        embedding=embedding.reshape(len(rows), dim),
    )


def make_set(
    answers: list[str | None],
    *,
    query_id: str = "q1",
    gold: tuple[str, ...] | None = ("a",),
    group: str = "main",
) -> SampleSets:
    """One query whose responses box the given answers (None = no box)."""
    query = make_query(query_id, gold=gold, group=group)
    batch = make_batch(
        [make_generation(query_id, j, answer=answer) for j, answer in enumerate(answers)]
    )
    rows = np.arange(len(answers), dtype=np.intp)
    return SampleSets((query,), batch, rows, np.array([0, len(answers)], dtype=np.intp))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
