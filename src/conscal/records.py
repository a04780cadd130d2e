"""Line-delimited record files for queries, generations, and labels.

Every dataset is a set of UTF-8 text files with one JSON object per line:

``queries.jsonl``
    ``{"query_id", "text", "group", "gold_answers"?, "question_embedding"?}``
``generations.jsonl``
    ``{"query_id", "sample_index", "response_text", "answer"?,
    "token_logprobs", "answer_token_logprobs"?, "embedding", "sampling_meta"?}``
``labels.jsonl``
    ``{"query_id", "sample_index", "z"}`` with ``z`` in ``{0, 1}``

Unknown keys are preserved on the loaded record (in ``extra``) and written
back on export, but carry no meaning here.  Validation is total: every
malformed line yields a diagnostic naming the file and line, and a loader
never returns a partially constructed dataset.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import RecordError

log = logging.getLogger(__name__)

_QUERY_FIELDS = frozenset(("query_id", "text", "group", "gold_answers", "question_embedding"))
_GENERATION_FIELDS = frozenset(
    (
        "query_id",
        "sample_index",
        "response_text",
        "answer",
        "token_logprobs",
        "answer_token_logprobs",
        "embedding",
        "sampling_meta",
    )
)
# Exact types of the numbers json.loads returns; bool, a subclass of int,
# is not among them.
_NUMBER_TYPES = frozenset((int, float))


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, attached to a file location."""

    path: str
    line: int | None
    message: str

    def __str__(self) -> str:
        where = self.path if self.line is None else f"{self.path}:{self.line}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class QueryRecord:
    query_id: str
    text: str
    group: str
    gold_answers: tuple[str, ...] | None = None
    question_embedding: tuple[float, ...] | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GenerationRecord:
    query_id: str
    sample_index: int
    response_text: str
    token_logprobs: tuple[float, ...]
    embedding: tuple[float, ...]
    answer: str | None = None
    answer_token_logprobs: tuple[float, ...] | None = None
    sampling_meta: Mapping[str, Any] | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SampleSet:
    """All logged generations for one query, ordered by sample_index."""

    query: QueryRecord
    samples: tuple[GenerationRecord, ...]

    @property
    def query_id(self) -> str:
        return self.query.query_id

    @property
    def k(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class CorrectnessLabel:
    query_id: str
    sample_index: int
    z: int


def _is_finite_real(value: Any) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _check_vector(value: Any, name: str, *, max_value: float | None = None) -> list[str]:
    if not isinstance(value, list) or not value:
        return [f"{name} must be a nonempty array of numbers"]
    # Whole-field test: a finite sum means every entry is a finite float
    # (NaN and infinities propagate, and huge integers or an overflowing
    # sum raise).  Only a field that fails it is walked entry by entry.
    if _NUMBER_TYPES.issuperset(map(type, value)):
        try:
            finite = math.isfinite(math.fsum(value))
        except (OverflowError, ValueError):
            finite = False
        if finite and (max_value is None or max(value) <= max_value):
            return []
    for entry in value:
        if not _is_finite_real(entry):
            return [f"{name} contains a non-finite or non-numeric entry"]
        if max_value is not None and entry > max_value:
            return [f"{name} contains an entry above {max_value:g}"]
    return []


def _objects(path: str, diagnostics: list[Diagnostic]) -> Iterator[tuple[int, dict]]:
    """Yield each line that decodes to a JSON object, diagnosing the others.

    Lines are read one at a time, so a caller that validates and converts
    each object before asking for the next keeps one decoded row alive.
    Callers hold their row diagnostics apart and report them after these.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                obj = json.loads(raw.rstrip("\n"))
            except ValueError as exc:  # or an integer literal past int's digit limit
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else "integer too long"
                diagnostics.append(Diagnostic(path, lineno, f"invalid JSON ({reason})"))
                continue
            if not isinstance(obj, dict):
                diagnostics.append(Diagnostic(path, lineno, "record must be a JSON object"))
                continue
            yield lineno, obj


def _extra_of(obj: Mapping[str, Any], known: frozenset[str]) -> dict[str, Any]:
    if known.issuperset(obj):
        return {}
    return {key: obj[key] for key in obj if key not in known}


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def scan_queries(path: str) -> tuple[list[QueryRecord], list[Diagnostic]]:
    """Parse and validate a query file, collecting every diagnostic."""
    diagnostics: list[Diagnostic] = []
    row_diagnostics: list[Diagnostic] = []
    records: list[QueryRecord] = []
    seen: set[str] = set()
    embed_dim: int | None = None
    for lineno, obj in _objects(path, diagnostics):
        problems: list[str] = []
        query_id = obj.get("query_id")
        if not isinstance(query_id, str) or not query_id:
            problems.append("query_id must be a nonempty string")
        text = obj.get("text")
        if not isinstance(text, str):
            problems.append("text must be a string")
        group = obj.get("group")
        if not isinstance(group, str) or not group:
            problems.append("group must be a nonempty string")
        gold = obj.get("gold_answers")
        if gold is not None:
            if not isinstance(gold, list) or not gold or not all(isinstance(a, str) for a in gold):
                problems.append("gold_answers must be a nonempty array of strings")
        qemb = obj.get("question_embedding")
        if qemb is not None:
            problems.extend(_check_vector(qemb, "question_embedding"))
        if not problems and isinstance(query_id, str):
            if query_id in seen:
                problems.append(f"duplicate query_id {query_id!r}")
            else:
                seen.add(query_id)
        if not problems and qemb is not None:
            if embed_dim is None:
                embed_dim = len(qemb)
            elif len(qemb) != embed_dim:
                problems.append(
                    f"question_embedding dimension {len(qemb)} differs from {embed_dim}"
                )
        if problems:
            row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
            continue
        records.append(
            QueryRecord(
                query_id=query_id,
                text=text,
                group=group,
                gold_answers=tuple(gold) if gold is not None else None,
                question_embedding=tuple(map(float, qemb)) if qemb is not None else None,
                extra=_extra_of(obj, _QUERY_FIELDS),
            )
        )
    return records, diagnostics + row_diagnostics


def load_queries(path: str) -> list[QueryRecord]:
    records, diagnostics = scan_queries(path)
    _raise_if_any(diagnostics)
    return records


# ---------------------------------------------------------------------------
# generations
# ---------------------------------------------------------------------------


def scan_generation_records(path: str) -> tuple[list[GenerationRecord], list[Diagnostic]]:
    """Row-level parse of a generations file (no query cross-checks)."""
    diagnostics: list[Diagnostic] = []
    row_diagnostics: list[Diagnostic] = []
    records: list[GenerationRecord] = []
    seen: set[tuple[str, int]] = set()
    embed_dim: int | None = None
    for lineno, obj in _objects(path, diagnostics):
        problems: list[str] = []
        query_id = obj.get("query_id")
        if not isinstance(query_id, str) or not query_id:
            problems.append("query_id must be a nonempty string")
        sample_index = obj.get("sample_index")
        if not isinstance(sample_index, int) or isinstance(sample_index, bool) or sample_index < 0:
            problems.append("sample_index must be a nonnegative integer")
        response_text = obj.get("response_text")
        if not isinstance(response_text, str):
            problems.append("response_text must be a string")
        answer = obj.get("answer")
        if answer is not None and not isinstance(answer, str):
            problems.append("answer must be a string when present")
        token_lp = obj.get("token_logprobs")
        problems.extend(_check_vector(token_lp, "token_logprobs", max_value=0.0))
        ans_lp = obj.get("answer_token_logprobs")
        if ans_lp is not None:
            problems.extend(_check_vector(ans_lp, "answer_token_logprobs", max_value=0.0))
        embedding = obj.get("embedding")
        problems.extend(_check_vector(embedding, "embedding"))
        meta = obj.get("sampling_meta")
        if meta is not None and not isinstance(meta, dict):
            problems.append("sampling_meta must be an object when present")
        if not problems:
            pair = (query_id, sample_index)
            if pair in seen:
                problems.append(f"duplicate (query_id, sample_index) {pair!r}")
            else:
                seen.add(pair)
        if not problems:
            if embed_dim is None:
                embed_dim = len(embedding)
            elif len(embedding) != embed_dim:
                problems.append(
                    f"query {query_id}: embedding dimension {len(embedding)} "
                    f"differs from {embed_dim}"
                )
        if problems:
            row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
            continue
        records.append(
            GenerationRecord(
                query_id=query_id,
                sample_index=sample_index,
                response_text=response_text,
                token_logprobs=tuple(map(float, token_lp)),
                embedding=tuple(map(float, embedding)),
                answer=answer,
                answer_token_logprobs=tuple(map(float, ans_lp)) if ans_lp is not None else None,
                sampling_meta=meta,
                extra=_extra_of(obj, _GENERATION_FIELDS),
            )
        )
    return records, diagnostics + row_diagnostics


def load_generation_records(path: str) -> list[GenerationRecord]:
    records, diagnostics = scan_generation_records(path)
    _raise_if_any(diagnostics)
    return records


def group_generations(
    queries: Sequence[QueryRecord],
    rows: Sequence[GenerationRecord],
    *,
    path: str = "<generations>",
) -> tuple[list[SampleSet], list[Diagnostic]]:
    """Group validated generation rows into per-query sample sets.

    Rows referencing an unknown query are diagnostics (orphans).  Queries with
    zero generations are dropped with a warning: partial generation logs are a
    fact of life and should not fail a whole run.
    """
    diagnostics: list[Diagnostic] = []
    by_query: dict[str, list[GenerationRecord]] = {q.query_id: [] for q in queries}
    for row in rows:
        bucket = by_query.get(row.query_id)
        if bucket is None:
            diagnostics.append(
                Diagnostic(path, None, f"generation references unknown query_id {row.query_id!r}")
            )
            continue
        bucket.append(row)
    sets: list[SampleSet] = []
    dropped: list[str] = []
    for query in queries:
        bucket = by_query[query.query_id]
        if not bucket:
            dropped.append(query.query_id)
            continue
        bucket.sort(key=lambda r: r.sample_index)
        sets.append(SampleSet(query=query, samples=tuple(bucket)))
    if dropped:
        preview = ", ".join(dropped[:5])
        more = "" if len(dropped) <= 5 else f" (+{len(dropped) - 5} more)"
        log.warning("dropping %d queries with zero generations: %s%s", len(dropped), preview, more)
    return sets, diagnostics


def load_generations(path: str, queries: Sequence[QueryRecord]) -> list[SampleSet]:
    rows, diagnostics = scan_generation_records(path)
    if not diagnostics:
        sets, diagnostics = group_generations(queries, rows, path=path)
    else:
        sets = []
    _raise_if_any(diagnostics)
    return sets


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def scan_labels(
    path: str, sets: Sequence[SampleSet] | None = None
) -> tuple[list[CorrectnessLabel], list[Diagnostic]]:
    diagnostics: list[Diagnostic] = []
    row_diagnostics: list[Diagnostic] = []
    labels: list[CorrectnessLabel] = []
    seen: set[tuple[str, int]] = set()
    known: set[tuple[str, int]] | None = None
    if sets is not None:
        known = {(s.query_id, g.sample_index) for s in sets for g in s.samples}
    for lineno, obj in _objects(path, diagnostics):
        problems: list[str] = []
        query_id = obj.get("query_id")
        if not isinstance(query_id, str) or not query_id:
            problems.append("query_id must be a nonempty string")
        sample_index = obj.get("sample_index")
        if not isinstance(sample_index, int) or isinstance(sample_index, bool) or sample_index < 0:
            problems.append("sample_index must be a nonnegative integer")
        z = obj.get("z")
        if not isinstance(z, int) or isinstance(z, bool) or z not in (0, 1):
            problems.append("z must be 0 or 1")
        if not problems:
            pair = (query_id, sample_index)
            if pair in seen:
                problems.append(f"duplicate label for {pair!r}")
            elif known is not None and pair not in known:
                problems.append(f"label references unknown generation {pair!r}")
            else:
                seen.add(pair)
        if problems:
            row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
            continue
        labels.append(CorrectnessLabel(query_id=query_id, sample_index=sample_index, z=z))
    return labels, diagnostics + row_diagnostics


def load_labels(path: str, sets: Sequence[SampleSet] | None = None) -> list[CorrectnessLabel]:
    labels, diagnostics = scan_labels(path, sets)
    _raise_if_any(diagnostics)
    if sets:
        total = sum(s.k for s in sets)
        if total:
            log.info("label coverage: %d of %d generations (%.1f%%)", len(labels), total, 100.0 * len(labels) / total)
    return labels


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _dump(obj: dict[str, Any]) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _record_object(fields: list[tuple[str, Any]], extra: Mapping[str, Any]) -> dict[str, Any]:
    obj = {name: value for name, value in fields if value is not None}
    for key in sorted(extra):
        obj.setdefault(key, extra[key])
    return obj


def write_queries(path: str, queries: Iterable[QueryRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for q in queries:
            obj = _record_object(
                [
                    ("query_id", q.query_id),
                    ("text", q.text),
                    ("group", q.group),
                    ("gold_answers", list(q.gold_answers) if q.gold_answers is not None else None),
                    (
                        "question_embedding",
                        list(q.question_embedding) if q.question_embedding is not None else None,
                    ),
                ],
                q.extra,
            )
            handle.write(_dump(obj) + "\n")


def write_generations(path: str, rows: Iterable[GenerationRecord | SampleSet]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            if isinstance(row, SampleSet):
                for sample in row.samples:
                    handle.write(_dump(_generation_object(sample)) + "\n")
            else:
                handle.write(_dump(_generation_object(row)) + "\n")


def _generation_object(g: GenerationRecord) -> dict[str, Any]:
    return _record_object(
        [
            ("query_id", g.query_id),
            ("sample_index", g.sample_index),
            ("response_text", g.response_text),
            ("answer", g.answer),
            ("token_logprobs", list(g.token_logprobs)),
            (
                "answer_token_logprobs",
                list(g.answer_token_logprobs) if g.answer_token_logprobs is not None else None,
            ),
            ("embedding", list(g.embedding)),
            ("sampling_meta", dict(g.sampling_meta) if g.sampling_meta is not None else None),
        ],
        g.extra,
    )


def write_labels(path: str, labels: Iterable[CorrectnessLabel]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for label in labels:
            obj = {"query_id": label.query_id, "sample_index": label.sample_index, "z": label.z}
            handle.write(_dump(obj) + "\n")


def _raise_if_any(diagnostics: Sequence[Diagnostic]) -> None:
    if not diagnostics:
        return
    first = diagnostics[0]
    suffix = "" if len(diagnostics) == 1 else f" (+{len(diagnostics) - 1} more)"
    raise RecordError(str(first) + suffix, path=first.path, line=first.line)


def validate_files(
    queries_path: str,
    generations_path: str | None = None,
    labels_path: str | None = None,
) -> list[Diagnostic]:
    """Collect every diagnostic across a dataset's files."""
    queries, diagnostics = scan_queries(queries_path)
    sets: list[SampleSet] | None = None
    if generations_path is not None:
        rows, gen_diags = scan_generation_records(generations_path)
        diagnostics.extend(gen_diags)
        if not gen_diags:
            sets, group_diags = group_generations(queries, rows, path=generations_path)
            diagnostics.extend(group_diags)
    if labels_path is not None:
        _, label_diags = scan_labels(labels_path, sets)
        diagnostics.extend(label_diags)
    return diagnostics
