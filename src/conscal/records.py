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
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import RecordError, is_finite_real, json_error_reason

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


# Datasets hold one of these per generation: slots keep each instance small.
@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, eq=False)
class GenerationBatch(Sequence[GenerationRecord]):
    """Generation rows held as columns, grouped by query.

    Rows ``query_offsets[q]:query_offsets[q + 1]`` belong to ``query_ids[q]``.
    Row ``i`` has the token log-probabilities
    ``token_logprobs[token_offsets[i]:token_offsets[i + 1]]``, the answer-span
    ones ``answer_token_logprobs[answer_token_offsets[i]:...]`` and the
    embedding ``embedding[i]``; the other columns hold one entry per row.

    Read as a sequence, the batch gives the ``GenerationRecord`` each row
    stands for.  Iteration converts each query's columns once.
    """

    query_ids: tuple[str, ...]
    query_offsets: np.ndarray
    sample_index: tuple[int, ...]
    response_text: tuple[str, ...]
    answer: tuple[str | None, ...]
    token_logprobs: np.ndarray
    token_offsets: np.ndarray
    answer_token_logprobs: np.ndarray
    answer_token_offsets: np.ndarray
    embedding: np.ndarray
    sampling_meta: tuple[Mapping[str, Any] | None, ...]

    def __post_init__(self) -> None:
        for column in fields(self):
            value = getattr(self, column.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.sample_index)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # negative and out-of-range indices as for a list
        query = int(np.searchsorted(self.query_offsets, i, side="right")) - 1
        return self._records(query, i, i + 1)[0]

    def __iter__(self) -> Iterator[GenerationRecord]:
        offsets = self.query_offsets.tolist()
        for query in range(len(self.query_ids)):
            yield from self._records(query, offsets[query], offsets[query + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenerationBatch):
            return NotImplemented
        for column in fields(self):
            mine, theirs = getattr(self, column.name), getattr(other, column.name)
            same = np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            if not same:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GenerationBatch({len(self.query_ids)} queries, {len(self)} rows)"

    def _records(self, query: int, start: int, stop: int) -> list[GenerationRecord]:
        """The records of rows ``start:stop``, all of them in ``query``."""
        tokens = _segments(self.token_logprobs, self.token_offsets, start, stop, _floats)
        spans = _segments(
            self.answer_token_logprobs, self.answer_token_offsets, start, stop, _floats
        )
        query_id = self.query_ids[query]
        return [
            GenerationRecord(
                query_id=query_id,
                sample_index=self.sample_index[i],
                response_text=self.response_text[i],
                token_logprobs=token_row,
                embedding=tuple(embedding),
                answer=self.answer[i],
                answer_token_logprobs=span_row,
                sampling_meta=self.sampling_meta[i],
            )
            for i, token_row, span_row, embedding in zip(
                range(start, stop), tokens, spans, self.embedding[start:stop].tolist()
            )
        ]


def _floats(values: np.ndarray) -> tuple[float, ...]:
    return tuple(values.tolist())


def _segments(
    values: np.ndarray,
    offsets: np.ndarray,
    start: int,
    stop: int,
    convert: Callable[[np.ndarray], Sequence[Any]],
) -> list[Sequence[Any]]:
    """Rows ``start:stop`` of a flat column, converted once and then sliced."""
    ends = offsets[start : stop + 1].tolist()
    base = ends[0]
    flat = convert(values[base : ends[-1]])
    return [flat[a - base : b - base] for a, b in zip(ends, ends[1:])]


@dataclass(frozen=True, slots=True)
class CorrectnessLabel:
    query_id: str
    sample_index: int
    z: int


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
        if not is_finite_real(entry):
            return [f"{name} contains a non-finite or non-numeric entry"]
        if max_value is not None and entry > max_value:
            return [f"{name} contains an entry above {max_value:g}"]
    return []


def json_lines(path: str) -> Iterator[tuple[int, Any, str | None]]:
    """Decode each line of a JSONL file: ``(lineno, value, None)``, or
    ``(lineno, None, reason)`` for a line that is not JSON.

    Lines split as in text mode (``\\n``, ``\\r\\n`` or a lone ``\\r``).  A line
    holding bytes that are not UTF-8 gets the reason ``not UTF-8 text`` and
    reading goes on with the next line.
    """
    # surrogateescape turns each undecodable byte into a lone surrogate,
    # which text decoded from UTF-8 never holds and which cannot be encoded.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                if not raw.isascii():
                    raw.encode("utf-8")
                value = json.loads(raw.rstrip("\n"))
            except (ValueError, RecursionError) as exc:
                yield lineno, None, json_error_reason(exc)
                continue
            yield lineno, value, None


def _objects(path: str, diagnostics: list[Diagnostic]) -> Iterator[tuple[int, dict]]:
    """Yield each line that decodes to a JSON object, diagnosing the others.

    Lines are read one at a time, so a caller that validates and converts
    each object before asking for the next keeps one decoded row alive.
    Callers hold their row diagnostics apart and report them after these.
    """
    for lineno, obj, reason in json_lines(path):
        if reason is not None:
            diagnostics.append(Diagnostic(path, lineno, f"invalid JSON ({reason})"))
        elif not isinstance(obj, dict):
            diagnostics.append(Diagnostic(path, lineno, "record must be a JSON object"))
        else:
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
#
# Each line is formatted from a fixed template and is the same text that
# ``json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`` writes for
# the record's object: known fields in a fixed order, absent optional fields
# left out, then the ``extra`` keys that no written field took, sorted.
# json writes a string with ``encode_basestring`` and a finite float with
# ``float.__repr__``; the writers call those directly where the types allow.

# An optional field's slot holds "" or the field's comma, key and value.
_QUERY_LINE = '{{"query_id":{},"text":{},"group":{}{}{}{}}}\n'
_GENERATION_LINE = (
    '{{"query_id":{},"sample_index":{},"response_text":{}{},"token_logprobs":[{}]{},'
    '"embedding":[{}]{}{}}}\n'
)
_LABEL_LINE = '{{"query_id":{},"sample_index":{},"z":{}}}\n'
_FLOAT = frozenset((float,))


def _dump(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _json_text(value: Any) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    return _dump(value)


def _numbers(values: Sequence[Any]) -> str:
    """The json text of a vector, without its brackets.

    Finite exact floats are written with ``float.__repr__``, as json writes
    them; any other entry sends the whole vector through json.
    """
    if _FLOAT.issuperset(map(type, values)):
        try:
            finite = math.isfinite(math.fsum(values))
        except (OverflowError, ValueError):
            finite = False
        if finite:
            return ",".join(map(float.__repr__, values))
    return _dump(list(values))[1:-1]


def _float_texts(values: np.ndarray) -> list[str]:
    """The json text of each entry of a float column."""
    floats = values.tolist()
    if np.isfinite(values).all():
        return list(map(float.__repr__, floats))
    return [_dump(value) for value in floats]


def _optional(key: str, value: Any, text: Callable[[Any], str] = _json_text) -> str:
    return "" if value is None else f',"{key}":{text(value)}'


def _extra_text(record: QueryRecord | GenerationRecord, known: frozenset[str]) -> str:
    """The ``extra`` keys that no written field took, in sorted order."""
    extra = record.extra
    return "".join(
        "," + _dump({key: extra[key]})[1:-1]
        for key in sorted(extra)
        if key not in known or getattr(record, key) is None
    )


def _query_line(q: QueryRecord) -> str:
    return _QUERY_LINE.format(
        _json_text(q.query_id),
        _json_text(q.text),
        _json_text(q.group),
        _optional("gold_answers", q.gold_answers, lambda gold: _dump(list(gold))),
        _optional("question_embedding", q.question_embedding, lambda v: f"[{_numbers(v)}]"),
        _extra_text(q, _QUERY_FIELDS),
    )


def _generation_line(g: GenerationRecord) -> str:
    return _GENERATION_LINE.format(
        _json_text(g.query_id),
        _json_text(g.sample_index),
        _json_text(g.response_text),
        _optional("answer", g.answer),
        _numbers(g.token_logprobs),
        _optional("answer_token_logprobs", g.answer_token_logprobs, lambda v: f"[{_numbers(v)}]"),
        _numbers(g.embedding),
        _optional("sampling_meta", g.sampling_meta, lambda meta: _dump(dict(meta))),
        _extra_text(g, _GENERATION_FIELDS),
    )


def _label_line(label: CorrectnessLabel) -> str:
    return _LABEL_LINE.format(
        _json_text(label.query_id), _json_text(label.sample_index), _json_text(label.z)
    )


def _batch_lines(batch: GenerationBatch) -> Iterator[list[str]]:
    """The lines of a batch, one list per query, formatted from its columns."""
    offsets = batch.query_offsets.tolist()
    dim = batch.embedding.shape[1]
    meta: Any = None
    meta_text = ""
    for query, query_id in enumerate(batch.query_ids):
        start, stop = offsets[query], offsets[query + 1]
        head = encode_basestring(query_id)
        tokens = _segments(batch.token_logprobs, batch.token_offsets, start, stop, _float_texts)
        spans = _segments(
            batch.answer_token_logprobs, batch.answer_token_offsets, start, stop, _float_texts
        )
        embeddings = _float_texts(batch.embedding[start:stop].ravel())
        lines = []
        for row, i in enumerate(range(start, stop)):
            if batch.sampling_meta[i] is not meta:
                meta = batch.sampling_meta[i]
                meta_text = _optional("sampling_meta", meta, lambda m: _dump(dict(m)))
            answer = batch.answer[i]
            lines.append(
                _GENERATION_LINE.format(
                    head,
                    batch.sample_index[i],
                    encode_basestring(batch.response_text[i]),
                    "" if answer is None else ',"answer":' + encode_basestring(answer),
                    ",".join(tokens[row]),
                    ',"answer_token_logprobs":[' + ",".join(spans[row]) + "]",
                    ",".join(embeddings[row * dim : (row + 1) * dim]),
                    meta_text,
                    "",
                )
            )
        yield lines


def write_queries(path: str, queries: Iterable[QueryRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(map(_query_line, queries))


def write_generations(
    path: str, rows: GenerationBatch | Iterable[GenerationRecord | SampleSet]
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(rows, GenerationBatch):
            for lines in _batch_lines(rows):
                handle.writelines(lines)
            return
        for row in rows:
            samples = row.samples if isinstance(row, SampleSet) else (row,)
            handle.writelines(map(_generation_line, samples))


def write_labels(path: str, labels: Iterable[CorrectnessLabel]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(map(_label_line, labels))


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
