"""Line-delimited record files for queries, generations, and labels.

Every dataset is a set of UTF-8 text files with one JSON object per line:

``queries.jsonl``
    ``{"query_id", "text", "group", "gold_answers"?, "question_embedding"?}``
``generations.jsonl``
    ``{"query_id", "sample_index", "response_text", "answer"?,
    "token_logprobs", "answer_token_logprobs"?, "embedding", "sampling_meta"?}``
``labels.jsonl``
    ``{"query_id", "sample_index", "z"}`` with ``z`` in ``{0, 1}``

Queries load as one record object per line.  Generations load into one
columnar :class:`GenerationBatch`, their only in-memory form, and a
:class:`SampleSet` is a query plus the positions of its rows in that batch.
Labels load as ``z``, an ``int8`` column over the rows of the sets' shared
batch with -1 for a row without a label.  Unknown keys are preserved (in
``extra``) and written back on export, but carry no meaning here.

Validation is total: every malformed line yields a diagnostic naming the
file and line, and a loader never returns a partially constructed dataset.
The generation loader checks each line's fields as it reads it, but tests
the entries of its vector fields once per column, after the last line: a
whole-column pass, then an entry-by-entry walk of the rows holding a bad
entry only.  The duplicate and dimension checks run after that pass, so a
row is judged against the valid rows before it, as if every line had been
checked in full before the next was read.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass, field, fields
from itertools import compress
from json.encoder import encode_basestring
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, RecordError, is_finite_real, json_error_reason

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
# Fields each loader checks itself; NaN or Infinity anywhere else in a line
# (unknown keys, sampling_meta) is a problem of its own.
_CHECKED_GENERATION_FIELDS = _GENERATION_FIELDS - {"sampling_meta"}
_LABEL_FIELDS = frozenset(("query_id", "sample_index", "z"))
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


@dataclass(frozen=True, eq=False)
class GenerationBatch:
    """Generation rows held as columns.

    Rows ``query_offsets[r]:query_offsets[r + 1]`` are a run of consecutive
    rows that share the query id ``query_ids[r]``.  Row ``i`` has the token
    log-probabilities ``token_logprobs[token_offsets[i]:token_offsets[i + 1]]``,
    the answer-span ones ``answer_token_logprobs[answer_token_offsets[i]:...]``
    (an empty segment: the row has none) and the embedding ``embedding[i]``;
    the other columns hold one entry per row, ``None`` for an absent answer
    or ``sampling_meta``.  ``extra`` holds each row's unknown keys; rows
    without any share :data:`NO_EXTRA`.  The arrays are read-only.
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
    extra: tuple[Mapping[str, Any], ...]

    def __post_init__(self) -> None:
        for column in fields(self):
            value = getattr(self, column.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.sample_index)

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
        return f"GenerationBatch({len(self.query_ids)} query runs, {len(self)} rows)"

    def query_id_of(self, row: int) -> str:
        return self.query_ids[int(np.searchsorted(self.query_offsets, row, side="right")) - 1]

    def token_row(self, row: int) -> np.ndarray:
        return self.token_logprobs[self.token_offsets[row] : self.token_offsets[row + 1]]

    def answer_token_row(self, row: int) -> np.ndarray | None:
        """The row's answer-span log-probabilities, or None when it has none."""
        start, stop = self.answer_token_offsets[row : row + 2]
        return self.answer_token_logprobs[start:stop] if stop > start else None


# The ``extra`` of every generation row without unknown keys.
NO_EXTRA: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True)
class SampleSet:
    """One query's logged generations: the positions of its rows in a shared
    batch, ordered by sample_index.  ``rows[0]`` is the deployment response."""

    query: QueryRecord
    batch: GenerationBatch
    rows: tuple[int, ...]

    @property
    def query_id(self) -> str:
        return self.query.query_id

    @property
    def k(self) -> int:
        return len(self.rows)


def _check_vector(value: Any, name: str, *, max_value: float | None = None) -> list[str]:
    if not isinstance(value, list) or not value:
        return [f"{name} must be a nonempty array of numbers"]
    for entry in value:
        if not is_finite_real(entry):
            return [f"{name} contains a non-finite or non-numeric entry"]
        if max_value is not None and entry > max_value:
            return [f"{name} contains an entry above {max_value:g}"]
    return []


def json_lines(
    path: str, constants: list[str] | None = None
) -> Iterator[tuple[int, Any, str | None]]:
    """Decode each line of a JSONL file: ``(lineno, value, None)``, or
    ``(lineno, None, reason)`` for a line that is not JSON.

    Lines split as in text mode (``\\n``, ``\\r\\n`` or a lone ``\\r``).  A line
    holding bytes that are not UTF-8 gets the reason ``not UTF-8 text`` and
    reading goes on with the next line.  When ``constants`` is given, it
    holds the ``NaN``, ``Infinity`` and ``-Infinity`` tokens of the line last
    decoded; they still decode to floats.
    """

    def constant(token: str) -> float:
        constants.append(token)  # type: ignore[union-attr]
        return float(token)

    # One decoder for the file: json.loads with a hook would build one a line.
    decode = json.JSONDecoder(parse_constant=None if constants is None else constant).decode
    # surrogateescape turns each undecodable byte into a lone surrogate,
    # which text decoded from UTF-8 never holds and which cannot be encoded.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if constants:
                constants.clear()
            try:
                if not raw.isascii():
                    raw.encode("utf-8")
                    if raw.startswith("\ufeff"):  # which json.loads rejects
                        raise json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0
                        )
                value = decode(raw.rstrip("\n"))
            except (ValueError, RecursionError) as exc:
                yield lineno, None, json_error_reason(exc)
                continue
            yield lineno, value, None


def _holds_non_finite(value: Any) -> bool:
    """True when a decoded JSON value holds a NaN or infinite float anywhere."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, float) and not math.isfinite(item):
            return True
        if isinstance(item, (dict, list)):
            stack.extend(item.values() if isinstance(item, dict) else item)
    return False


def _objects(
    path: str, diagnostics: list[Diagnostic], checked: frozenset[str]
) -> Iterator[tuple[int, dict, list[str]]]:
    """Yield each line that decodes to a JSON object, diagnosing the others.

    Each object comes with its first problems: one for every top-level field
    outside ``checked`` (the fields the caller validates itself) that holds
    ``NaN`` or ``Infinity``, which JSON does not allow.  Only lines holding
    such a token are walked.

    Lines are read one at a time, so a caller that validates and converts
    each object before asking for the next keeps one decoded row alive.
    Callers hold their row diagnostics apart and report them after these.
    """
    constants: list[str] = []
    for lineno, obj, reason in json_lines(path, constants):
        if reason is not None:
            diagnostics.append(Diagnostic(path, lineno, f"invalid JSON ({reason})"))
        elif not isinstance(obj, dict):
            diagnostics.append(Diagnostic(path, lineno, "record must be a JSON object"))
        elif constants:
            yield lineno, obj, [
                f"{key} contains NaN or Infinity"
                for key, value in obj.items()
                if key not in checked and _holds_non_finite(value)
            ]
        else:
            yield lineno, obj, []


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
    for lineno, obj, problems in _objects(path, diagnostics, _QUERY_FIELDS):
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


def scan_generation_records(path: str) -> tuple[GenerationBatch, list[Diagnostic]]:
    """Row-level parse of a generations file (no query cross-checks).

    Valid rows fill the batch in file order; a new query run starts
    wherever the query id changes.  The vector entries of the rows whose
    other fields pass are tested a column at a time after the last line
    (see the module docstring), and only then are those rows checked for
    duplicates and embedding dimension, in line order.
    """
    diagnostics: list[Diagnostic] = []
    row_diagnostics: list[Diagnostic] = []
    # Rows whose fields pass the line checks ("candidates"), as columns.
    lines = array("q")
    ids: list[str] = []
    indices: list[int] = []
    texts: list[str] = []
    answers: list[str | None] = []
    metas: list[Mapping[str, Any] | None] = []
    extras: list[Mapping[str, Any]] = []
    tokens, spans, embeddings = array("d"), array("d"), array("d")
    token_ends, span_ends, embedding_ends = array("q", [0]), array("q", [0]), array("q", [0])
    numbers = _NUMBER_TYPES.issuperset
    for lineno, obj, problems in _objects(path, diagnostics, _CHECKED_GENERATION_FIELDS):
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
        ans_lp = obj.get("answer_token_logprobs")
        embedding = obj.get("embedding")
        meta = obj.get("sampling_meta")
        # A row whose vectors are nonempty lists of JSON numbers (booleans
        # excluded) and whose other fields pass goes into the columns; its
        # entries are tested there after the last line.  Any other row is
        # checked in full here.
        if (
            not problems
            and type(token_lp) is list and token_lp and numbers(map(type, token_lp))
            and (
                ans_lp is None
                or type(ans_lp) is list and ans_lp and numbers(map(type, ans_lp))
            )
            and type(embedding) is list and embedding and numbers(map(type, embedding))
            and (meta is None or isinstance(meta, dict))
        ):
            try:
                tokens.fromlist(token_lp)
                spans.fromlist(ans_lp or [])
                embeddings.fromlist(embedding)
            except OverflowError:  # an integer too large for a float
                # The failing fromlist left its column unchanged.
                del tokens[token_ends[-1] :], spans[span_ends[-1] :]
            else:
                token_ends.append(len(tokens))
                span_ends.append(len(spans))
                embedding_ends.append(len(embeddings))
                lines.append(lineno)
                ids.append(query_id)
                indices.append(sample_index)
                texts.append(response_text)
                answers.append(answer)
                metas.append(meta)
                extras.append(_extra_of(obj, _GENERATION_FIELDS) or NO_EXTRA)
                continue
        problems.extend(_check_vector(token_lp, "token_logprobs", max_value=0.0))
        if ans_lp is not None:
            problems.extend(_check_vector(ans_lp, "answer_token_logprobs", max_value=0.0))
        problems.extend(_check_vector(embedding, "embedding"))
        if meta is not None and not isinstance(meta, dict):
            problems.append("sampling_meta must be an object when present")
        row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
    columns = (
        (tokens, token_ends, "token_logprobs", 0.0),
        (spans, span_ends, "answer_token_logprobs", 0.0),
        (embeddings, embedding_ends, "embedding", None),
    )
    failing = set().union(
        *(_failing_rows(values, ends, max_value) for values, ends, _, max_value in columns)
    )
    # Duplicates, dimensions and query runs, judged over the rows that passed.
    seen: set[tuple[str, int]] = set()
    embed_dim: int | None = None
    keep: list[bool] = []
    query_ids: list[str] = []
    run_starts: list[int] = []
    kept = 0
    for c, (lineno, query_id, sample_index) in enumerate(zip(lines, ids, indices)):
        if c in failing:
            problems = _walked_problems(columns, c)
        else:
            problems = []
            pair = (query_id, sample_index)
            if pair in seen:
                problems.append(f"duplicate (query_id, sample_index) {pair!r}")
            else:
                seen.add(pair)
                dim = embedding_ends[c + 1] - embedding_ends[c]
                if embed_dim is None:
                    embed_dim = dim
                elif dim != embed_dim:
                    problems.append(
                        f"query {query_id}: embedding dimension {dim} differs from {embed_dim}"
                    )
        keep.append(not problems)
        if problems:
            row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
            continue
        if not query_ids or query_ids[-1] != query_id:
            query_ids.append(query_id)
            run_starts.append(kept)
        kept += 1
    row_diagnostics.sort(key=lambda d: d.line)
    mask = np.array(keep, dtype=bool)
    token_values, token_offsets = _kept_segments(tokens, token_ends, mask)
    span_values, span_offsets = _kept_segments(spans, span_ends, mask)
    embedding_values, _ = _kept_segments(embeddings, embedding_ends, mask)
    batch = GenerationBatch(
        query_ids=tuple(query_ids),
        query_offsets=np.array(run_starts + [kept], dtype=np.intp),
        sample_index=tuple(compress(indices, keep)),
        response_text=tuple(compress(texts, keep)),
        answer=tuple(compress(answers, keep)),
        token_logprobs=token_values,
        token_offsets=token_offsets,
        answer_token_logprobs=span_values,
        answer_token_offsets=span_offsets,
        embedding=embedding_values.reshape(kept, embed_dim or 0),
        sampling_meta=tuple(compress(metas, keep)),
        extra=tuple(compress(extras, keep)),
    )
    return batch, diagnostics + row_diagnostics


def _failing_rows(values: array, ends: array, max_value: float | None) -> set[int]:
    """The rows of a flat column holding an entry that is not finite or is
    above ``max_value``."""
    column = np.frombuffer(values, dtype=float)
    bad = ~np.isfinite(column)
    if max_value is not None:
        bad |= column > max_value
    return set((np.searchsorted(ends, np.flatnonzero(bad), side="right") - 1).tolist())


def _walked_problems(
    columns: Sequence[tuple[array, array, str, float | None]], row: int
) -> list[str]:
    """The problems of one row's vector fields, found entry by entry."""
    problems = []
    for values, ends, name, max_value in columns:
        start, stop = ends[row], ends[row + 1]
        if stop > start:  # an empty answer-span segment: the row has no such field
            problems += _check_vector(values[start:stop].tolist(), name, max_value=max_value)
    return problems


def _kept_segments(
    values: array, ends: array, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A flat column and its row offsets, reduced to the rows ``keep`` marks."""
    column = np.frombuffer(values, dtype=float)
    offsets = np.array(ends, dtype=np.intp)
    if keep.all():
        return column, offsets
    lengths = np.diff(offsets)
    kept = np.concatenate(([0], np.cumsum(lengths[keep]))).astype(np.intp)
    return column[np.repeat(keep, lengths)], kept


def load_generation_records(path: str) -> GenerationBatch:
    batch, diagnostics = scan_generation_records(path)
    _raise_if_any(diagnostics)
    return batch


def group_generations(
    queries: Sequence[QueryRecord],
    batch: GenerationBatch,
    *,
    path: str = "<generations>",
) -> tuple[list[SampleSet], list[Diagnostic]]:
    """Group validated generation rows into per-query sample sets.

    Each set holds the positions of its query's rows in ``batch``, ordered
    by ``sample_index`` (a stable sort); no row is copied.  Rows referencing
    an unknown query are diagnostics (orphans), one per row.  Queries with
    zero generations are dropped with a warning: partial generation logs are
    a fact of life and should not fail a whole run.
    """
    diagnostics: list[Diagnostic] = []
    position = {q.query_id: p for p, q in enumerate(queries)}
    offsets = batch.query_offsets.tolist()
    rows: list[list[int]] = [[] for _ in queries]
    for run, query_id in enumerate(batch.query_ids):
        start, stop = offsets[run], offsets[run + 1]
        p = position.get(query_id)
        if p is None:
            message = f"generation references unknown query_id {query_id!r}"
            diagnostics.extend(Diagnostic(path, None, message) for _ in range(start, stop))
        else:
            rows[p].extend(range(start, stop))
    sets: list[SampleSet] = []
    dropped: list[str] = []
    for query, query_rows in zip(queries, rows):
        if not query_rows:
            dropped.append(query.query_id)
            continue
        query_rows.sort(key=batch.sample_index.__getitem__)
        sets.append(SampleSet(query=query, batch=batch, rows=tuple(query_rows)))
    if dropped:
        preview = ", ".join(dropped[:5])
        more = "" if len(dropped) <= 5 else f" (+{len(dropped) - 5} more)"
        log.warning("dropping %d queries with zero generations: %s%s", len(dropped), preview, more)
    return sets, diagnostics


def load_generations(path: str, queries: Sequence[QueryRecord]) -> list[SampleSet]:
    batch, diagnostics = scan_generation_records(path)
    if not diagnostics:
        sets, diagnostics = group_generations(queries, batch, path=path)
    else:
        sets = []
    _raise_if_any(diagnostics)
    return sets


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def shared_batch(sets: Sequence[SampleSet]) -> GenerationBatch | None:
    """The one generation batch whose rows every set indexes (None for no sets)."""
    if not sets:
        return None
    batch = sets[0].batch
    if any(s.batch is not batch for s in sets):
        raise DataError("the sample sets index more than one generation batch")
    return batch


def scan_labels(
    path: str, sets: Sequence[SampleSet] | None = None
) -> tuple[np.ndarray, list[Diagnostic]]:
    """Parse and validate a labels file into an ``int8`` column ``z``.

    With ``sets``, ``z`` has an entry per row of their shared batch: the
    row's label, or -1 when it has none.  A label is known only if its
    ``(query_id, sample_index)`` is a row of one of the sets, and it is a
    duplicate when its row is already labelled.  Without sets, only the
    line checks and the duplicate check run, and ``z`` is empty: there are
    no rows to align the labels with.
    """
    diagnostics: list[Diagnostic] = []
    row_diagnostics: list[Diagnostic] = []
    z: list[int] = []
    seen: set[tuple[str, int]] = set()
    row_of: dict[tuple[str, int], int] | None = None
    if sets is not None:
        batch = shared_batch(sets)
        z = [-1] * (0 if batch is None else len(batch))
        row_of = {(s.query_id, s.batch.sample_index[i]): i for s in sets for i in s.rows}
    for lineno, obj, problems in _objects(path, diagnostics, _LABEL_FIELDS):
        query_id = obj.get("query_id")
        if not isinstance(query_id, str) or not query_id:
            problems.append("query_id must be a nonempty string")
        sample_index = obj.get("sample_index")
        if not isinstance(sample_index, int) or isinstance(sample_index, bool) or sample_index < 0:
            problems.append("sample_index must be a nonnegative integer")
        label = obj.get("z")
        if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
            problems.append("z must be 0 or 1")
        if not problems:
            pair = (query_id, sample_index)
            if row_of is None:
                if pair in seen:
                    problems.append(f"duplicate label for {pair!r}")
                else:
                    seen.add(pair)
            else:
                row = row_of.get(pair)
                if row is None:
                    problems.append(f"label references unknown generation {pair!r}")
                elif z[row] >= 0:
                    problems.append(f"duplicate label for {pair!r}")
                else:
                    z[row] = label
        if problems:
            row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
    return np.array(z, dtype=np.int8), diagnostics + row_diagnostics


def load_labels(path: str, sets: Sequence[SampleSet]) -> np.ndarray:
    """The ``z`` column of :func:`scan_labels` over the rows of ``sets``'
    shared batch; raises on any diagnostic."""
    z, diagnostics = scan_labels(path, sets)
    _raise_if_any(diagnostics)
    if sets:
        total = sum(s.k for s in sets)
        if total:
            labelled = int(np.count_nonzero(z >= 0))
            log.info(
                "label coverage: %d of %d generations (%.1f%%)",
                labelled, total, 100.0 * labelled / total,
            )
    return z


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


def _extra_text(
    extra: Mapping[str, Any], known: frozenset[str], values: Mapping[str, Any]
) -> str:
    """The ``extra`` keys that no written field took, in sorted order: the
    unknown keys, and those of fields whose value in ``values`` is None."""
    return "".join(
        "," + _dump({key: extra[key]})[1:-1]
        for key in sorted(extra)
        if key not in known or (key in values and values[key] is None)
    )


def _query_line(q: QueryRecord) -> str:
    return _QUERY_LINE.format(
        _json_text(q.query_id),
        _json_text(q.text),
        _json_text(q.group),
        _optional("gold_answers", q.gold_answers, lambda gold: _dump(list(gold))),
        _optional("question_embedding", q.question_embedding, lambda v: f"[{_numbers(v)}]"),
        _extra_text(q.extra, _QUERY_FIELDS, vars(q)),
    )


def _segment_texts(
    values: np.ndarray, offsets: np.ndarray, start: int, stop: int
) -> list[list[str]]:
    """The json texts of rows ``start:stop`` of a flat float column."""
    ends = offsets[start : stop + 1].tolist()
    base = ends[0]
    texts = _float_texts(values[base : ends[-1]])
    return [texts[a - base : b - base] for a, b in zip(ends, ends[1:])]


def _batch_lines(batch: GenerationBatch) -> Iterator[list[str]]:
    """The lines of a batch, one list per query run, formatted from its columns."""
    offsets = batch.query_offsets.tolist()
    dim = batch.embedding.shape[1]
    meta: Any = None
    meta_text = ""
    for run, query_id in enumerate(batch.query_ids):
        start, stop = offsets[run], offsets[run + 1]
        head = encode_basestring(query_id)
        tokens = _segment_texts(batch.token_logprobs, batch.token_offsets, start, stop)
        spans = _segment_texts(
            batch.answer_token_logprobs, batch.answer_token_offsets, start, stop
        )
        embeddings = _float_texts(batch.embedding[start:stop].ravel())
        lines = []
        for row, i in enumerate(range(start, stop)):
            if batch.sampling_meta[i] is not meta:
                meta = batch.sampling_meta[i]
                meta_text = _optional("sampling_meta", meta, lambda m: _dump(dict(m)))
            answer, span, extra = batch.answer[i], spans[row], batch.extra[i]
            extra_text = ""
            if extra:
                values = {"answer": answer, "answer_token_logprobs": span or None,
                          "sampling_meta": meta}
                extra_text = _extra_text(extra, _GENERATION_FIELDS, values)
            lines.append(
                _GENERATION_LINE.format(
                    head,
                    batch.sample_index[i],
                    encode_basestring(batch.response_text[i]),
                    "" if answer is None else ',"answer":' + encode_basestring(answer),
                    ",".join(tokens[row]),
                    ',"answer_token_logprobs":[' + ",".join(span) + "]" if span else "",
                    ",".join(embeddings[row * dim : (row + 1) * dim]),
                    meta_text,
                    extra_text,
                )
            )
        yield lines


def write_queries(path: str, queries: Iterable[QueryRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(map(_query_line, queries))


def write_generations(path: str, batch: GenerationBatch) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for lines in _batch_lines(batch):
            handle.writelines(lines)


def write_labels(path: str, batch: GenerationBatch, z: np.ndarray) -> None:
    """Write a line for each labelled row of ``batch`` (``z`` 0 or 1), in row order."""
    if len(z) != len(batch):
        raise DataError(f"z has {len(z)} entries for a batch of {len(batch)} rows")
    labels = np.asarray(z).tolist()
    offsets = batch.query_offsets.tolist()
    with open(path, "w", encoding="utf-8") as handle:
        for run, query_id in enumerate(batch.query_ids):
            head = encode_basestring(query_id)
            handle.writelines(
                _LABEL_LINE.format(head, batch.sample_index[i], labels[i])
                for i in range(offsets[run], offsets[run + 1])
                if labels[i] >= 0
            )


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
        batch, gen_diags = scan_generation_records(generations_path)
        diagnostics.extend(gen_diags)
        if not gen_diags:
            sets, group_diags = group_generations(queries, batch, path=generations_path)
            diagnostics.extend(group_diags)
    if labels_path is not None:
        _, label_diags = scan_labels(labels_path, sets)
        diagnostics.extend(label_diags)
    return diagnostics
