"""The record files: queries, generations, labels, targets and scores.

Every dataset is a set of UTF-8 text files with one JSON object per line:

``queries.jsonl``
    ``{"query_id", "text", "group", "gold_answers"?, "question_embedding"?}``
``generations.jsonl``
    ``{"query_id", "sample_index", "response_text", "answer"?,
    "token_logprobs", "answer_token_logprobs"?, "embedding", "sampling_meta"?}``
``labels.jsonl``
    ``{"query_id", "sample_index", "z"}`` with ``z`` in ``{0, 1}``
``targets.jsonl``
    ``{"query_id", "selected_sample_index", "answer", "s", "k"}``, one
    :class:`ConsistencyTarget` per query
``scores.jsonl``
    ``{"query_id", "sample_index"?, "method", "confidence", "imputed"?}``,
    written by ``conscal score``; no command reads it back

Queries load as one record object per line.  Generations load into one
columnar :class:`GenerationBatch`, their only in-memory form, and one
:class:`SampleSets` groups its rows by query.  Labels load as ``z``, an
``int8`` column over the batch's rows with -1 for a row without a label.  A
record keeps only the fields the pipeline reads: ``sampling_meta`` and
unknown keys are checked (no ``NaN`` or ``Infinity``; ``sampling_meta`` is
an object when present), then dropped.

Validation is total: every malformed line yields a diagnostic naming the
file and line, and a loader never returns a partially constructed dataset.
A string holding an unpaired surrogate escape such as ``"\\ud800"`` makes
its line invalid JSON: no UTF-8 file can hold it, so no writer could write
it back.
The generation loader checks each line's fields as it reads it, but tests
the entries of its vector fields once per column, after the last line: a
whole-column pass, then an entry-by-entry walk of the rows holding a bad
entry only.  The duplicate and dimension checks run after that pass, so a
row is judged against the valid rows before it, as if every line had been
checked in full before the next was read.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import re
import shutil
import signal
import tempfile
from array import array
from dataclasses import asdict, dataclass, fields
from itertools import chain, compress, repeat
from json.encoder import encode_basestring
from typing import (
    Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TextIO,
)

import numpy as np

from .errors import DataError, RecordError, is_finite_real, json_error_reason

log = logging.getLogger(__name__)

# The fields each loader checks itself; NaN or Infinity anywhere else in a
# line (sampling_meta, unknown keys) is a problem of its own.
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
    )
)
_LABEL_FIELDS = frozenset(("query_id", "sample_index", "z"))
_TARGET_FIELDS = frozenset(("query_id", "selected_sample_index", "answer", "s", "k"))
# Exact types of the numbers json.loads returns; bool, a subclass of int,
# is not among them.
_NUMBER_TYPES = frozenset((int, float))
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # \ud800 to \udfff, either case


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


@dataclass(frozen=True, eq=False)
class GenerationBatch:
    """Generation rows held as columns.

    Rows ``query_offsets[r]:query_offsets[r + 1]`` are a run of consecutive
    rows that share the query id ``query_ids[r]``.  Row ``i`` has the token
    log-probabilities ``token_logprobs[token_offsets[i]:token_offsets[i + 1]]``,
    the answer-span ones ``answer_token_logprobs[answer_token_offsets[i]:...]``
    (an empty segment: the row has none) and the embedding ``embedding[i]``;
    the other columns hold one entry per row, ``None`` for an absent answer.
    The arrays are read-only.
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


@dataclass(frozen=True, eq=False)
class SampleSets:
    """Queries and their logged generations, held in one batch.

    Query ``q``'s rows of ``batch`` are ``rows[offsets[q]:offsets[q + 1]]``,
    ordered by sample_index; the first is its deployment response.  The
    arrays are read-only.
    """

    queries: tuple[QueryRecord, ...]
    batch: GenerationBatch
    rows: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        self.rows.flags.writeable = False
        self.offsets.flags.writeable = False

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def query_ids(self) -> tuple[str, ...]:
        return tuple(q.query_id for q in self.queries)

    @property
    def deploy_rows(self) -> np.ndarray:
        """Each query's deployment row, the first of its rows."""
        return self.rows[self.offsets[:-1]]


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


def _check_vector(value: Any, name: str, *, max_value: float | None = None) -> list[str]:
    if not isinstance(value, list) or not value:
        return [f"{name} must be a nonempty array of numbers"]
    for entry in value:
        if not is_finite_real(entry):
            return [f"{name} contains a non-finite or non-numeric entry"]
        if max_value is not None and entry > max_value:
            return [f"{name} contains an entry above {max_value:g}"]
    return []


def _query_id(obj: dict, problems: list[str]) -> Any:
    """The record's ``query_id``, noting a problem unless it is a nonempty string."""
    query_id = obj.get("query_id")
    if not isinstance(query_id, str) or not query_id:
        problems.append("query_id must be a nonempty string")
    return query_id


def _index(obj: dict, name: str, problems: list[str]) -> Any:
    """The record's ``name``, noting a problem unless it is a nonnegative integer."""
    value = obj.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        problems.append(f"{name} must be a nonnegative integer")
    return value


def _scalars(value: Any) -> Iterator[Any]:
    """Every scalar of a decoded JSON value, object keys included."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        else:
            yield item


def decode_json(text: str, decode: Callable[[str], Any] = json.loads) -> Any:
    """``decode(text)``, raising ``json.JSONDecodeError`` with the reason
    ``unpaired surrogate escape`` for a string that holds one; only text
    holding a surrogate escape is walked."""
    value = decode(text)
    escape = _SURROGATE_ESCAPE.search(text)
    if escape and any(type(item) is str and _SURROGATE.search(item) for item in _scalars(value)):
        raise json.JSONDecodeError("unpaired surrogate escape", text, escape.start())
    return value


def json_lines(path: str, constants: list[str]) -> Iterator[tuple[int, Any, str | None]]:
    """Decode each line of a JSONL file: ``(lineno, value, None)``, or
    ``(lineno, None, reason)`` for a line that is not JSON.

    Lines split as in text mode (``\\n``, ``\\r\\n`` or a lone ``\\r``).  A line
    holding bytes that are not UTF-8 gets the reason ``not UTF-8 text`` and
    reading goes on with the next line; so does a line holding an unpaired
    surrogate escape (see :func:`decode_json`).  ``constants`` holds the
    ``NaN``, ``Infinity`` and ``-Infinity`` tokens of the line last decoded;
    they still decode to floats.
    """

    def constant(token: str) -> float:
        constants.append(token)
        return float(token)

    # One decoder for the file: json.loads with a hook would build one a line.
    decode = json.JSONDecoder(parse_constant=constant).decode
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
                value = decode_json(raw, decode)  # JSON reads the "\n" as whitespace
            except (ValueError, RecursionError) as exc:
                yield lineno, None, json_error_reason(exc)
                continue
            yield lineno, value, None


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
                if key not in checked
                and any(type(item) is float and not math.isfinite(item) for item in _scalars(value))
            ]
        else:
            yield lineno, obj, []


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
        query_id = _query_id(obj, problems)
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
        if not problems:
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
    tokens, spans, embeddings = array("d"), array("d"), array("d")
    token_ends, span_ends, embedding_ends = array("q", [0]), array("q", [0]), array("q", [0])
    numbers = _NUMBER_TYPES.issuperset
    for lineno, obj, problems in _objects(path, diagnostics, _GENERATION_FIELDS):
        query_id = _query_id(obj, problems)
        sample_index = _index(obj, "sample_index", problems)
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
) -> tuple[SampleSets, list[Diagnostic]]:
    """Group validated generation rows by query.

    Each query's row positions in ``batch`` are ordered by ``sample_index``
    (a stable sort); no row is copied.  Rows referencing an unknown query
    are diagnostics (orphans), one per row.  Queries with zero generations
    are dropped with a warning: partial generation logs are a fact of life
    and should not fail a whole run.
    """
    diagnostics: list[Diagnostic] = []
    position = {q.query_id: p for p, q in enumerate(queries)}
    offsets = batch.query_offsets.tolist()
    buckets: list[list[int]] = [[] for _ in queries]
    for run, query_id in enumerate(batch.query_ids):
        start, stop = offsets[run], offsets[run + 1]
        p = position.get(query_id)
        if p is None:
            message = f"generation references unknown query_id {query_id!r}"
            diagnostics.extend(Diagnostic(path, None, message) for _ in range(start, stop))
        else:
            buckets[p].extend(range(start, stop))
    for bucket in buckets:
        bucket.sort(key=batch.sample_index.__getitem__)
    sets = SampleSets(
        queries=tuple(q for q, bucket in zip(queries, buckets) if bucket),
        batch=batch,
        rows=np.array(list(chain.from_iterable(buckets)), dtype=np.intp),
        offsets=np.cumsum([0, *(len(b) for b in buckets if b)], dtype=np.intp),
    )
    dropped = [q.query_id for q, bucket in zip(queries, buckets) if not bucket]
    if dropped:
        preview = ", ".join(dropped[:5])
        more = "" if len(dropped) <= 5 else f" (+{len(dropped) - 5} more)"
        log.warning("dropping %d queries with zero generations: %s%s", len(dropped), preview, more)
    return sets, diagnostics


def load_generations(path: str, queries: Sequence[QueryRecord]) -> SampleSets:
    batch, diagnostics = scan_generation_records(path)
    _raise_if_any(diagnostics)
    sets, diagnostics = group_generations(queries, batch, path=path)
    _raise_if_any(diagnostics)
    return sets


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def scan_labels(
    path: str, sets: SampleSets | None = None
) -> tuple[np.ndarray, list[Diagnostic]]:
    """Parse and validate a labels file into an ``int8`` column ``z``.

    With ``sets``, ``z`` has an entry per row of ``sets.batch``: the row's
    label, or -1 when it has none.  A label is known only if its
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
        z = [-1] * len(sets.batch)
        rows, bounds = sets.rows.tolist(), sets.offsets.tolist()
        index = sets.batch.sample_index
        row_of = {
            (query_id, index[i]): i
            for query_id, start, stop in zip(sets.query_ids, bounds, bounds[1:])
            for i in rows[start:stop]
        }
    for lineno, obj, problems in _objects(path, diagnostics, _LABEL_FIELDS):
        query_id = _query_id(obj, problems)
        sample_index = _index(obj, "sample_index", problems)
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


def load_labels(path: str, sets: SampleSets) -> np.ndarray:
    """The ``z`` column of :func:`scan_labels` over the rows of
    ``sets.batch``; raises on any diagnostic."""
    z, diagnostics = scan_labels(path, sets)
    _raise_if_any(diagnostics)
    total = len(sets.rows)
    if total:
        labelled = int(np.count_nonzero(z >= 0))
        log.info(
            "label coverage: %d of %d generations (%.1f%%)",
            labelled, total, 100.0 * labelled / total,
        )
    return z


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def load_targets(path: str) -> list[ConsistencyTarget]:
    """Parse and validate a targets file, at most one target per query;
    raises on any diagnostic."""
    diagnostics: list[Diagnostic] = []
    row_diagnostics: list[Diagnostic] = []
    targets: list[ConsistencyTarget] = []
    seen: set[str] = set()
    for lineno, obj, problems in _objects(path, diagnostics, _TARGET_FIELDS):
        query_id = _query_id(obj, problems)
        selected = _index(obj, "selected_sample_index", problems)
        answer = obj.get("answer")
        if not isinstance(answer, str):
            problems.append("answer must be a string")
        s, k = obj.get("s"), obj.get("k")
        # A k too large for a float cannot be checked against s.
        k_ok = isinstance(k, int) and is_finite_real(k) and k >= 1
        if not k_ok:
            problems.append("k must be a positive integer")
        if not is_finite_real(s) or not 0.0 <= s <= 1.0:
            problems.append("s must be a number in [0, 1]")
        elif k_ok and not math.isclose(s * k, round(s * k), abs_tol=1e-9):
            problems.append("s * k must be an integer sample count")
        if not problems:
            if query_id in seen:
                problems.append(f"duplicate target for query {query_id!r}")
            else:
                seen.add(query_id)
        if problems:
            row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
            continue
        targets.append(ConsistencyTarget(query_id, selected, answer, float(s), k))
    _raise_if_any(diagnostics + row_diagnostics)
    return targets


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------
#
# Every file is the text that ``json.dumps(obj, ensure_ascii=False,
# separators=(",", ":"))`` writes for each record's object: known fields in
# a fixed order, absent optional fields left out.  Queries and targets go
# through json itself.  Generation, label and score lines, the bulk of the
# files, are filled from fixed templates: json writes a string with
# ``encode_basestring`` and a finite float with ``float.__repr__``, and the
# writers call those directly.

# The answer and answer-span slots hold "" or the field's comma, key and value.
_GENERATION_LINE = (
    '{{"query_id":{},"sample_index":{},"response_text":{}{},"token_logprobs":[{}]{},'
    '"embedding":[{}]{}}}\n'
)
_LABEL_LINE = '{{"query_id":{},"sample_index":{},"z":{}}}\n'
_SCORE_LINE = '{{"query_id":{},{}"method":{},"confidence":{}{}}}\n'
_IMPUTED = {None: "", False: ',"imputed":false', True: ',"imputed":true'}
# write_generations forks a child for each part past the first.  On a
# 2-CPU x86-64 host a fork takes 1-2 ms and appending a 6 MB part 1.5 ms,
# the time of about 100 rows at 22-34 us a row, and a child formats its
# rows some 20% slower than a lone process (copy-on-write page faults).
# A part of 1,000 rows saves ten times its fixed cost.
_ROWS_PER_PART = 1000
_MAX_PARTS = 8
_COPY_CHUNK = 1 << 16  # bytes per copy when a part is appended


def _dump(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_json_lines(path: str, objects: Iterable[Any]) -> None:
    """Write each object as one compact JSON line, the format of every JSONL file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_dump(obj) + "\n" for obj in objects)


def write_json(path: str, obj: Any) -> None:
    """Write one JSON document, indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def _float_texts(values: np.ndarray) -> list[str]:
    """The json text of each entry of a float column."""
    floats = values.tolist()
    if np.isfinite(values).all():
        return list(map(float.__repr__, floats))
    return [_dump(value) for value in floats]


def _query_object(q: QueryRecord) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for f in fields(QueryRecord):
        value = getattr(q, f.name)
        if value is not None:
            obj[f.name] = list(value) if isinstance(value, tuple) else value
    return obj


def _segment_texts(
    values: np.ndarray, offsets: np.ndarray, start: int, stop: int
) -> list[list[str]]:
    """The json texts of rows ``start:stop`` of a flat float column."""
    ends = offsets[start : stop + 1].tolist()
    base = ends[0]
    texts = _float_texts(values[base : ends[-1]])
    return [texts[a - base : b - base] for a, b in zip(ends, ends[1:])]


def _batch_lines(batch: GenerationBatch, tail: str, runs: range) -> Iterator[list[str]]:
    """The lines of the query runs ``runs`` of a batch, one list per run,
    formatted from its columns; ``tail`` is the text after each line's
    embedding."""
    offsets = batch.query_offsets.tolist()
    dim = batch.embedding.shape[1]
    for run in runs:
        start, stop = offsets[run], offsets[run + 1]
        head = encode_basestring(batch.query_ids[run])
        tokens = _segment_texts(batch.token_logprobs, batch.token_offsets, start, stop)
        spans = _segment_texts(
            batch.answer_token_logprobs, batch.answer_token_offsets, start, stop
        )
        embeddings = _float_texts(batch.embedding[start:stop].ravel())
        lines = []
        for row, i in enumerate(range(start, stop)):
            answer, span = batch.answer[i], spans[row]
            lines.append(
                _GENERATION_LINE.format(
                    head,
                    batch.sample_index[i],
                    encode_basestring(batch.response_text[i]),
                    "" if answer is None else ',"answer":' + encode_basestring(answer),
                    ",".join(tokens[row]),
                    ',"answer_token_logprobs":[' + ",".join(span) + "]" if span else "",
                    ",".join(embeddings[row * dim : (row + 1) * dim]),
                    tail,
                )
            )
        yield lines


def write_queries(path: str, queries: Iterable[QueryRecord]) -> None:
    write_json_lines(path, map(_query_object, queries))


def write_generations(
    path: str, batch: GenerationBatch, sampling_meta: Mapping[str, Any] | None = None
) -> None:
    """Write a line for each row of ``batch``, in row order; every line ends
    with ``sampling_meta`` when it is given.

    Where ``os.fork`` exists, the rows are formatted in parts at once, one
    per usable CPU (see :func:`_part_count`); the bytes do not depend on the
    number of parts.  A part that fails in its child raises ``OSError``
    with the child's error text.
    """
    _write_generation_parts(path, batch, sampling_meta, _part_count(batch))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_count(batch: GenerationBatch) -> int:
    """One part per usable CPU, but no more than ``_MAX_PARTS``, the batch's
    query runs, or one per ``_ROWS_PER_PART`` rows; one where ``os.fork``
    does not exist."""
    if not hasattr(os, "fork"):
        return 1
    parts = min(_usable_cpus(), _MAX_PARTS, len(batch.query_ids), len(batch) // _ROWS_PER_PART)
    return max(parts, 1)


def _part_runs(offsets: Sequence[int], parts: int) -> list[range]:
    """Up to ``parts`` contiguous, nonempty ranges of query runs with about
    equal row counts, each cut where a run starts (one empty range for a
    batch without runs).  ``offsets`` are the batch's ``query_offsets``."""
    runs = len(offsets) - 1
    cuts = np.searchsorted(offsets, [offsets[-1] * p // parts for p in range(1, parts)])
    bounds = [0, *sorted({cut for cut in cuts.tolist() if 0 < cut < runs}), runs]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _write_runs(handle: TextIO, batch: GenerationBatch, tail: str, runs: range) -> None:
    for lines in _batch_lines(batch, tail, runs):
        handle.writelines(lines)


def _write_generation_parts(
    path: str, batch: GenerationBatch, sampling_meta: Mapping[str, Any] | None, parts: int
) -> None:
    """:func:`write_generations` in at most ``parts`` parts.

    This process formats the first part straight into ``path``.  Each other
    part is formatted at the same time by a forked child into an anonymous
    temporary file in ``path``'s directory, then appended in order.  Every
    child is reaped before this returns or raises; one still running when
    something here fails is killed first.
    """
    tail = "" if sampling_meta is None else ',"sampling_meta":' + _dump(dict(sampling_meta))
    first, *rest = _part_runs(batch.query_offsets.tolist(), parts)
    directory = os.path.dirname(path) or os.curdir
    running: list[int] = []
    with contextlib.ExitStack() as stack:
        stack.callback(_stop, running)
        handle = stack.enter_context(open(path, "w", encoding="utf-8"))
        children = [_fork_part(stack, running, directory, batch, tail, runs) for runs in rest]
        _write_runs(handle, batch, tail, first)
        handle.flush()
        for pid, errors, part in children:
            reason = errors.read().decode("utf-8", "replace")  # read to the child's exit
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise OSError(f"{path}: {reason or f'a part writer ended with code {code}'}")
            part.seek(0)
            shutil.copyfileobj(part, handle.buffer, _COPY_CHUNK)


def _fork_part(
    stack: contextlib.ExitStack, running: list[int], directory: str,
    batch: GenerationBatch, tail: str, runs: range,
) -> tuple[int, BinaryIO, BinaryIO]:
    """Fork a child that formats ``runs`` into an anonymous temporary file
    in ``directory``, and add its pid to ``running``.  Returns the pid, the
    read end of a pipe that carries the child's error text, and the file;
    ``stack`` closes both."""
    part = stack.enter_context(tempfile.TemporaryFile(dir=directory))
    read_end, write_end = os.pipe()
    errors = stack.enter_context(open(read_end, "rb"))
    report = stack.enter_context(open(write_end, "wb", buffering=0))
    pid = os.fork()
    if pid == 0:
        _format_part(report, part, batch, tail, runs)
    running.append(pid)
    report.close()  # the child holds the last write end: errors reads to its exit
    return pid, errors, part


def _format_part(
    report: BinaryIO, part: BinaryIO, batch: GenerationBatch, tail: str, runs: range
) -> NoReturn:
    """A forked child's whole work: format ``runs`` into ``part``, or write
    its error text to ``report``.  It leaves through ``os._exit`` only, so it
    never flushes the caller's buffers or returns into the caller.  It runs
    Python and element-wise numpy only, so no lock that another thread of
    the parent held at the fork is taken."""
    code = 1
    try:
        with open(part.fileno(), "w", encoding="utf-8", closefd=False) as handle:
            _write_runs(handle, batch, tail, runs)
        code = 0
    except BaseException as exc:
        report.write(f"{type(exc).__name__}: {exc}".encode("utf-8", "backslashreplace"))
    finally:
        os._exit(code)


def _stop(pids: list[int]) -> None:
    """Kill and reap the children ``pids``, the part writers not yet reaped."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


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


def write_targets(path: str, targets: Iterable[ConsistencyTarget]) -> None:
    write_json_lines(path, map(asdict, targets))


def write_scores(path: str, columns: Iterable[tuple[str, Sequence[str], Any, Any, Any]]) -> None:
    """Write score lines from each method's columns ``(method, query_ids,
    sample_index, confidence, imputed)``, method after method.

    A ``sample_index`` of None (rows that score a whole query) or an
    ``imputed`` of None (a method that imputes nothing) leaves its key out.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for method, query_ids, sample_index, confidence, imputed in columns:
            name = encode_basestring(method)
            keys = (
                repeat("") if sample_index is None
                else (f'"sample_index":{i},' for i in sample_index)
            )
            flags = repeat(None) if imputed is None else np.asarray(imputed, dtype=bool).tolist()
            texts = _float_texts(np.asarray(confidence, dtype=float))
            handle.writelines(
                _SCORE_LINE.format(encode_basestring(query_id), key, name, text, _IMPUTED[flag])
                for query_id, key, text, flag in zip(query_ids, keys, texts, flags)
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
    sets: SampleSets | None = None
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
