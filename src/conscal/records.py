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

The generation loader runs in two stages.  The per-line stage reads a
byte range of whole lines: it decodes each line, checks its fields, and
adds the rows that pass to candidate columns, leaving the entries of their
vector fields untested.  The serial finish, over every range's candidates
in line order, tests those entries once per column: a whole-column pass,
then an entry-by-entry walk of the rows holding a bad entry only.  Then it
checks duplicates and the embedding dimension in line order, so a row is
judged against the valid rows before it, as if every line had been checked
in full before the next was read.  A file of at least
``_BYTES_PER_PART`` bytes a part is cut into ranges that forked children
read at once (see :func:`_scan_parts` and :mod:`conscal.parts`); the batch
and the diagnostics, in text and in order, do not depend on the number of
ranges.  :func:`write_scores` writes in parts of at least
``_SCORE_LINES_PER_PART`` lines the same way.

The label loader has the same two stages: the per-line stage checks each
line's fields into columns, and the serial finish aligns each label with
its row in line order, diagnosing unknown generations and duplicates.  The
commands that read both files read the labels in the generation read's
ranges, cut at the same fractions of the file (see
:func:`load_generations_and_labels` and :func:`validate_files`).

Every loader reads its lines through one generator, :func:`_objects`: one
loop decodes each line and sorts it into invalid JSON, a value that is no
object, or an object with a problem for each field outside the loader's
own that holds ``NaN`` or ``Infinity``.  Both per-line stages keep their
cost near the decoder's own.  The C scanner alone decodes a line it reads
up to its final newline, and any other line is decoded again in full, so
every value and error is json's;
only a line holding ``\\u`` is searched for an unpaired surrogate escape;
a row whose fields have the exact types json gives a valid row skips the
field-by-field checks, which still judge every other row; and the types of
its vector entries are tested only on a line holding the text ``true`` or
``false``, since the float columns refuse every other value that is no
number.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import os
import re
from array import array
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import chain, compress, groupby, repeat
from json.encoder import encode_basestring
from sys import intern
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import parts
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

    Row ``i`` has the token log-probabilities
    ``token_logprobs[token_offsets[i]:token_offsets[i + 1]]``, the
    answer-span ones ``answer_token_logprobs[answer_token_offsets[i]:...]``
    (an empty segment: the row has none) and the embedding ``embedding[i]``;
    the other columns hold one entry per row, ``None`` for an absent answer.
    The arrays are read-only.
    """

    query_id: tuple[str, ...]
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
        return f"GenerationBatch({len(self)} rows)"


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


def decode_json(text: str) -> Any:
    """``json.loads(text)``, raising ``json.JSONDecodeError`` with the reason
    ``unpaired surrogate escape`` for a string that holds one."""
    value = json.loads(text)
    _refuse_surrogates(text, value)
    return value


def _refuse_surrogates(text: str, value: Any) -> None:
    """Raise ``json.JSONDecodeError`` (``unpaired surrogate escape``) if a
    string of ``value``, decoded from ``text``, holds a lone surrogate; only
    text holding a surrogate escape is walked."""
    escape = _SURROGATE_ESCAPE.search(text)
    if escape and any(type(item) is str and _SURROGATE.search(item) for item in _scalars(value)):
        raise json.JSONDecodeError("unpaired surrogate escape", text, escape.start())


def read_json(path: str, name: str | None = None) -> dict[str, Any]:
    """The JSON object in the UTF-8 file ``path``, decoded as by
    :func:`decode_json`.  A file holding anything else raises
    :class:`DataError` whose message starts with ``name`` (default: ``path``)."""
    name = path if name is None else name
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = decode_json(handle.read())
        except json.JSONDecodeError as exc:
            raise DataError(f"{name}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{name}: invalid JSON ({json_error_reason(exc)})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{name}: expected a JSON object")
    return obj


class _ByteRange(io.RawIOBase):
    """The next ``size`` bytes of the unbuffered binary file ``file`` (None:
    the rest of it) as a raw stream, so that text mode reads a byte range.
    Closing it leaves ``file`` open."""

    def __init__(self, file: io.RawIOBase, size: int | None) -> None:
        super().__init__()
        self._file, self._left = file, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        if self._left is None:
            return self._file.readinto(buffer)
        count = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count


def _objects(
    path: str, diagnostics: list[Diagnostic], checked: frozenset[str],
    start: int = 0, stop: int | None = None,
) -> Iterator[tuple[int, dict, list[str], str]]:
    """Decode each line of a JSONL file and yield ``(lineno, obj, problems,
    text)`` for each that is a JSON object, where ``text`` is the line as
    read; every other line gets a diagnostic.

    Lines split as in text mode (``\\n``, ``\\r\\n`` or a lone ``\\r``).  A line
    holding bytes that are not UTF-8 is invalid JSON (``not UTF-8 text``) and
    reading goes on with the next line; so is a line holding an unpaired
    surrogate escape (see :func:`decode_json`).  Only the lines of bytes
    ``start:stop`` are read (default: the whole file), numbered from 1;
    ``start`` and ``stop`` must each be 0, the end or an offset just past a
    ``\\n``.

    Each object comes with its first problems: one for every top-level field
    outside ``checked`` (the fields the caller validates itself) that holds
    ``NaN`` or ``Infinity``, which JSON does not allow but json decodes to
    floats.  Only lines holding such a token are walked.

    Lines are read one at a time, so a caller that validates and converts
    each object before asking for the next keeps one decoded row alive.
    Callers hold their row diagnostics apart and report them after these.
    """
    constant_seen = False

    def constant(token: str) -> float:
        nonlocal constant_seen
        constant_seen = True
        return float(token)

    # One decoder for the file: json.loads with a hook would build one a line.
    decoder = json.JSONDecoder(parse_constant=constant)
    decode, scan = decoder.decode, decoder.scan_once
    with open(path, "rb", buffering=0) as file:
        if start:
            file.seek(start)
        stream = io.BufferedReader(_ByteRange(file, None if stop is None else stop - start))
        # surrogateescape turns each undecodable byte into a lone surrogate,
        # which text decoded from UTF-8 never holds and which cannot be encoded.
        with io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, raw in enumerate(handle, start=1):
                constant_seen = False
                try:
                    if not raw.isascii():
                        raw.encode("utf-8")
                        if raw.startswith("\ufeff"):  # which json.loads rejects
                            raise json.JSONDecodeError(
                                "Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0
                            )
                    # The C scanner alone decodes a line that it reads up to
                    # its final "\n".  Any other line, and any the scanner
                    # stops on, is decoded again in full, so that every value
                    # and error is json's own.
                    try:
                        obj, end = scan(raw, 0)
                    except StopIteration:
                        obj = decode(raw)
                    else:
                        if end != len(raw) - 1 or raw[end] != "\n":
                            obj = decode(raw)
                    if "\\u" in raw:
                        _refuse_surrogates(raw, obj)
                except (ValueError, RecursionError) as exc:
                    diagnostics.append(
                        Diagnostic(path, lineno, f"invalid JSON ({json_error_reason(exc)})")
                    )
                    continue
                if not isinstance(obj, dict):
                    diagnostics.append(Diagnostic(path, lineno, "record must be a JSON object"))
                elif constant_seen:
                    yield lineno, obj, [
                        f"{key} contains NaN or Infinity"
                        for key, value in obj.items()
                        if key not in checked
                        and any(
                            type(item) is float and not math.isfinite(item)
                            for item in _scalars(value)
                        )
                    ], raw
                else:
                    yield lineno, obj, [], raw


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
    for lineno, obj, problems, _ in _objects(path, diagnostics, _QUERY_FIELDS):
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


class _Scan:
    """The per-line stage's output over a range of lines of a record file.

    ``unreadable`` holds the diagnostics of the lines that are not JSON
    objects, and ``problems`` those of the other lines that fail a field
    check.  The rest are candidates: their line numbers in ``lines`` and
    their fields in the columns that ``_COLUMNS`` names.  ``count`` is the
    number of lines read.
    """

    _COLUMNS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.count = 0
        self.unreadable: list[Diagnostic] = []
        self.problems: list[Diagnostic] = []
        self.lines = array("q")

    def extend(self, part: _Scan) -> None:
        """Append ``part``, the scan of the lines that follow these,
        renumbering its lines to follow on."""
        shift = self.count
        for mine, theirs in ((self.unreadable, part.unreadable), (self.problems, part.problems)):
            mine.extend(Diagnostic(d.path, d.line + shift, d.message) for d in theirs)
        self.lines.extend(line + shift for line in part.lines)
        for name in self._COLUMNS:
            getattr(self, name).extend(getattr(part, name))
        self.count += part.count


class _LineScan(_Scan):
    """A scan of generation lines.  The candidates' columns hold their
    fields, and the flat, untested entries of their vector fields with each
    row's entry count."""

    _COLUMNS = (
        "ids", "indices", "texts", "answers", "tokens", "spans", "embeddings",
        "token_lengths", "span_lengths", "embedding_lengths",
    )

    def __init__(self) -> None:
        super().__init__()
        self.ids: list[str] = []
        self.indices: list[int] = []
        self.texts: list[str] = []
        self.answers: list[str | None] = []
        self.tokens, self.spans, self.embeddings = array("d"), array("d"), array("d")
        self.token_lengths, self.span_lengths = array("q"), array("q")
        self.embedding_lengths = array("q")


def scan_generation_records(path: str) -> tuple[GenerationBatch, list[Diagnostic]]:
    """Row-level parse of a generations file (no query cross-checks).

    Valid rows fill the batch in file order.  The vector entries of the
    rows whose other fields pass are tested a column at a time after the
    last line (see the module docstring), and only then are those rows
    checked for duplicates and embedding dimension, in line order.  The
    file is read in parts (see :func:`_scan_parts`).
    """
    batch, diagnostics, _ = _scan_parts(path)
    return batch, diagnostics


def _scan_parts(
    path: str, labels_path: str | None = None
) -> tuple[GenerationBatch, list[Diagnostic], _LabelScan | None]:
    """The per-line stage of a generations file, and of a labels file when
    ``labels_path`` is given, in one part run; then the generations' serial
    finish.  Returns the batch, its diagnostics and the labels' scan, for
    :func:`_finish_labels`.

    The generations file alone sets the number of parts, P (see
    :func:`conscal.parts.part_count`, with a floor of ``_BYTES_PER_PART``
    bytes), and both files are cut into P byte ranges of whole lines at the
    same fractions of their sizes (see :func:`_line_cuts`); a pipe, whose
    size reads 0, is read whole in the first part.  Part ``i`` scans range
    ``i`` of each file; a part whose ranges are all empty is dropped.  The
    parts run through :func:`conscal.parts.run`, and their scans are
    merged in order, then finished, so the batch, ``z`` and the
    diagnostics do not depend on the number of parts.  A part that fails in
    its child raises ``OSError`` with the child's error text, which names
    the file it was reading.

    A labels file that cannot be opened to be cut is not read here, and
    its scan is None: :func:`_finish_labels` reads it, so the file's own
    error is raised there, after the generations' diagnostics, as in a read
    of one file after the other.
    """
    n_parts = parts.part_count(os.stat(path).st_size, _BYTES_PER_PART)
    names, cuts = [path], [_line_cuts(path, n_parts)]
    if labels_path is not None:
        with contextlib.suppress(OSError):
            cuts.append(_line_cuts(labels_path, n_parts))
            names.append(labels_path)
    ranges = [
        bounds for bounds in zip(*(zip(c, c[1:]) for c in cuts))
        if any(start != stop for start, stop in bounds)
    ]
    scans: list[Any] = []  # a _LineScan, then a _LabelScan if the labels are cut

    def take(part: list[_Scan], _: list[BinaryIO]) -> None:
        if not scans:  # the first part's
            scans.extend(part)
        else:
            for scan, following in zip(scans, part):
                scan.extend(following)

    parts.run(path, ranges, partial(_scan_part, names), take)
    lines, *labels = scans
    batch, diagnostics = _finish_scan(path, lines)
    return batch, diagnostics, labels[0] if labels else None


def _scan_part(
    names: Sequence[str], bounds: Sequence[tuple[int | None, int | None]],
    part: parts.Part | None,
) -> list[_Scan]:
    """The per-line stage over range ``bounds[0]`` of the generations file
    ``names[0]`` and, when there is one, range ``bounds[1]`` of the labels
    file ``names[1]``; an empty range is not read.  A forked ``part``
    names the file being read, for its error text."""
    scans: list[_Scan] = []
    for name, (start, stop), scan_range, empty in zip(
        names, bounds, (_scan_lines, _scan_label_lines), (_LineScan, _LabelScan)
    ):
        if part is not None:
            part.name = name
        scans.append(empty() if start == stop else scan_range(name, start, stop))
    return scans


def _line_cuts(path: str, n_parts: int) -> list[int | None]:
    """``n_parts + 1`` offsets that cut the file ``path`` into ``n_parts``
    byte ranges of whole lines, some maybe empty: 0, then cut ``i`` just
    past the first ``\\n`` at or after byte ``size * i // n_parts``, then
    the end.  The end is None, and so is a cut that reaches it.  A file
    whose size reads 0, such as a pipe, is not opened."""
    size = os.stat(path).st_size
    cuts: list[int | None] = [0]
    if n_parts > 1 and size:
        with open(path, "rb") as handle:
            for i in range(1, n_parts):
                handle.seek(size * i // n_parts)
                handle.readline()
                cut = handle.tell()
                cuts.append(cut if cut < size else None)
    return cuts + [None] * (n_parts + 1 - len(cuts))


def _scan_lines(path: str, start: int, stop: int | None) -> _LineScan:
    """The per-line stage: the scan of the lines of bytes ``start:stop`` of
    a generations file, numbered from 1."""
    scan = _LineScan()
    diagnose = scan.problems.extend
    lines, ids, indices, texts, answers = (
        scan.lines, scan.ids, scan.indices, scan.texts, scan.answers
    )
    tokens, spans, embeddings = scan.tokens, scan.spans, scan.embeddings
    token_lengths, span_lengths, embedding_lengths = (
        scan.token_lengths, scan.span_lengths, scan.embedding_lengths
    )
    numbers = _NUMBER_TYPES.issuperset
    lineno = 0
    for lineno, obj, problems, text in _objects(
        path, scan.unreadable, _GENERATION_FIELDS, start, stop
    ):
        get = obj.get
        query_id, sample_index = get("query_id"), get("sample_index")
        response_text, answer = get("response_text"), get("answer")
        token_lp, ans_lp = get("token_logprobs"), get("answer_token_logprobs")
        embedding, meta = get("embedding"), get("sampling_meta")
        # A row whose fields have the exact types json gives a valid row,
        # with nonempty vectors of JSON numbers (booleans excluded), goes
        # into the columns; its vector entries are tested there after the
        # last line.  Any other row is checked field by field here.  An
        # entry that is no number makes fromlist fail, but for a boolean,
        # which only a line holding the text true or false can hold: the
        # entry types of such a line are tested first.
        if (
            not problems
            and type(query_id) is str and query_id
            and type(sample_index) is int and sample_index >= 0
            and type(response_text) is str
            and (answer is None or type(answer) is str)
            and type(token_lp) is list and token_lp
            and (ans_lp is None or type(ans_lp) is list and ans_lp)
            and type(embedding) is list and embedding
            and (meta is None or type(meta) is dict)
            and (
                "true" not in text and "false" not in text
                or numbers(map(type, chain(token_lp, ans_lp or (), embedding)))
            )
        ):
            marks = len(tokens), len(spans)
            try:
                tokens.fromlist(token_lp)
                spans.fromlist(ans_lp or [])
                embeddings.fromlist(embedding)
            except (OverflowError, TypeError):  # too large for a float, or no number
                # The failing fromlist left its column unchanged.
                del tokens[marks[0] :], spans[marks[1] :]
            else:
                token_lengths.append(len(token_lp))
                span_lengths.append(len(ans_lp or ()))
                embedding_lengths.append(len(embedding))
                lines.append(lineno)
                # Interned, an id or an answer that many rows share is one
                # string, held once and sent back from a part once.
                ids.append(intern(query_id))
                indices.append(sample_index)
                texts.append(response_text)
                answers.append(answer if answer is None else intern(answer))
                continue
        _query_id(obj, problems)
        _index(obj, "sample_index", problems)
        if not isinstance(response_text, str):
            problems.append("response_text must be a string")
        if answer is not None and not isinstance(answer, str):
            problems.append("answer must be a string when present")
        problems.extend(_check_vector(token_lp, "token_logprobs", max_value=0.0))
        if ans_lp is not None:
            problems.extend(_check_vector(ans_lp, "answer_token_logprobs", max_value=0.0))
        problems.extend(_check_vector(embedding, "embedding"))
        if meta is not None and not isinstance(meta, dict):
            problems.append("sampling_meta must be an object when present")
        diagnose(Diagnostic(path, lineno, p) for p in problems)
    # Each line read was yielded above or diagnosed as unreadable.
    scan.count = max(lineno, scan.unreadable[-1].line if scan.unreadable else 0)
    return scan


def _finish_scan(path: str, scan: _LineScan) -> tuple[GenerationBatch, list[Diagnostic]]:
    """The serial finish over the candidates of a whole file: the column
    pass over the vector entries, then duplicates and dimensions in line
    order, then the batch and every diagnostic."""
    token_ends, span_ends = _offsets(scan.token_lengths), _offsets(scan.span_lengths)
    embedding_ends = _offsets(scan.embedding_lengths)
    columns = (
        (scan.tokens, token_ends, "token_logprobs", 0.0),
        (scan.spans, span_ends, "answer_token_logprobs", 0.0),
        (scan.embeddings, embedding_ends, "embedding", None),
    )
    failing = set().union(
        *(_failing_rows(values, ends, max_value) for values, ends, _, max_value in columns)
    )
    # Duplicates and dimensions, judged over the rows that passed, in line
    # order.  With no failing row, no repeated pair and one dimension, every
    # row passes, and none needs judging.
    row_diagnostics = scan.problems
    dims = set(scan.embedding_lengths)
    embed_dim: int | None = next(iter(dims), None)
    keep = [True] * len(scan.ids)
    if failing or len(dims) > 1 or len(set(zip(scan.ids, scan.indices))) < len(keep):
        seen: set[tuple[str, int]] = set()
        embed_dim = None
        rows = zip(scan.lines, scan.ids, scan.indices, scan.embedding_lengths)
        for c, (lineno, query_id, sample_index, dim) in enumerate(rows):
            if c in failing:
                problems = _walked_problems(columns, c)
            else:
                problems = []
                pair = (query_id, sample_index)
                if pair in seen:
                    problems.append(f"duplicate (query_id, sample_index) {pair!r}")
                else:
                    seen.add(pair)
                    if embed_dim is None:
                        embed_dim = dim
                    elif dim != embed_dim:
                        problems.append(
                            f"query {query_id}: embedding dimension {dim} differs from {embed_dim}"
                        )
            if problems:
                keep[c] = False
                row_diagnostics.extend(Diagnostic(path, lineno, p) for p in problems)
    query_id = tuple(compress(scan.ids, keep))
    row_diagnostics.sort(key=lambda d: d.line)
    mask = np.array(keep, dtype=bool)
    token_values, token_offsets = _kept_segments(scan.tokens, token_ends, mask)
    span_values, span_offsets = _kept_segments(scan.spans, span_ends, mask)
    embedding_values, _ = _kept_segments(scan.embeddings, embedding_ends, mask)
    batch = GenerationBatch(
        query_id=query_id,
        sample_index=tuple(compress(scan.indices, keep)),
        response_text=tuple(compress(scan.texts, keep)),
        answer=tuple(compress(scan.answers, keep)),
        token_logprobs=token_values,
        token_offsets=token_offsets,
        answer_token_logprobs=span_values,
        answer_token_offsets=span_offsets,
        embedding=embedding_values.reshape(len(query_id), embed_dim or 0),
    )
    return batch, scan.unreadable + row_diagnostics


def _offsets(lengths: Sequence[int]) -> np.ndarray:
    """The row offsets of a flat column whose rows hold ``lengths`` entries."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _failing_rows(values: array, ends: np.ndarray, max_value: float | None) -> set[int]:
    """The rows of a flat column holding an entry that is not finite or is
    above ``max_value``."""
    column = np.frombuffer(values, dtype=float)
    bad = ~np.isfinite(column)
    if max_value is not None:
        bad |= column > max_value
    return set((np.searchsorted(ends, np.flatnonzero(bad), side="right") - 1).tolist())


def _walked_problems(
    columns: Sequence[tuple[array, np.ndarray, str, float | None]], row: int
) -> list[str]:
    """The problems of one row's vector fields, found entry by entry."""
    problems = []
    for values, ends, name, max_value in columns:
        start, stop = ends[row], ends[row + 1]
        if stop > start:  # an empty answer-span segment: the row has no such field
            problems += _check_vector(values[start:stop].tolist(), name, max_value=max_value)
    return problems


def _kept_segments(
    values: array, offsets: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A flat column and its row offsets, reduced to the rows ``keep`` marks."""
    column = np.frombuffer(values, dtype=float)
    if keep.all():
        return column, offsets
    lengths = np.diff(offsets)
    return column[np.repeat(keep, lengths)], _offsets(lengths[keep])


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
    buckets: list[list[int]] = [[] for _ in queries]
    for row, p in enumerate(map(position.get, batch.query_id)):
        if p is None:
            message = f"generation references unknown query_id {batch.query_id[row]!r}"
            diagnostics.append(Diagnostic(path, None, message))
        else:
            buckets[p].append(row)
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
    sets, _ = load_generations_and_labels(path, queries)
    return sets


def load_generations_and_labels(
    path: str, queries: Sequence[QueryRecord], labels_path: str | None = None
) -> tuple[SampleSets, np.ndarray | None]:
    """The generations of ``queries``, grouped, and the ``z`` column of the
    labels file ``labels_path`` over their rows (None without one), read in
    one part run (see :func:`_scan_parts`).  Raises on the first file's
    first diagnostic: generations, grouping, then labels."""
    batch, diagnostics, labels = _scan_parts(path, labels_path)
    _raise_if_any(diagnostics)
    sets, diagnostics = group_generations(queries, batch, path=path)
    _raise_if_any(diagnostics)
    if labels_path is None:
        return sets, None
    z, diagnostics = _finish_labels(labels_path, labels, sets)
    _raise_if_any(diagnostics)
    _log_coverage(z, sets)
    return sets, z


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

    Like the generation loader, it runs in two stages: the per-line stage
    (:func:`_scan_label_lines`) checks each line's fields, and the serial
    finish (:func:`_finish_labels`) aligns the candidates with the rows in
    line order.  Read on its own, the file is one part; the CLI reads it in
    the generations' parts (see :func:`load_generations_and_labels`).
    """
    return _finish_labels(path, None, sets)


class _LabelScan(_Scan):
    """A scan of label lines.  The candidates' columns hold their query
    ids, sample indices and labels."""

    _COLUMNS = ("ids", "indices", "z")

    def __init__(self) -> None:
        super().__init__()
        self.ids: list[str] = []
        self.indices: list[int] = []
        self.z = array("b")


def _scan_label_lines(path: str, start: int, stop: int | None) -> _LabelScan:
    """The per-line stage: the scan of the lines of bytes ``start:stop`` of
    a labels file, numbered from 1."""
    scan = _LabelScan()
    diagnose = scan.problems.extend
    lines, ids, indices, labels = scan.lines, scan.ids, scan.indices, scan.z
    lineno = 0
    for lineno, obj, problems, _ in _objects(path, scan.unreadable, _LABEL_FIELDS, start, stop):
        query_id, sample_index, label = obj.get("query_id"), obj.get("sample_index"), obj.get("z")
        # A row whose fields have the exact types json gives a valid row
        # skips the field-by-field checks.
        if (
            problems
            or type(query_id) is not str or not query_id
            or type(sample_index) is not int or sample_index < 0
            or type(label) is not int or label not in (0, 1)
        ):
            _query_id(obj, problems)
            _index(obj, "sample_index", problems)
            if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
                problems.append("z must be 0 or 1")
            if problems:
                diagnose(Diagnostic(path, lineno, p) for p in problems)
                continue
        lines.append(lineno)
        ids.append(intern(query_id))  # one string for all the labels of a query
        indices.append(sample_index)
        labels.append(label)
    # Each line read was yielded above or diagnosed as unreadable.
    scan.count = max(lineno, scan.unreadable[-1].line if scan.unreadable else 0)
    return scan


def _finish_labels(
    path: str, scan: _LabelScan | None, sets: SampleSets | None
) -> tuple[np.ndarray, list[Diagnostic]]:
    """The serial finish over the candidates of a whole labels file (None:
    the file is scanned here first): each label goes to its row of
    ``sets.batch`` in line order, or is diagnosed as unknown or a
    duplicate; then ``z`` and every diagnostic (see :func:`scan_labels`)."""
    if scan is None:
        scan = _scan_label_lines(path, 0, None)
    rows: list[Any]
    if sets is None:  # no rows to align with: each pair stands for its own
        rows = list(zip(scan.ids, scan.indices))
    else:
        members, bounds = sets.rows.tolist(), sets.offsets.tolist()
        index = sets.batch.sample_index.__getitem__
        row_of = {  # query id -> sample_index -> row
            query_id: dict(zip(map(index, members[start:stop]), members[start:stop]))
            for query_id, start, stop in zip(sets.query_ids, bounds, bounds[1:])
        }
        unknown: dict[int, int] = {}
        rows = [row_of.get(q, unknown).get(i) for q, i in zip(scan.ids, scan.indices)]
    row_diagnostics = scan.problems
    kept = [True] * len(rows)
    if None in rows or len(set(rows)) < len(rows):  # a label to diagnose
        labelled = set()
        for c, (lineno, query_id, sample_index, row) in enumerate(
            zip(scan.lines, scan.ids, scan.indices, rows)
        ):
            pair = (query_id, sample_index)
            if row is None:
                message = f"label references unknown generation {pair!r}"
            elif row in labelled:
                message = f"duplicate label for {pair!r}"
            else:
                labelled.add(row)
                continue
            kept[c] = False
            row_diagnostics.append(Diagnostic(path, lineno, message))
    row_diagnostics.sort(key=lambda d: d.line)
    z = np.empty(0, dtype=np.int8)
    if sets is not None:
        z = np.full(len(sets.batch), -1, dtype=np.int8)
        z[list(compress(rows, kept))] = list(compress(scan.z, kept))
    return z, scan.unreadable + row_diagnostics


def load_labels(path: str, sets: SampleSets) -> np.ndarray:
    """The ``z`` column of :func:`scan_labels` over the rows of
    ``sets.batch``; raises on any diagnostic."""
    z, diagnostics = scan_labels(path, sets)
    _raise_if_any(diagnostics)
    _log_coverage(z, sets)
    return z


def _log_coverage(z: np.ndarray, sets: SampleSets) -> None:
    total = len(sets.rows)
    if total:
        labelled = int(np.count_nonzero(z >= 0))
        log.info(
            "label coverage: %d of %d generations (%.1f%%)",
            labelled, total, 100.0 * labelled / total,
        )


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
    for lineno, obj, problems, _ in _objects(path, diagnostics, _TARGET_FIELDS):
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
# The floors of the part runs (see conscal.parts), on a 2-CPU x86-64 host.
# A score line takes 2.4-3 us and 100 bytes, so a part of 5,000 lines moves
# 12-15 ms of work for some 2 ms of fork and append.  A read part scans at
# about 40 ms a MB; pickling, unpickling and merging it take about 3.5 ms a
# MB more, after a 1-2 ms fork, so a part of 1 MB moves some 40 ms of work
# to another CPU for about 5 ms.
_SCORE_LINES_PER_PART = 5000
_BYTES_PER_PART = 1 << 20


def _dump(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def object_lines(objects: Iterable[Any]) -> Iterator[str]:
    """Each object as one compact JSON line, the format of every JSONL file."""
    return (_dump(obj) + "\n" for obj in objects)


def write_json_lines(path: str, objects: Iterable[Any]) -> None:
    """Write each object as one compact JSON line, the format of every JSONL file."""
    _write_lines(path, object_lines(objects))


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


def query_lines(queries: Iterable[QueryRecord]) -> Iterator[str]:
    """The line of each query, in order."""
    return object_lines(map(_query_object, queries))


def write_queries(path: str, queries: Iterable[QueryRecord]) -> None:
    _write_lines(path, query_lines(queries))


def generation_lines(
    batch: GenerationBatch, sampling_meta: Mapping[str, Any] | None = None
) -> Iterator[str]:
    """The line of each row of ``batch``, in row order, formatted from its
    columns a run of consecutive rows with one query id at a time; every
    line ends with ``sampling_meta`` when it is given."""
    tail = "" if sampling_meta is None else ',"sampling_meta":' + _dump(dict(sampling_meta))
    dim = batch.embedding.shape[1]
    stop = 0
    for query_id, run in groupby(batch.query_id):
        start, stop = stop, stop + sum(1 for _ in run)
        head = encode_basestring(query_id)
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
        yield from lines


def write_generations(
    path: str, batch: GenerationBatch, sampling_meta: Mapping[str, Any] | None = None
) -> None:
    """Write a line for each row of ``batch``, in row order; every line ends
    with ``sampling_meta`` when it is given."""
    _write_lines(path, generation_lines(batch, sampling_meta))


def label_lines(batch: GenerationBatch, z: np.ndarray) -> Iterator[str]:
    """The line of each labelled row of ``batch`` (``z`` 0 or 1), in row order."""
    if len(z) != len(batch):
        raise DataError(f"z has {len(z)} entries for a batch of {len(batch)} rows")
    return (
        _LABEL_LINE.format(encode_basestring(query_id), sample_index, label)
        for query_id, sample_index, label in zip(
            batch.query_id, batch.sample_index, np.asarray(z).tolist()
        )
        if label >= 0
    )


def write_labels(path: str, batch: GenerationBatch, z: np.ndarray) -> None:
    """Write a line for each labelled row of ``batch`` (``z`` 0 or 1), in row order."""
    _write_lines(path, label_lines(batch, z))


def write_targets(path: str, targets: Iterable[ConsistencyTarget]) -> None:
    write_json_lines(path, map(asdict, targets))


def write_scores(path: str, columns: Iterable[tuple[str, Sequence[str], Any, Any, Any]]) -> None:
    """Write score lines from each method's columns ``(method, query_ids,
    sample_index, confidence, imputed)``, method after method.

    A ``sample_index`` of None (rows that score a whole query) or an
    ``imputed`` of None (a method that imputes nothing) leaves its key out.
    The lines, numbered across the method columns, are cut into ranges of
    about equal size (see :func:`conscal.parts.part_ranges`, with at least
    ``_SCORE_LINES_PER_PART`` lines a part), each formatted in a part of
    its own (see :func:`conscal.parts.write_parts`); the bytes do not
    depend on the number of parts.
    """
    columns = list(columns)
    total = sum(len(column[1]) for column in columns)
    parts.write_parts(
        [path],
        parts.part_ranges(range(total + 1), _SCORE_LINES_PER_PART),
        lambda lines: ([lambda handle: handle.writelines(_score_lines(columns, lines))], None),
    )


def _score_lines(
    columns: Sequence[tuple[str, Sequence[str], Any, Any, Any]], lines: range
) -> Iterator[str]:
    """The score lines ``lines`` of the method columns, numbered across them."""
    first = 0
    for method, query_ids, sample_index, confidence, imputed in columns:
        start, stop = max(lines.start - first, 0), min(lines.stop - first, len(query_ids))
        first += len(query_ids)
        if start >= stop:
            continue
        name = encode_basestring(method)
        keys = (
            repeat("") if sample_index is None
            else (f'"sample_index":{i},' for i in sample_index[start:stop])
        )
        flags = (
            repeat(None) if imputed is None
            else np.asarray(imputed, dtype=bool)[start:stop].tolist()
        )
        texts = _float_texts(np.asarray(confidence, dtype=float)[start:stop])
        yield from (
            _SCORE_LINE.format(encode_basestring(query_id), key, name, text, _IMPUTED[flag])
            for query_id, key, text, flag in zip(query_ids[start:stop], keys, texts, flags)
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
    """Collect every diagnostic across a dataset's files; the generations
    and labels are read in one part run (see :func:`_scan_parts`)."""
    queries, diagnostics = scan_queries(queries_path)
    sets: SampleSets | None = None
    labels: _LabelScan | None = None
    if generations_path is not None:
        batch, gen_diags, labels = _scan_parts(generations_path, labels_path)
        diagnostics.extend(gen_diags)
        if not gen_diags:
            sets, group_diags = group_generations(queries, batch, path=generations_path)
            diagnostics.extend(group_diags)
    if labels_path is not None:
        _, label_diags = _finish_labels(labels_path, labels, sets)
        diagnostics.extend(label_diags)
    return diagnostics
