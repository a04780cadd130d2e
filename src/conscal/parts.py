"""The part engine: work cut into parts, each past the first done at the
same time in a forked child.

One count rule sets the number of parts P of all work done in parts (see
:func:`part_count`): one per usable CPU, the process's CPU affinity, but no
more than ``_MAX_PARTS`` or one per ``floor`` of work, and at least one;
one where ``os.fork`` does not exist.  Each caller keeps its own floor,
next to the costs that justify it.  One cut rule (see :func:`part_ranges`)
splits runs of items into P contiguous ranges of about equal item counts.

:func:`run` does the first part in this process, after it has forked a
child for each other one.  A child sends its work's value back pickled,
after the byte ``_VALUE``, over the pipe that carries its error text, after
``_ERROR``, when it fails; this process unpickles each value as it comes,
in part order, so a part that writes no file makes none.  A child that
fails makes :func:`run` raise ``OSError`` with its error text, which starts
with its part's name (see :class:`Part`).  Every child is reaped before
:func:`run` returns or raises, and one still running when something in this
process fails is killed first.  A child leaves through ``os._exit`` only,
so it never flushes the buffers it inherited or returns into the caller.  A
part's work runs Python and element-wise numpy only, so no lock that
another thread of this process held at the fork is taken.

On a 2-CPU x86-64 host a fork takes 1-2 ms, appending a 6 MB part of a
written file 1.5 ms, and a child works some 20% slower than a lone process
(copy-on-write page faults).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import signal
import tempfile
from bisect import bisect_left
from functools import partial
from typing import Any, BinaryIO, Callable, NoReturn, Sequence, TextIO

_MAX_PARTS = 8
_COPY_CHUNK = 1 << 16  # bytes per copy when a part is appended
_VALUE, _ERROR = b"V", b"E"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def part_count(work: int, floor: int) -> int:
    """The number of parts to split ``work`` in, by the count rule."""
    if not hasattr(os, "fork"):
        return 1
    return max(min(_usable_cpus(), _MAX_PARTS, work // floor), 1)


def part_ranges(offsets: Sequence[int], floor: int) -> list[range]:
    """Contiguous, nonempty ranges of runs to work in, one per part, where
    run ``r`` holds items ``offsets[r]:offsets[r + 1]`` (one empty range
    for no runs).

    For P parts of the items (see :func:`part_count`, with at least
    ``floor`` items a part), cut ``p`` falls at the first run that starts at
    or past item ``total * p // P``; a cut that repeats another or falls at
    either end is dropped, so there are never more parts than runs.
    """
    runs, total = len(offsets) - 1, offsets[-1]
    count = part_count(total, floor)
    cuts = {bisect_left(offsets, total * p // count) for p in range(1, count)}
    bounds = [0, *sorted(cut for cut in cuts if 0 < cut < runs), runs]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


class Part:
    """A forked part's anonymous temporary files, and the name its failure
    reports: the part run's, or the file its work says it is on."""

    def __init__(self, name: str, files: list[BinaryIO]) -> None:
        self.name, self.files = name, files


def run(
    name: str,
    cuts: Sequence[Any],
    work: Callable[[Any, Part | None], Any],
    take: Callable[[Any, list[BinaryIO]], None],
    *,
    files: int = 0,
    directory: str | None = None,
) -> None:
    """Call ``work(cut, part)`` for each of ``cuts``, then ``take(value,
    files)`` with each part's value, in order: the first cut's work in this
    process, with ``part`` None and no files; each other one's in a forked
    child, with a :class:`Part` named ``name`` that holds ``files``
    anonymous temporary files in ``directory``, which ``take`` gets rewound.
    """
    running: list[int] = []
    with contextlib.ExitStack() as stack:
        stack.callback(_stop, running)
        children = []
        for cut in cuts[1:]:
            part = Part(name, [
                stack.enter_context(tempfile.TemporaryFile(dir=directory)) for _ in range(files)
            ])
            read_end, write_end = os.pipe()
            channel = stack.enter_context(open(read_end, "rb"))
            report = stack.enter_context(open(write_end, "wb"))
            pid = os.fork()
            if pid == 0:
                _run_part(report, part, partial(work, cut))
            running.append(pid)
            report.close()  # the child holds the last write end: channel reads to its exit
            children.append((pid, channel, part))
        take(work(cuts[0], None), [])
        for pid, channel, part in children:
            tag, failure = channel.read(1), None
            try:  # straight from the pipe: the value's bytes are never held whole
                value = pickle.load(channel) if tag == _VALUE else None
            except Exception as exc:  # a value cut short, if the child ended while sending it
                failure = exc
            rest = channel.read()  # to the child's exit
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if status:
                code = os.waitstatus_to_exitcode(status)
                reason = rest.decode("utf-8", "replace") if tag == _ERROR else ""
                raise OSError(reason or f"{name}: a part ended with code {code}")
            if failure is not None:
                raise failure
            for file in part.files:
                file.seek(0)
            take(value, part.files)


def write_parts(
    paths: Sequence[str],
    cuts: Sequence[Any],
    format_part: Callable[[Any], tuple[Sequence[Callable[[TextIO], None]], Any]],
) -> list[Any]:
    """Write the files ``paths`` in one part for each of ``cuts``, part
    after part, and return each part's value in order.

    ``format_part(cut)`` returns a writer for each path, which writes the
    part's lines of that file into a text handle, and a small picklable
    value.  The first part is written straight into ``paths``; each other
    one into its child's temporary files in the first path's directory,
    which are appended in order.  A child's error text names the file its
    writer was writing (the first path, before any writer ran).
    """
    values: list[Any] = []
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in paths]

        def work(cut: Any, part: Part | None) -> Any:
            writers, value = format_part(cut)
            if part is None:
                for write, handle in zip(writers, handles):
                    write(handle)
                    handle.flush()
            else:
                for path, write, file in zip(paths, writers, part.files):
                    part.name = path
                    with open(file.fileno(), "w", encoding="utf-8", closefd=False) as handle:
                        write(handle)
            return value

        def take(value: Any, files: list[BinaryIO]) -> None:
            for file, handle in zip(files, handles):
                shutil.copyfileobj(file, handle.buffer, _COPY_CHUNK)
            values.append(value)

        run(
            paths[0], cuts, work, take,
            files=len(paths), directory=os.path.dirname(paths[0]) or os.curdir,
        )
    return values


def _run_part(report: BinaryIO, part: Part, work: Callable[[Part], Any]) -> NoReturn:
    """A forked child's whole life: ``work(part)``, then ``part``'s files
    flushed and the value pickled into ``report`` after ``_VALUE``; or
    ``_ERROR`` and the error text, after ``part.name``."""
    code, message = 1, _ERROR
    try:
        value = work(part)
        for file in part.files:
            file.flush()
        message, code = _VALUE + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), 0
    except BaseException as exc:
        text = f"{part.name}: {type(exc).__name__}: {exc}"
        message = _ERROR + text.encode("utf-8", "backslashreplace")
    finally:
        try:
            report.write(message)
            report.flush()
        finally:
            os._exit(code)


def _stop(pids: list[int]) -> None:
    """Kill and reap the children ``pids``, the part children not yet reaped."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
