"""Spans and counts recorded around calls into conscal's public functions.

The tracer never edits the package: it replaces a public function in every
module namespace that binds it (``evaluation.build_target`` as well as
``consistency.build_target``) with a wrapper, and puts the originals back
when the ``installed`` block ends.  Private kernels such as
``_segmented_logprobs`` are not wrapped, so their time shows up in the self
time of the public caller's span.

A span is ``[name, start, end, parent, op]``; ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (None at the top) and ``op`` the op
id current when the span opened.  Spans stay in memory until ``write``.
Hot leaf functions (millions of calls per op) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator

# Spanned functions: "module.function" -> layer metric their self time adds to.
SPANNED = {
    "synth.generate": "synth.generate_s",
    "synth.query_truth": "synth.query_truth_s",
    "synth.write_truth": "synth.write_truth_s",
    "records.write_queries": "records.write_s",
    "records.write_generations": "records.write_s",
    "records.write_labels": "records.write_s",
    "records.scan_queries": "records.load_s",
    "records.scan_generation_records": "records.load_s",
    "records.scan_labels": "records.load_s",
    "records.group_generations": "records.load_s",
    "records.load_queries": "records.load_s",
    "records.load_generations": "records.load_s",
    "records.load_labels": "records.load_s",
    "records.validate_files": "records.load_s",
    "consistency.build_target": "consistency.build_target_s",
    "consistency.subsample_targets": "consistency.subsample_targets_s",
    "baselines.token_prob_score": "baselines.score_s",
    "baselines.answer_prob_score": "baselines.score_s",
    "baselines.parse_verbal_confidence": "baselines.score_s",
    "baselines.impute_verbal": "baselines.score_s",
    "baselines.fit_platt": "baselines.fit_platt_s",
    "calibrator.fit_pipeline": "calibrator.fit_pipeline_s",
    "calibrator.fit_ridge": "calibrator.fit_ridge_s",
    "calibrator.pava": "calibrator.pava_s",
    "calibrator.predict": "calibrator.predict_s",
    "metrics.compute_report": "metrics.compute_report_s",
    "metrics.auroc": "metrics.auroc_s",
    "evaluation.build_dataset": "evaluation.build_dataset_s",
    "evaluation.run_trials": "evaluation.trial_loop_self_s",
    "evaluation.selective_curve": "evaluation.selective_curve_s",
    "evaluation.report_document": "evaluation.report_s",
    "evaluation.trial_table": "evaluation.report_s",
    "cli.main": "cli.self_s",
}

# Counted-only functions: called up to ~10^6 times per op.
COUNTED = ("consistency.extract_boxed", "metrics.equal_mass_bins", "seeding.generator")

TIME_METRICS = tuple(dict.fromkeys(SPANNED.values()))
PACKAGE = "conscal"


def _file_size(path: Any) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _after_write(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("records.write_bytes", _file_size(args[0]))


def _after_scan(tracer: "Tracer", args: tuple, result: Any) -> None:
    rows, diagnostics = result
    tracer.add("records.load_bytes", _file_size(args[0]))
    tracer.add("records.load_rows", len(rows))
    tracer.add("records.diagnostics", len(diagnostics))


def _after_group(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("records.diagnostics", len(result[1]))


def _after_fit_pipeline(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("calibrator.knots", int(result.isotonic.knot_inputs.size))


AFTER: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "records.write_queries": _after_write,
    "records.write_generations": _after_write,
    "records.write_labels": _after_write,
    "records.scan_queries": _after_scan,
    "records.scan_generation_records": _after_scan,
    "records.scan_labels": _after_scan,
    "records.group_generations": _after_group,
    "calibrator.fit_pipeline": _after_fit_pipeline,
}


class Tracer:
    """In-memory spans and per-op counts for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[Any, Counter] = {}
        self.op: Any = None
        self._stack: list[int] = []

    def add(self, key: str, amount: int = 1) -> None:
        self.counts.setdefault(self.op, Counter())[key] += amount

    @contextlib.contextmanager
    def operation(self, op_id: Any) -> Iterator[None]:
        """Tag every span and count recorded inside the block with ``op_id``."""
        self.op = op_id
        self.counts.setdefault(op_id, Counter())
        try:
            yield
        finally:
            self.op = None

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, after = self.spans, self._stack, AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            self.add(name)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced function in every package module that binds it."""
        originals = {}
        for qualified in (*SPANNED, *COUNTED):
            module_name, attr = qualified.split(".")
            fn = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            make = self._spanned if qualified in SPANNED else self._counted
            originals[id(fn)] = (fn, make(qualified, fn))
        patched = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def write(self, path: str, origin: float) -> None:
        """Write every span as one JSON line, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op,
                }) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, []), start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, generations: int, queries: int) -> dict[Any, dict[str, float]]:
    """Per-layer metrics of every traced op, keyed by op id.

    ``generations`` and ``queries`` size the op's inputs; they are the bases
    of the wasted-work ratios ``extract_per_gen`` and ``query_truth_per_query``.
    """
    per_op = {op: {name: 0.0 for name in TIME_METRICS} for op in tracer.counts if op is not None}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[4] in per_op:
            per_op[span[4]][SPANNED[span[0]]] += own

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for op, out in per_op.items():
        c = tracer.counts[op]
        out.update({
            "synth.query_truth_per_query": ratio(c["synth.query_truth"], queries),
            "records.write_bytes": c["records.write_bytes"],
            "records.write_mb_per_s": ratio(c["records.write_bytes"] / 1e6, out["records.write_s"]),
            "records.load_bytes": c["records.load_bytes"],
            "records.load_rows": c["records.load_rows"],
            "records.load_mb_per_s": ratio(c["records.load_bytes"] / 1e6, out["records.load_s"]),
            "records.diagnostics": c["records.diagnostics"],
            "consistency.build_target_calls": c["consistency.build_target"],
            "consistency.subsample_targets_calls": c["consistency.subsample_targets"],
            "consistency.extract_boxed_calls": c["consistency.extract_boxed"],
            "consistency.extract_per_gen": ratio(c["consistency.extract_boxed"], generations),
            "calibrator.knots_mean": ratio(c["calibrator.knots"], c["calibrator.fit_pipeline"]),
            "metrics.compute_report_calls": c["metrics.compute_report"],
            "metrics.bin_passes_per_report": ratio(
                c["metrics.equal_mass_bins"], c["metrics.compute_report"]
            ),
            "seeding.generator_calls": c["seeding.generator"],
        })
    return per_op


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric across traced ops."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
