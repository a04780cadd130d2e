"""The benchmark's four workloads: set-up, one timed op, and its output check.

Every workload is a closed loop with one client over inputs made from the
workload seed by ``synth.benchmark_config(n_queries, k, seed)``:

* ``synth``    -- op = ``conscal synth``; generation and the JSONL writers.
* ``eval``     -- op = ``conscal eval --trials 50`` over files that a child
                  ``python -m conscal synth`` wrote during set-up; parsing
                  and validation of the records dominate.
* ``trials``   -- op = ``run_trials`` (200 trials, all methods, selective
                  rates) over an in-memory dataset, plus its report document;
                  metrics, calibrator and Platt fitting do the work.
* ``ablation`` -- op = the k-ablation sweep (20 distilled trials at each k);
                  ``subsample_targets`` re-extracts every sampled answer.

The op looks up package functions through their module at call time, so
the tracer's wrappers are seen while it is installed and the original
functions run otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

from conscal import cli, evaluation, records, synth

SELECTIVE_RATES = (0.1, 0.2, 0.3, 0.5)
ABLATION_KS = (5, 10, 20, 50, 100)
EVAL_TRIALS = 50
TRIALS_TRIALS = 200
ABLATION_TRIALS = 20
# Reference values are compared with a tolerance, not bytes: a summation-order
# change in a kernel may move results by a few ulps and still be correct.
REL_TOL = 1e-9
ABS_TOL = 1e-12
SYNTH_FILES = ("queries.jsonl", "generations.jsonl", "labels.jsonl", "truth.jsonl", "config.json")
EVAL_FILES = ("report.json", "trials.tsv")
HEADLINE_FIELDS = ("ece1", "ece2", "mce", "brier", "auroc", "accuracy")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Size:
    """Input size: queries and samples per query."""

    n_queries: int = 125
    k: int = 100

    @property
    def key(self) -> str:
        return f"{self.n_queries}x{self.k}"


def digest_files(directory: str, names: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def flatten(obj: Any, prefix: str = "") -> dict[str, Any]:
    """Nested dicts and lists as ``{"a.b.0": leaf}``."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out: dict[str, Any] = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def compare(actual: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    """Mismatches between flattened values, numbers compared with a tolerance."""
    got, want = flatten(actual), flatten(reference)
    problems = [f"{key}: missing" for key in want if key not in got]
    problems += [f"{key}: unexpected" for key in got if key not in want]
    for key in want.keys() & got.keys():
        a, b = got[key], want[key]
        if isinstance(a, float) and isinstance(b, float):
            same = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) or (a != a and b != b)
        else:
            same = a == b
        if not same:
            problems.append(f"{key}: {a!r} != reference {b!r}")
    return sorted(problems)


def method_values(methods: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The headline fields of each method in a report document."""
    return {m: {f: body[f] for f in HEADLINE_FIELDS} for m, body in methods.items()}


class Workload:
    """One workload: ``prepare`` (repeated in set-up), ``op``, ``check``.

    ``check`` returns problems with an op's output: different from the first
    op's, or different from the stored reference for this seed and size.
    ``finish`` runs once per run after the timed loop.
    """

    name = ""
    trials_per_op = 0

    def __init__(self, seed: int, size: Size, workdir: str, reference: dict | None) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.reference = reference
        self.first: Any = None

    @property
    def generations(self) -> int:
        return self.size.n_queries * self.size.k

    def prepare(self) -> None:
        pass

    def op(self) -> Any:
        raise NotImplementedError

    def output(self, result: Any) -> tuple[Any, dict | None]:
        """(exact fingerprint of an op's output, values to hold to the reference)."""
        raise NotImplementedError

    def check(self, result: Any) -> list[str]:
        fingerprint, values = self.output(result)
        if self.first is None:
            self.first = fingerprint
            if self.reference is not None and values is not None:
                return compare(values, self.reference)
            return []
        return [] if fingerprint == self.first else ["output differs from the run's first op"]

    def finish(self) -> list[str]:
        return []


def _quiet_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class SynthWorkload(Workload):
    name = "synth"

    def prepare(self) -> None:
        self.out = os.path.join(self.workdir, "synth-out")
        os.makedirs(self.out, exist_ok=True)

    def op(self) -> int:
        return _quiet_cli([
            "synth", "--n-queries", str(self.size.n_queries), "--k", str(self.size.k),
            "--seed", str(self.seed), "--out", self.out,
        ])

    def output(self, result: int) -> tuple[Any, dict | None]:
        if result != 0:
            raise RuntimeError(f"conscal synth returned {result}")
        return digest_files(self.out, SYNTH_FILES), None

    def finish(self) -> list[str]:
        if self.first is None:
            return []
        diagnostics = records.validate_files(
            os.path.join(self.out, "queries.jsonl"),
            generations_path=os.path.join(self.out, "generations.jsonl"),
            labels_path=os.path.join(self.out, "labels.jsonl"),
        )
        return [str(d) for d in diagnostics[:5]]


def child_env() -> dict[str, str]:
    """The benchmark's environment with only the checkout's sources on the path."""
    return dict(os.environ, PYTHONPATH=SRC)


def import_seconds(repeats: int) -> float:
    """Median wall time for a fresh interpreter to start and import the CLI."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import conscal.cli"], cwd=ROOT, env=child_env(),
                       check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class EvalWorkload(Workload):
    name = "eval"
    trials_per_op = EVAL_TRIALS

    def prepare(self) -> None:
        self.data = os.path.join(self.workdir, "eval-data")
        self.out = os.path.join(self.workdir, "eval-out")
        subprocess.run(
            [
                sys.executable, "-m", "conscal", "synth",
                "--n-queries", str(self.size.n_queries), "--k", str(self.size.k),
                "--seed", str(self.seed), "--out", self.data,
            ],
            cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
        )

    def op(self) -> int:
        return _quiet_cli([
            "eval",
            "--queries", os.path.join(self.data, "queries.jsonl"),
            "--generations", os.path.join(self.data, "generations.jsonl"),
            "--labels", os.path.join(self.data, "labels.jsonl"),
            "--trials", str(EVAL_TRIALS), "--seed", str(self.seed), "--out", self.out,
        ])

    def output(self, result: int) -> tuple[Any, dict | None]:
        if result != 0:
            raise RuntimeError(f"conscal eval returned {result}")
        with open(os.path.join(self.out, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        return digest_files(self.out, EVAL_FILES), method_values(report["methods"])


class _DatasetWorkload(Workload):
    """Workloads whose op runs trials over a dataset built in set-up."""

    def prepare(self) -> None:
        config = synth.benchmark_config(
            n_queries=self.size.n_queries, k=self.size.k, seed=self.seed
        )
        queries, generations, labels = synth.generate(config)
        sets, diagnostics = records.group_generations(queries, generations)
        if diagnostics:
            raise RuntimeError(f"grouping the generated records failed: {diagnostics[0]}")
        self.data = evaluation.build_dataset(sets, labels)


class TrialsWorkload(_DatasetWorkload):
    name = "trials"
    trials_per_op = TRIALS_TRIALS

    def op(self) -> dict:
        config = evaluation.TrialConfig(
            n_trials=TRIALS_TRIALS, cal_fraction=0.4, master_seed=self.seed,
            selective_rates=SELECTIVE_RATES,
        )
        result = evaluation.run_trials(self.data, config)
        return evaluation.report_document(result, evaluation.config_echo(config))

    def output(self, document: dict) -> tuple[Any, dict | None]:
        values = {
            m: {
                **method_values({m: body})[m],
                "selective_accuracy": [row["accuracy"] for row in body["selective"]],
            }
            for m, body in document["methods"].items()
        }
        return json.dumps(document, sort_keys=True), values


class AblationWorkload(_DatasetWorkload):
    name = "ablation"
    trials_per_op = ABLATION_TRIALS * len(ABLATION_KS)

    def op(self) -> dict:
        out = {}
        for k in ABLATION_KS:
            config = evaluation.TrialConfig(
                n_trials=ABLATION_TRIALS, methods=("distilled",), k_subsample=k,
                master_seed=self.seed,
            )
            summary = evaluation.run_trials(self.data, config).methods["distilled"]
            out[str(k)] = {f: getattr(summary, f) for f in HEADLINE_FIELDS}
        return out

    def output(self, values: dict) -> tuple[Any, dict | None]:
        return json.dumps(values, sort_keys=True), values


WORKLOADS = {w.name: w for w in (SynthWorkload, EvalWorkload, TrialsWorkload, AblationWorkload)}
