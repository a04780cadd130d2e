"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 15 --trace 0

Run from anywhere; the program measured is the one under ``src/`` of the
checkout holding this file.  Set-up is repeated ``SETUP_REPEATS`` times and
its median reported; then ops run back to back (one client, a closed loop)
until ``--seconds`` have passed.  Every op's output is checked.  With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
ops alternate between untraced and traced, and the last line holds the
per-layer metrics of the traced ops.  The lines before it give every metric
with its unit, the op count, the environment, and the throughputs that
apply to the workload.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; child processes inherit them.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "op_norm": "ref", "peak_rss_mb": "MB"}


def reference_input() -> list[dict[str, Any]]:
    rng = random.Random(0)
    return [
        {"id": i, "text": f"Attempt {i}: \\boxed{{{rng.random():.4f}}}",
         "values": [rng.random() for _ in range(20)]}
        for i in range(2000)
    ]


def reference_seconds(data: list[dict[str, Any]]) -> float:
    """Wall time of a fixed pure-Python task that never touches conscal: a
    JSON round trip and a sort.  It slows down with the host, not with the
    program; the collector is off so the program's heap cannot change it."""
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(3):
            json.loads(json.dumps(data))
            sorted(data, key=lambda row: row["text"])
        return time.perf_counter() - started
    finally:
        gc.enable()


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "page_cache": "file reads are served from the warm page cache; "
                      "the benchmark does not drop caches",
    }


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def timed(fn) -> tuple[float, Any]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def run_ops(workload, seconds: float, tracer: tracing.Tracer | None) -> dict[str, Any]:
    """The timed closed loop.  With a tracer, odd ops run traced.

    The reference task runs before every op, outside the op's timing, so
    each untraced op time has a host-speed reading taken just before it.
    """
    data = reference_input()
    plain: list[float] = []
    refs: list[float] = []
    traced: dict[int, float] = {}
    failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() - started < seconds:
        traced_op = tracer is not None and i % 2 == 1
        ref = reference_seconds(data)
        try:
            if traced_op:
                with tracer.installed(), tracer.operation(i):
                    elapsed, result = timed(workload.op)
            else:
                elapsed, result = timed(workload.op)
            issues = workload.check(result)
        except Exception:
            issues = [traceback.format_exc(limit=3)]
        if issues:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in issues[:5])
        elif traced_op:
            traced[i] = elapsed
        else:
            plain.append(elapsed)
            refs.append(ref)
        i += 1
    return {"attempted": i, "failed": failed, "plain": plain, "refs": refs, "traced": traced,
            "problems": problems}


def run(workload, seconds: float, trace: bool, work_root: str, process_start: float) -> int:
    """Set up, run the loop, check, print.  Returns the exit code."""
    from workloads import import_seconds

    os.makedirs(workload.workdir, exist_ok=True)
    try:
        import_s = import_seconds(SETUP_REPEATS)
        prepare_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare()
            prepare_times.append(time.perf_counter() - t0)
        first_op_after = time.perf_counter() - process_start
        tracer = tracing.Tracer() if trace else None
        loop = run_ops(workload, seconds, tracer)
        finish_problems = workload.finish()
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    attempted, failed, plain = loop["attempted"], loop["failed"], loop["plain"]
    if finish_problems:
        failed = attempted  # every op produced the same rejected files
        loop["problems"].extend(f"run check: {p}" for p in finish_problems)

    env = environment()
    tag = f"{workload.name}-seed{workload.seed}"
    print(f"workload {workload.name}  seed {workload.seed}  size {workload.size.key}  "
          f"trace {int(trace)}  ops {attempted} ({len(plain)} untraced ok)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"set-up: import {import_s:.4f} s, input preparation "
          f"{statistics.median(prepare_times):.4f} s (medians of {SETUP_REPEATS}); "
          f"first op started {first_op_after:.4f} s after process start")
    for problem in loop["problems"][:20]:
        print("FAILED " + problem.rstrip().replace("\n", "\n       "))

    print(f"  {'failed_ops_ratio':<36} {failed / attempted:16.6f} ratio")
    metrics: dict[str, dict[str, Any]] = {}
    if plain:
        op_s = statistics.median(plain)
        end_to_end = {
            "setup_s": import_s + statistics.median(prepare_times),
            "op_norm": statistics.median(op / ref for op, ref in zip(plain, loop["refs"])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in end_to_end.items():
            print(f"  {name:<36} {value:16.6f} {END_TO_END_UNITS[name]}")
        print(f"  {'op_s':<36} {op_s:16.6f} s")
        print(f"  {'ref_s':<36} {statistics.median(loop['refs']):16.6f} s")
        high = high_percentile(plain)
        if high is not None:
            print(f"  {f'op_p{high[0]:.4g}_s':<36} {high[1]:16.6f} s")
        print(f"  {'op_count':<36} {len(plain):16d} count")
        if workload.name in ("synth", "eval"):
            print(f"  {'gens_per_s':<36} {workload.generations / op_s:16.2f} 1/s")
        if workload.trials_per_op:
            print(f"  {'trials_per_s':<36} {workload.trials_per_op / op_s:16.4f} 1/s")
        if not trace:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    if trace:
        os.makedirs(work_root, exist_ok=True)
        tracer.write(os.path.join(work_root, f"spans-{tag}.jsonl"), process_start)
        if plain and loop["traced"]:
            per_op = tracing.layer_metrics(tracer, workload.generations, workload.size.n_queries)
            layer = tracing.median_metrics([per_op[i] for i in loop["traced"]])
            layer["trace.overhead_s"] = (statistics.median(loop["traced"].values())
                                         - statistics.median(plain))
            units = per_layer_units()
            for name, value in layer.items():
                print(f"  {name:<36} {value:16.6f} {units[name]}")
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(work_root, exist_ok=True)
    with open(os.path.join(work_root, f"result-{tag}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**result, "environment": env, "size": workload.size.key, "ops": plain, "refs": loop["refs"],
                   "traced_ops": list(loop["traced"].values())}, handle, indent=1)
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conscal", "__init__.py")):
        print(f"error: no conscal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import conscal

    if os.path.dirname(os.path.abspath(conscal.__file__)) != os.path.join(SRC, "conscal"):
        print(f"error: imported conscal from {conscal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Size

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = Size()
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle).get(size.key, {}).get(args.workload, {}).get(str(args.seed))
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, size, workdir, reference)
    return run(workload, args.seconds, bool(args.trace), WORK, process_start)


if __name__ == "__main__":
    sys.exit(main())
