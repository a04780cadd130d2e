"""Regenerate ``reference.json``: the values each checked workload's op
produces for seeds 0..31 at the benchmark's input size.

    python3 perfbench/make_reference.py

Run it only when a change to conscal is meant to change results, and say
so with the change: every benchmark run compares its first op with these
values (within ``workloads.REL_TOL``/``ABS_TOL``) when its seed is listed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402  (pins the thread count before numpy loads)
from workloads import WORKLOADS, Size  # noqa: E402

SEEDS = range(32)
CHECKED = ("eval", "trials", "ablation")


def main() -> int:
    size = Size()
    table: dict[str, dict[str, dict[str, object]]] = {size.key: {w: {} for w in CHECKED}}
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        for seed in SEEDS:
            for name in CHECKED:
                workload = WORKLOADS[name](seed, size, workdir, None)
                workload.prepare()
                _, values = workload.output(workload.op())
                table[size.key][name][str(seed)] = values
            print(f"seed {seed} done", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        handle.write(render(table))
    return 0


def render(table: dict[str, dict[str, dict[str, object]]]) -> str:
    """JSON with one line per (workload, seed), so a regeneration diffs by seed."""
    sizes = []
    for size_key, per_workload in sorted(table.items()):
        blocks = []
        for name, per_seed in sorted(per_workload.items()):
            rows = ",\n".join(
                f'   "{seed}": {json.dumps(values, sort_keys=True)}'
                for seed, values in sorted(per_seed.items(), key=lambda item: int(item[0]))
            )
            blocks.append(f'  "{name}": {{\n{rows}\n  }}')
        sizes.append(f' "{size_key}": {{\n' + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(sizes) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
