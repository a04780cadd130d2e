"""Headroom of the acceptance gate's wall-clock asserts.

    python3 perfbench/headroom.py

Runs ``tests/test_acceptance.py`` once under pytest (thread count pinned to
1, as in the workloads) and prints, for every criterion that asserts a
wall-clock limit, the call-phase duration pytest recorded next to that
limit.  The limit is read from the test's own
``assert time.monotonic() - started < LIMIT``.  The call phase contains the
timed region, so the figure is an upper bound on what the assert saw.  The
last line is a JSON object with the same rows.  Not a workload: it measures
the test suite, and it edits no test.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree

import run  # pins the thread count for the pytest child

sys.path.insert(0, run.SRC)
from workloads import ROOT, child_env  # noqa: E402

TESTS = os.path.join(ROOT, "tests", "test_acceptance.py")


def wall_clock_gates(path: str) -> dict[str, float]:
    """Test name -> LIMIT of its ``assert time.monotonic() - ... < LIMIT``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    gates = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assert) and isinstance(node.test, ast.Compare)
                    and isinstance(node.test.ops[0], ast.Lt)
                    and isinstance(node.test.comparators[0], ast.Constant)
                    and "time.monotonic()" in ast.unparse(node.test.left)):
                gates[fn.name] = float(node.test.comparators[0].value)
    return gates


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    report = os.path.join(run.WORK, "acceptance.xml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", TESTS, "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", "-o", "junit_duration_report=call"],
        cwd=ROOT, env=child_env(),
    )
    outcomes = {}
    for case in ElementTree.parse(report).getroot().iter("testcase"):
        failed = any(child.tag in ("failure", "error") for child in case)
        outcomes[case.get("name")] = (float(case.get("time")), "failed" if failed else "passed")
    rows = []
    print(f"{'criterion':<72} {'elapsed_s':>10} {'gate_s':>8} {'used':>7}  outcome")
    for name, gate in wall_clock_gates(TESTS).items():
        elapsed, outcome = outcomes.get(name, (float("nan"), "not run"))
        rows.append({"test": name, "elapsed_s": elapsed, "gate_s": gate,
                     "headroom_s": gate - elapsed, "outcome": outcome})
        print(f"{name:<72} {elapsed:10.2f} {gate:8.1f} {elapsed / gate:7.1%}  {outcome}")
    env = run.environment()
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"pytest_exit": proc.returncode, "criteria": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
