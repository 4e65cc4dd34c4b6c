"""The benchmark's own test: counts and output digests repeat exactly.

    python3 -m pytest perfbench/test_repeat.py

Runs every workload's traced run twice with the same seed.  The counts
are taken from the program's return values or computed from them, so any
difference between the two runs is a defect in the benchmark or the
program, not noise.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Per-layer metrics that are counts, or computed from counts and answers.
EXACT = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["unit"] in ("count", "bytes", "log10")
    or m["name"] in ("stationary_solvers.sweeps_over_predicted", "stationary_solvers.rel_err_max")
]


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=200,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_and_digest_repeat(workload):
    first_detail, first = traced_run(workload, 7)
    second_detail, second = traced_run(workload, 7)
    assert first["correct"] and second["correct"], (first_detail, second_detail)
    assert first["failed"] == 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_detail["stdout_sha256"] == second_detail["stdout_sha256"]
    assert first["metrics"]["convergence_analysis.classify_calls"]["value"] >= 1
    assert first["metrics"]["stationary_solvers.sweeps"]["value"] >= 1
