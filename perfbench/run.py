"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed under
``.perfbench_work/``; the program runs from ``src/`` in fresh processes
with BLAS pinned to one thread.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  The line
before the result, starting with ``detail``, holds what the metrics
leave out: sample counts, p90, fail_frac, the stdout digest and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent

# One single-threaded process: BLAS is pinned before numpy loads, here
# (for the references) and in every worker.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
# Every run ends well inside this many seconds, or is abandoned.
RUN_BUDGET = 170.0


class WorkerFailed(Exception):
    pass


def worker(manifest: Path, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--manifest",
        str(manifest),
        "--mode",
        mode,
        "--seconds",
        repr(seconds),
    ]
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the {RUN_BUDGET:.0f} s budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(latencies: list[float]) -> float | None:
    """The 90th percentile, given only with ten samples or more beyond it."""
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET
    os.environ.update(BLAS_THREADS)

    if not (Path.cwd() / "src" / "ringsolve" / "__init__.py").is_file():
        print("error: src/ringsolve not found; run from the repository root", file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}"
    manifest = inputs.prepare(args.workload, args.seed, work)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "requests_per_pass": len(manifest["requests"]),
    }
    try:
        if args.trace:
            res = worker(manifest_path, "trace", args.seconds, deadline)
            metrics = res["metrics"]
            attempted = res["attempted"]
            failures = res["failures"]
            problems = res["problems"]
            detail.update(
                breakdown=res["breakdown"],
                spans=str(Path(res["spans"]).relative_to(Path.cwd())),
            )
        else:
            setups = [
                worker(manifest_path, "setup", args.seconds, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            res = worker(manifest_path, "measure", args.seconds, deadline)
            setups.append(res["setup_s"])
            lat = res["latencies"]
            attempted = len(lat)
            failures = res["failures"]
            problems = []
            metrics = {
                "req_p50_s": statistics.median(lat),
                "throughput_rps": attempted / res["busy_s"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            detail.update(
                samples=attempted,
                req_p90_s=p90(lat),
                fail_frac=len(failures) / attempted,
                setup_samples=setups,
                rel_err_max=res["rel_err_max"],
            )
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail.update(stdout_sha256=res["digest"], failures=failures[:20], problems=problems)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
