"""Run every workload untraced and traced, print every metric, check outputs.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE] [--label TEXT]

Run from the repository root.  Prints one row per workload for the
end-to-end metrics, then one row per workload and per-layer metric, each
with its unit.  ``--out`` also writes the whole result as JSON, the form
the committed baselines under ``perfbench/baseline/`` take.  Exits 1 when
any request fails its correctness check or a trace is inconsistent, and 2
when a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2][len("detail ") :]), json.loads(lines[-1])


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--out", default=None, help="write the full result as JSON here")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    args = parser.parse_args(argv)

    results = {}
    status = 0
    for w in (entry["name"] for entry in SPEC["workloads"]):
        try:
            plain_detail, plain = run(w, args.seed, args.seconds, 0)
            traced_detail, traced = run(w, args.seed, args.seconds, 1)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for res, detail in ((plain, plain_detail), (traced, traced_detail)):
            if not res["correct"]:
                status = 1
                for line in detail["failures"] + detail["problems"]:
                    print(f"FAILED {w}: {line}", file=sys.stderr)
        results[w] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "detail": plain_detail,
            "trace_detail": traced_detail,
        }

    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    extra = [("req_p90_s", "s"), ("fail_frac", "ratio"), ("samples", "count")]
    head = ["workload"] + [f"{n} [{u}]" for n, u in e2e + extra] + ["stdout_sha256"]
    rows = []
    for w, r in results.items():
        d = r["detail"]
        rows.append(
            [w]
            + [fmt(r["end_to_end"][n]["value"]) for n, _ in e2e]
            + [fmt(d["req_p90_s"]), fmt(d["fail_frac"]), fmt(d["samples"]), d["stdout_sha256"][:16]]
        )
    widths = [max(len(row[c]) for row in rows + [head]) for c in range(len(head))]
    for row in [head] + rows:
        print("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    print()
    name_w = max(len(m["name"]) for m in SPEC["per_layer"])
    print(f"{'workload':<15} {'per-layer metric':<{name_w}}  {'value':>14}  unit")
    for w, r in results.items():
        for m in SPEC["per_layer"]:
            value = r["per_layer"][m["name"]]["value"]
            print(f"{w:<15} {m['name']:<{name_w}}  {fmt(value):>14}  {m['unit']}")
    print()
    for w, r in results.items():
        top = list(r["trace_detail"]["breakdown"].items())[:3]
        share = ", ".join(f"{name} {sec:.3f}s" for name, sec in top)
        print(f"{w:<15} largest self times per pass: {share}")

    if args.out:
        payload = {
            "label": args.label,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine(),
            "workloads": results,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
