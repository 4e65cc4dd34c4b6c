"""One fresh benchmark process: set the program up, then run one workload.

    python3 perfbench/worker.py --manifest FILE --mode MODE --seconds S

``run.py`` starts it with ``src`` on PYTHONPATH and BLAS pinned to one
thread.  Modes:

* ``setup``: import and warm up, then report the set-up time.
* ``measure``: set up, then run a closed loop, one client and no think
  time, over the manifest's requests until ``--seconds`` have passed and
  every request has run at least once.  Tracing is off.
* ``trace``: set up with tracing on, then run every request once untraced
  and once traced, and report the per-layer metrics.

Set-up is the import, one warm-up request on each CLI command at a small
size, and for ring-daily the one-off reduce + classify of its geometry.
Every answer is checked after its request returns, outside the timed
region.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()


class Program:
    """The program's modules, imported once; attribute lookups stay live
    so that wrappers installed by the tracer are the ones called."""

    def __init__(self):
        from ringsolve import (
            cli_io,
            convergence_analysis,
            matrix_core,
            stationary_solvers,
            traffic_network,
        )

        self.cli_io = cli_io
        self.traffic_network = traffic_network
        self.stationary_solvers = stationary_solvers
        self.matrix_core = matrix_core
        self.modules = {
            "cli_io": cli_io,
            "convergence_analysis": convergence_analysis,
            "matrix_core": matrix_core,
            "stationary_solvers": stationary_solvers,
            "traffic_network": traffic_network,
        }
        self.tracer = None

    def cli(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli_io.cli(argv)
        self.printed(out.getvalue())
        return rc, out.getvalue(), err.getvalue()

    def printed(self, text: str) -> None:
        """Count what a request wrote to stdout, while tracing."""
        if self.tracer is not None and self.tracer.active:
            self.tracer.counts["cli_io.bytes_out"] += len(text.encode())


class Workload:
    """Builds each request's call and checks its answer."""

    def __init__(self, program: Program, manifest_path: Path):
        self.p = program
        self.manifest = json.loads(manifest_path.read_text())
        self.dir = manifest_path.parent
        self.name = self.manifest["workload"]
        self.eta = repr(self.manifest["eta"])
        self.requests = self.manifest["requests"]
        self.texts = {}
        self.profile = None
        self.config = None
        self.calls = 0
        self.last_history = None

    def history_path(self) -> Path:
        # A fresh file per request: rewriting a file the kernel has not yet
        # flushed can stall for tens of ms on ext4, which is disk noise, not
        # program time.
        self.calls += 1
        self.last_history = self.dir / f"history-{os.getpid()}-{self.calls}.csv"
        return self.last_history

    def setup(self) -> None:
        warm = self.manifest["warmup"]
        history = self.history_path()
        for argv in (
            ["traffic", "solve", "--aadt", warm["ring"], "--eta", self.eta],
            ["solve", warm["matrix"], warm["rhs"], "--eta", self.eta, "--history", str(history)],
        ):
            rc, _, err = self.p.cli(argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {argv[:2]} exited {rc}: {err.strip()}")
        if self.name == "ring-daily":
            tn = self.p.traffic_network
            geometry = Path(self.requests[0]["aadt"]).read_text()
            a, b = tn.assemble(tn.generate_ring(self.p.cli_io.parse_aadt(geometry)))
            self.profile = tn.classify(tn.reduce(a, b).normal_matrix)
            self.config = self.p.stationary_solvers.SolverConfig(
                method=self.profile.recommendation,
                eta=float(self.eta),
                history_stride=64,
            )
            # Each day's counts arrive as text; reading the files is not
            # part of a request.
            self.texts = {i: Path(r["aadt"]).read_text() for i, r in enumerate(self.requests)}

    def run(self, i: int) -> tuple[int, str, str]:
        item = self.requests[i]
        if self.name == "general-sparse":
            history = self.history_path()
            return self.p.cli(
                ["solve", item["matrix"], item["rhs"], "--eta", self.eta, "--history", str(history)]
            )
        if self.name == "ring-daily":
            return self._daily(self.texts[i])
        return self.p.cli(["traffic", "solve", "--aadt", item["aadt"], "--eta", self.eta])

    def _daily(self, text: str) -> tuple[int, str, str]:
        """assemble -> reduce -> solve with the set-up profile -> reconstruct
        -> fit residual, printed in the CLI's layout."""
        p = self.p
        tn, ss = p.traffic_network, p.stationary_solvers
        network = tn.generate_ring(p.cli_io.parse_aadt(text))
        a, b = tn.assemble(network)
        red = tn.reduce(a, b)
        report = ss.solve(red.normal_matrix, red.normal_rhs, self.config, self.profile)
        full, shift = tn.reconstruct(report.solution)
        fit = p.matrix_core.norm2(ss.residual(a, full, b))
        flows = tn.SegmentFlows(flows=full, shift_constant=shift, residual_norm=fit)
        out = (
            f"iterations         {report.iterations_run}\n"
            f"predicted          {report.predicted_iterations}\n"
            f"converged          {'yes' if report.converged else 'no'}\n"
            f"final_residual     {report.final_residual_norm:.6e}\n"
            f"fit_residual       {fit:.6e}\n\n"
        ) + p.cli_io.write_segments(network, flows)
        p.printed(out)
        return (0 if report.converged else 2), out, ""

    def check(self, i: int, rc: int, out: str, err: str) -> tuple[str | None, float]:
        """(problem or None, largest entry error relative to the answer)."""
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}", math.inf
        lines = out.splitlines()
        if "converged          yes" not in lines:
            return "not converged", math.inf
        item = self.requests[i]
        try:
            if self.name == "general-sparse":
                x = [float(v) for v in lines[lines.index("solution") + 1 :]]
                problem = self._check_history(lines)
                if problem is not None:
                    return problem, math.inf
            else:
                start = lines.index("segment,from_exit,to_exit,flow") + 1
                x = [float(row.rsplit(",", 1)[1]) for row in lines[start:]]
        except (ValueError, IndexError) as exc:
            return f"unreadable output: {exc}", math.inf
        ref = item["ref"]
        if len(x) != len(ref):
            return f"{len(x)} values, expected {len(ref)}", math.inf
        diff = [u - v for u, v in zip(x, ref)]
        worst = max(abs(d) for d in diff)
        rel = worst / max(abs(v) for v in ref)
        if self.name == "general-sparse":
            err2 = math.sqrt(sum(d * d for d in diff))
            if not err2 <= item["tol"]:
                return f"||x - x_ref||_2 = {err2:.3e} > {item['tol']:.3e}", rel
            return None, rel
        if not worst <= item["tol"]:
            return f"max |flow - ref| = {worst:.3e} > {item['tol']:.3e}", rel
        n = len(x)
        cons = math.sqrt(sum((x[k] - x[(k + 1) % n] - item["net"][k]) ** 2 for k in range(n)))
        if not cons <= item["tol_conservation"]:
            return f"conservation residual {cons:.3e} > {item['tol_conservation']:.3e}", rel
        return None, rel

    def _check_history(self, lines: list[str]) -> str | None:
        """The history CSV ends at the reported iteration count; removed after."""
        rows = self.last_history.read_text().splitlines()
        self.last_history.unlink()
        iterations = next(ln.split()[1] for ln in lines if ln.startswith("iterations "))
        if rows[0] != "iteration,residual_norm" or rows[-1].split(",")[0] != iterations:
            return f"history CSV does not end at iteration {iterations}"
        return None


class Pass:
    """Latencies, failures and the stdout digest of a series of requests."""

    def __init__(self, work: Workload):
        self.work = work
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.rel_err_max = 0.0
        self.digest = hashlib.sha256()
        self.check_time = 0.0

    def request(self, k: int, call) -> float:
        """Run request ``k`` through ``call``, check it, return its end time.

        The first pass over the inputs feeds the stdout digest.
        """
        pool = len(self.work.requests)
        i = k % pool
        t0 = time.perf_counter()
        try:
            rc, out, err = call(i)
        except Exception as exc:  # a request that raises counts as failed
            rc, out, err = -1, "", f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        problem, rel = self.work.check(i, rc, out, err)
        if problem is not None:
            self.failures.append(f"request {k} (input {i}): {problem}")
        else:
            self.rel_err_max = max(self.rel_err_max, rel)
        if k < pool:
            self.digest.update(out.encode())
        self.check_time += time.perf_counter() - t1
        return t1


def micro(fn, budget: float = 0.2, min_calls: int = 5) -> float:
    """Median wall time of one call, over at least ``min_calls`` calls."""
    times = []
    t_end = time.perf_counter() + budget
    while len(times) < min_calls or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sweep_call(ss, split, x, b, method):
    if method.tag == "jacobi":
        return lambda: ss.jacobi_sweep(split, x, b)
    if method.tag == "gauss-seidel":
        return lambda: ss.gauss_seidel_sweep(split, x, b)
    return lambda: ss.sor_sweep(split, x, b, method.omega)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    program = Program()
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = program.tracer = spans.Tracer(program.modules)
        tracer.install()
    work = Workload(program, Path(args.manifest))
    if tracer is None:
        work.setup()
    else:
        tracer.root("setup", "setup", work.setup)
    result = {"setup_s": time.perf_counter() - T_START}
    for stale in work.dir.glob(f"history-{os.getpid()}-*.csv"):
        stale.unlink()
    pool = len(work.requests)

    if args.mode == "measure":
        loop = Pass(work)
        t_loop = time.perf_counter()
        k = 0
        while True:
            t_end = loop.request(k, work.run)
            k += 1
            if k >= pool and t_end - t_loop >= args.seconds:
                break
        wall = time.perf_counter() - t_loop
        result.update(
            latencies=loop.latencies,
            failures=loop.failures,
            busy_s=wall - loop.check_time,
            digest=loop.digest.hexdigest(),
            rel_err_max=loop.rel_err_max,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    elif args.mode == "trace":
        tracer.uninstall()
        plain, traced = Pass(work), Pass(work)

        # Each input runs once untraced and once traced, the order
        # alternating, so the overhead estimate pairs like with like.  The
        # wrappers go in and out outside the timed call.
        for k in range(pool):
            for traced_turn in (False, True) if k % 2 == 0 else (True, False):
                if traced_turn:
                    tracer.install()
                    traced.request(k, lambda i: tracer.root("request", k, work.run, i))
                    tracer.uninstall()
                else:
                    plain.request(k, work.run)
        metrics = tracer.layer_metrics()
        a, b, method = tracer.last_system
        ss = program.stationary_solvers
        split = program.matrix_core.split_dlu(a)
        metrics["stationary_solvers.sweep_s"] = micro(sweep_call(ss, split, b, b, method))
        metrics["stationary_solvers.residual_s"] = micro(lambda: ss.residual(a, b, b))
        metrics["stationary_solvers.rel_err_max"] = traced.rel_err_max
        metrics["trace.overhead_s"] = statistics.median(traced.latencies) - statistics.median(
            plain.latencies
        )
        problems = tracer.check_nesting()
        if plain.digest.hexdigest() != traced.digest.hexdigest():
            problems.append("traced output differs from untraced output")
        spans_path = work.dir / "spans.jsonl"
        tracer.write_spans(spans_path)
        result.update(
            metrics=metrics,
            attempted=2 * pool,
            failures=plain.failures + traced.failures,
            problems=problems,
            digest=plain.digest.hexdigest(),
            breakdown=tracer.request_breakdown(),
            spans=str(spans_path),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
