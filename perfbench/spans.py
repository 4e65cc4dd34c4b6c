"""Spans around the program's public functions, installed from outside.

The program is not edited.  Each public function is replaced, in every
module namespace it is called through, by a wrapper that records a span:
name, start, end, parent span and request id.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time its
child spans cover; one thread runs everything, so children nest inside
their parent and never overlap, and ``check_nesting`` verifies that.

Counts are taken from the same wrappers, from arguments and return values
the program already hands back, so they are exact.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import defaultdict

# (namespace, attribute, span name).  A function imported into several
# modules is wrapped in each, because callers look it up there at call time.
# The sweeps that traffic_network._predicted_counts runs are left unwrapped,
# so they stay in solve_traffic's self time.
WRAPPED = (
    ("cli_io", "cli", "cli_io.cli"),
    ("cli_io", "parse_aadt", "cli_io.parse_aadt"),
    ("cli_io", "parse_matrix", "cli_io.parse_matrix"),
    ("cli_io", "parse_vector", "cli_io.parse_vector"),
    ("cli_io", "write_segments", "cli_io.write_segments"),
    ("cli_io", "classify", "convergence_analysis.classify"),
    ("cli_io", "solve", "stationary_solvers.solve"),
    ("cli_io", "generate_ring", "traffic_network.generate_ring"),
    ("cli_io", "solve_traffic", "traffic_network.solve_traffic"),
    ("traffic_network", "generate_ring", "traffic_network.generate_ring"),
    ("traffic_network", "assemble", "traffic_network.assemble"),
    ("traffic_network", "reduce", "traffic_network.reduce"),
    ("traffic_network", "reconstruct", "traffic_network.reconstruct"),
    ("traffic_network", "classify", "convergence_analysis.classify"),
    ("traffic_network", "solve", "stationary_solvers.solve"),
    ("traffic_network", "residual", "stationary_solvers.residual"),
    ("traffic_network", "gram", "matrix_core.gram"),
    ("traffic_network", "transpose_matvec", "matrix_core.transpose_matvec"),
    ("traffic_network", "split_dlu", "matrix_core.split_dlu"),
    ("traffic_network", "inf_norm", "matrix_core.inf_norm"),
    ("convergence_analysis", "structure_flags", "convergence_analysis.structure_flags"),
    ("convergence_analysis", "spectral_radius", "convergence_analysis.spectral_radius"),
    ("convergence_analysis", "iteration_matrix", "stationary_solvers.iteration_matrix"),
    ("stationary_solvers", "solve", "stationary_solvers.solve"),
    ("stationary_solvers", "residual", "stationary_solvers.residual"),
    ("stationary_solvers", "split_dlu", "matrix_core.split_dlu"),
    ("stationary_solvers", "inf_norm", "matrix_core.inf_norm"),
)

# Per-layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "convergence_analysis.spectral_radius_s": ("convergence_analysis.spectral_radius",),
    "convergence_analysis.structure_flags_s": ("convergence_analysis.structure_flags",),
    "stationary_solvers.iteration_matrix_s": ("stationary_solvers.iteration_matrix",),
    "stationary_solvers.solve_s": ("stationary_solvers.solve",),
    "matrix_core.gram_s": ("matrix_core.gram",),
    "matrix_core.split_dlu_s": ("matrix_core.split_dlu",),
    "matrix_core.inf_norm_s": ("matrix_core.inf_norm",),
    "traffic_network.assemble_s": ("traffic_network.assemble",),
    "traffic_network.reduce_s": ("traffic_network.reduce",),
    "traffic_network.reconstruct_s": ("traffic_network.reconstruct",),
    "traffic_network.solve_traffic_self_s": ("traffic_network.solve_traffic",),
    "cli_io.parse_s": (
        "cli_io.parse_aadt",
        "cli_io.parse_matrix",
        "cli_io.parse_vector",
        "cli_io.read_text",
    ),
    "cli_io.write_s": ("cli_io.write_segments", "cli_io.write_text"),
    "cli_io.self_s": ("cli_io.cli",),
}
# Stage totals that include their children.
INCLUSIVE_TIME = {"convergence_analysis.classify_s": "convergence_analysis.classify"}

ROOTS = ("setup", "request")


def residual_evals(iterations: int, stride: int, predicted: int | None) -> int:
    """Residual norms ``solve`` computed, from its report and config.

    ``solve`` evaluates one at every multiple of the history stride and at
    every iteration from the first check on; the first check is the
    predicted count when there is one, else iteration 1.
    """
    first = 1 if predicted is None else predicted
    strided = iterations // stride
    tail = max(0, iterations - first + 1)
    both = iterations // stride - (first - 1) // stride if iterations >= first else 0
    return strided + tail - both


class Tracer:
    """Wraps the program's modules and keeps spans and counts in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.request = "setup"
        self.counts: dict[str, float] = defaultdict(int)
        self.solves: list[tuple] = []  # (request id, config, report)
        self.last_system = None  # (a, b, method) of the latest request solve
        self._saved: list[tuple] = []
        self._hooks = {
            "convergence_analysis.spectral_radius": self._on_spectral_radius,
            "convergence_analysis.classify": self._on_classify,
            "matrix_core.gram": self._on_gram,
            "stationary_solvers.iteration_matrix": self._on_iteration_matrix,
            "stationary_solvers.solve": self._on_solve,
            "cli_io.parse_aadt": self._on_parse,
            "cli_io.parse_matrix": self._on_parse,
            "cli_io.parse_vector": self._on_parse,
        }
        self._path_cls = self._traced_path(modules["cli_io"].Path)

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def root(self, kind: str, request_id, fn, *args):
        """Run ``fn(*args)`` as the root span of one request or of set-up."""
        self.request = request_id
        idx = self.begin(kind)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    # -- installation --------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, self._hooks.get(name)))
        cli_io = self.modules["cli_io"]
        self._saved.append((cli_io, "Path", cli_io.Path))
        cli_io.Path = self._path_cls

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _traced_path(self, path_cls):
        tracer = self

        class TracedPath(type(path_cls())):
            def read_text(self, *args, **kwargs):
                idx = tracer.begin("cli_io.read_text")
                try:
                    return super().read_text(*args, **kwargs)
                finally:
                    tracer.end(idx)

            def write_text(self, data, *args, **kwargs):
                tracer.counts["cli_io.bytes_out"] += len(data.encode())
                idx = tracer.begin("cli_io.write_text")
                try:
                    return super().write_text(data, *args, **kwargs)
                finally:
                    tracer.end(idx)

        return TracedPath

    # -- counters ------------------------------------------------------
    def _on_spectral_radius(self, args, est) -> None:
        self.counts["convergence_analysis.power_steps"] += est.iterations_used
        self.counts["convergence_analysis.power_unconverged"] += int(not est.converged)

    def _on_classify(self, args, profile) -> None:
        self.counts["convergence_analysis.classify_calls"] += 1

    def _on_gram(self, args, dense) -> None:
        self.counts["matrix_core.dense_bytes"] += 8 * dense.rows * dense.cols

    def _on_iteration_matrix(self, args, it) -> None:
        self.counts["matrix_core.dense_bytes"] += 8 * it.T.rows * it.T.cols

    def _on_solve(self, args, report) -> None:
        a, b, config = args[:3]
        self.solves.append((self.request, config, report))
        self.counts["stationary_solvers.sweeps"] += report.iterations_run
        self.counts["stationary_solvers.residual_evals"] += residual_evals(
            report.iterations_run, config.history_stride, report.predicted_iterations
        )
        if report.predicted_iterations is not None:
            self.counts["sweeps_with_prediction"] += report.iterations_run
            self.counts["predicted"] += report.predicted_iterations
        if self.request != "setup":
            self.last_system = (a, b, config.method)

    def _on_parse(self, args, result) -> None:
        self.counts["cli_io.bytes_in"] += len(args[0].encode())

    # -- results -------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def check_nesting(self) -> list[str]:
        """Problems that would make self times misattribute time."""
        problems = []
        last_child_end: dict[int, float] = {}
        for idx, (name, start, end, parent, request) in enumerate(self.spans):
            if end is None or end < start:
                problems.append(f"span {idx} {name} is not closed")
                continue
            if parent is None:
                if name not in ROOTS:
                    problems.append(f"span {idx} {name} has no root")
                continue
            p = self.spans[parent]
            if start < p[1] or end > p[2] or request != p[4]:
                problems.append(f"span {idx} {name} escapes its parent {p[0]}")
            if start < last_child_end.get(parent, -math.inf):
                problems.append(f"span {idx} {name} overlaps a sibling")
            last_child_end[parent] = end
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded, set-up included."""
        selfs = self.self_times()
        self_by_name: dict[str, float] = defaultdict(float)
        incl_by_name: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            self_by_name[span[0]] += own
            incl_by_name[span[0]] += span[2] - span[1]
        out = {m: sum(self_by_name[n] for n in names) for m, names in SELF_TIME.items()}
        out.update({m: incl_by_name[n] for m, n in INCLUSIVE_TIME.items()})
        for key in (
            "convergence_analysis.power_steps",
            "convergence_analysis.power_unconverged",
            "convergence_analysis.classify_calls",
            "stationary_solvers.sweeps",
            "stationary_solvers.residual_evals",
            "matrix_core.dense_bytes",
            "cli_io.bytes_in",
            "cli_io.bytes_out",
        ):
            out[key] = self.counts[key]
        predicted = self.counts["predicted"]
        out["stationary_solvers.sweeps_over_predicted"] = (
            self.counts["sweeps_with_prediction"] / predicted if predicted else 0.0
        )
        overshoots = [
            math.log10(config.eta / report.final_residual_norm)
            for request, config, report in self.solves
            if request != "setup" and report.final_residual_norm > 0.0
        ]
        out["stationary_solvers.overshoot_log10"] = (
            statistics.median(overshoots) if overshoots else 0.0
        )
        roots = [(s, own) for s, own in zip(self.spans, selfs) if s[0] == "request"]
        total = sum(s[2] - s[1] for s, _ in roots)
        out["trace.layer_coverage"] = 1.0 - sum(own for _, own in roots) / total if total else 0.0
        return out

    def request_breakdown(self) -> dict[str, float]:
        """Self time per span name over the requests only, set-up left out."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[4] != "setup":
                out[span[0]] += own
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
