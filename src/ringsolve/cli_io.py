"""File formats and the ringsolve command line.

Formats are line-oriented text.  Matrix and vector files accept '#'
comment lines and blank lines anywhere; parse errors always carry the
1-based physical line number.  All decimals are written with 17
significant digits so that parse(write(x)) reproduces x bit for bit.

Exit status contract: 0 on success, 1 on usage or input errors (bad
flags, malformed files, out-of-range omega), 2 on numerical failures
(zero diagonal, divergence, no convergent method, or a solve that stops
at max_iterations without reaching the threshold).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .convergence_analysis import _FALLBACK_OMEGA, classify, select_method
from .errors import NumericalError, ParseError
from .matrix_core import DenseMatrix, Matrix, SparseMatrix, Vector, _csr
from .stationary_solvers import Method, SolverConfig, solve
from .traffic_network import (
    Branch,
    FlowNetwork,
    Node,
    RingSpec,
    SegmentFlows,
    assemble,
    close_exits,
    generate_ring,
    reduce,
    solve_traffic,
)

__all__ = [
    "parse_matrix",
    "write_matrix",
    "parse_vector",
    "write_vector",
    "parse_network",
    "write_network",
    "parse_aadt",
    "write_aadt",
    "parse_segments",
    "write_segments",
    "cli",
    "main",
]

_METHOD_CHOICES = ["auto", "jacobi", "gauss-seidel", "sor"]


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _records(text: str):
    """(line_no, stripped) for every non-blank, non-comment line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped


def _eof_line(text: str) -> int:
    return len(text.splitlines()) + 1


def _int_token(line_no: int, token: str, label: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"invalid {label} {token!r}") from None


def _float_token(line_no: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"invalid decimal {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite value {token!r}")
    return value


def parse_matrix(text: str) -> Matrix:
    """Read a 'dense R C' or 'sparse R C NNZ' matrix file."""
    records = list(_records(text))
    if not records:
        raise ParseError(_eof_line(text), "expected a matrix header")
    header_no, header = records[0]
    tokens = header.split()
    kind = tokens[0]
    if kind == "dense":
        if len(tokens) != 3:
            raise ParseError(header_no, f"expected 'dense R C', got {header!r}")
        rows_n = _int_token(header_no, tokens[1], "row count")
        cols_n = _int_token(header_no, tokens[2], "column count")
        if rows_n < 1 or cols_n < 1:
            raise ParseError(header_no, f"matrix dimensions must be positive, got {header!r}")
        data = records[1:]
        if len(data) < rows_n:
            raise ParseError(
                _eof_line(text), f"expected {rows_n} matrix rows, found {len(data)}"
            )
        if len(data) > rows_n:
            raise ParseError(data[rows_n][0], "unexpected extra data line")
        entries: list[float] = []
        for line_no, line in data:
            parts = line.split()
            if len(parts) != cols_n:
                raise ParseError(line_no, f"expected {cols_n} values, found {len(parts)}")
            for part in parts:
                entries.append(_float_token(line_no, part))
        return DenseMatrix(rows_n, cols_n, tuple(entries))
    if kind == "sparse":
        if len(tokens) != 4:
            raise ParseError(header_no, f"expected 'sparse R C NNZ', got {header!r}")
        rows_n = _int_token(header_no, tokens[1], "row count")
        cols_n = _int_token(header_no, tokens[2], "column count")
        nnz = _int_token(header_no, tokens[3], "entry count")
        if rows_n < 1 or cols_n < 1 or nnz < 0:
            raise ParseError(header_no, f"bad sparse header {header!r}")
        data = records[1:]
        if len(data) < nnz:
            raise ParseError(_eof_line(text), f"expected {nnz} entries, found {len(data)}")
        if len(data) > nnz:
            raise ParseError(data[nnz][0], "unexpected extra data line")
        prev: tuple[int, int] | None = None
        cols_list: list[int] = []
        values: list[float] = []
        counts = [0] * (rows_n + 1)
        for line_no, line in data:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(line_no, f"expected 3 values, found {len(parts)}")
            r = _int_token(line_no, parts[0], "row index")
            c = _int_token(line_no, parts[1], "column index")
            v = _float_token(line_no, parts[2])
            if not 0 <= r < rows_n:
                raise ParseError(line_no, f"row index {r} out of range for {rows_n} rows")
            if not 0 <= c < cols_n:
                raise ParseError(
                    line_no, f"column index {c} out of range for {cols_n} columns"
                )
            if prev is not None:
                if (r, c) == prev:
                    raise ParseError(line_no, f"duplicate entry at ({r}, {c})")
                if (r, c) < prev:
                    raise ParseError(line_no, "entries not sorted by (row, col)")
            prev = (r, c)
            counts[r + 1] += 1
            cols_list.append(c)
            values.append(v)
        for i in range(rows_n):
            counts[i + 1] += counts[i]
        return SparseMatrix(rows_n, cols_n, tuple(counts), tuple(cols_list), tuple(values))
    raise ParseError(header_no, f"expected 'dense' or 'sparse' header, got {kind!r}")


def write_matrix(matrix: Matrix) -> str:
    if isinstance(matrix, DenseMatrix):
        lines = [f"dense {matrix.rows} {matrix.cols}"]
        for i in range(matrix.rows):
            lines.append(" ".join(_fmt(v) for v in matrix.row(i)))
    else:
        lines = [f"sparse {matrix.rows} {matrix.cols} {len(matrix.values)}"]
        for i in range(matrix.rows):
            for j, v in matrix.row_items(i):
                lines.append(f"{i} {j} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def parse_vector(text: str) -> Vector:
    """Read a vector file: one decimal per line."""
    entries: list[float] = []
    for line_no, line in _records(text):
        parts = line.split()
        if len(parts) != 1:
            raise ParseError(line_no, f"expected 1 value, found {len(parts)}")
        entries.append(_float_token(line_no, parts[0]))
    if not entries:
        raise ParseError(_eof_line(text), "expected at least one value")
    return Vector(tuple(entries))


def write_vector(vector: Vector) -> str:
    return "".join(_fmt(v) + "\n" for v in vector.entries)


def parse_network(text: str) -> FlowNetwork:
    """Read 'node <id> <inflow>' and 'branch <from> <to>' records.

    Nodes must be declared before any branch references them; branches
    are numbered 0, 1, ... in file order.
    """
    nodes: list[Node] = []
    node_lines: dict[str, int] = {}
    branches: list[Branch] = []
    for line_no, line in _records(text):
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 3:
                raise ParseError(line_no, f"expected 'node <id> <inflow>', got {line!r}")
            node_id = tokens[1]
            if node_id in node_lines:
                raise ParseError(line_no, f"duplicate node id {node_id!r}")
            node_lines[node_id] = line_no
            nodes.append(Node(node_id, _float_token(line_no, tokens[2])))
        elif tokens[0] == "branch":
            if len(tokens) != 3:
                raise ParseError(line_no, f"expected 'branch <from> <to>', got {line!r}")
            for name in tokens[1:]:
                if name not in node_lines:
                    raise ParseError(line_no, f"unknown node {name!r}")
            if tokens[1] == tokens[2]:
                raise ParseError(line_no, f"self-loop branch at node {tokens[1]!r}")
            branches.append(Branch(len(branches), tokens[1], tokens[2]))
        else:
            raise ParseError(line_no, f"unknown record type {tokens[0]!r}")
    if not nodes:
        raise ParseError(_eof_line(text), "network file declares no nodes")
    used = set()
    for branch in branches:
        used.add(branch.from_node)
        used.add(branch.to_node)
    for node in nodes:
        if node.node_id not in used:
            raise ParseError(
                node_lines[node.node_id], f"node {node.node_id!r} has no incident branch"
            )
    return FlowNetwork(tuple(nodes), tuple(branches))


def write_network(network: FlowNetwork) -> str:
    for node in network.nodes:
        if node.node_id.startswith("#") or any(ch.isspace() for ch in node.node_id):
            raise ValueError(f"node id {node.node_id!r} cannot be serialized")
    lines = [
        f"node {node.node_id} {_fmt(node.external_net_inflow)}" for node in network.nodes
    ]
    lines += [f"branch {branch.from_node} {branch.to_node}" for branch in network.branches]
    return "\n".join(lines) + "\n"


def parse_aadt(text: str) -> RingSpec:
    """Read an 'exit,inflow,outflow' CSV into a ring specification."""
    rows = [
        (line_no, line.strip())
        for line_no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not rows:
        raise ParseError(_eof_line(text), "expected header 'exit,inflow,outflow'")
    header_no, header = rows[0]
    if header != "exit,inflow,outflow":
        raise ParseError(header_no, f"expected header 'exit,inflow,outflow', got {header!r}")
    exits: list[tuple[float, float]] = []
    for line_no, line in rows[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 fields, found {len(parts)}")
        number = _int_token(line_no, parts[0], "exit number")
        if number != len(exits) + 1:
            raise ParseError(line_no, f"exit number must be {len(exits) + 1}, got {number}")
        inflow = _float_token(line_no, parts[1])
        outflow = _float_token(line_no, parts[2])
        if inflow < 0.0 or outflow < 0.0:
            raise ParseError(line_no, "AADT values must be non-negative")
        exits.append((inflow, outflow))
    if len(exits) < 3:
        raise ParseError(_eof_line(text), f"expected at least 3 exits, found {len(exits)}")
    return RingSpec(len(exits), tuple(exits))


def write_aadt(spec: RingSpec) -> str:
    lines = ["exit,inflow,outflow"]
    for i, (inflow, outflow) in enumerate(spec.exits, start=1):
        lines.append(f"{i},{_fmt(inflow)},{_fmt(outflow)}")
    return "\n".join(lines) + "\n"


def write_segments(network: FlowNetwork, flows: SegmentFlows) -> str:
    """Per-branch flow CSV: 'segment,from_exit,to_exit,flow'."""
    if len(flows.flows) != len(network.branches):
        raise ValueError(
            f"{len(flows.flows)} flows do not match {len(network.branches)} branches"
        )
    lines = ["segment,from_exit,to_exit,flow"]
    for branch, value in zip(network.branches, flows.flows.entries):
        lines.append(f"{branch.branch_id},{branch.from_node},{branch.to_node},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def parse_segments(text: str) -> tuple[tuple[int, str, str, float], ...]:
    rows = [
        (line_no, line.strip())
        for line_no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not rows or rows[0][1] != "segment,from_exit,to_exit,flow":
        raise ParseError(
            rows[0][0] if rows else 1, "expected header 'segment,from_exit,to_exit,flow'"
        )
    out: list[tuple[int, str, str, float]] = []
    for line_no, line in rows[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ParseError(line_no, f"expected 4 fields, found {len(parts)}")
        segment = _int_token(line_no, parts[0], "segment id")
        if segment != len(out):
            raise ParseError(line_no, f"segment id must be {len(out)}, got {segment}")
        out.append((segment, parts[1], parts[2], _float_token(line_no, parts[3])))
    return tuple(out)


def _print_pairs(pairs) -> None:
    for label, value in pairs:
        print(f"{label:<19}{value}")


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _opt(value, spec: str = ".6f") -> str:
    return "-" if value is None else format(value, spec)


def _recommendation_text(recommendation) -> str:
    return recommendation if isinstance(recommendation, str) else recommendation.tag


def _cmd_analyze(args) -> int:
    matrix = parse_matrix(Path(args.matrix).read_text())
    profile = classify(matrix)
    if args.json:
        payload = {
            "rows": matrix.rows,
            "cols": matrix.cols,
            "is_symmetric": profile.is_symmetric,
            "is_strictly_diag_dominant": profile.is_strictly_diag_dominant,
            "is_weakly_diag_dominant": profile.is_weakly_diag_dominant,
            "is_tridiagonal": profile.is_tridiagonal,
            "is_positive_definite": profile.is_positive_definite,
            "has_zero_diagonal": profile.has_zero_diagonal,
            "rho": {
                "jacobi": profile.rho_jacobi,
                "gauss_seidel": profile.rho_gauss_seidel,
                "sor": profile.rho_sor,
            },
            "sor_omega": profile.sor_omega,
            "omega_star": profile.omega_star,
            "recommendation": _recommendation_text(profile.recommendation),
            "radii_converged": profile.radii_converged,
        }
        print(json.dumps(payload, indent=2))
        return 0
    pairs = [
        ("rows", str(matrix.rows)),
        ("cols", str(matrix.cols)),
        ("symmetric", _flag(profile.is_symmetric)),
        ("strictly_dominant", _flag(profile.is_strictly_diag_dominant)),
        ("weakly_dominant", _flag(profile.is_weakly_diag_dominant)),
        ("tridiagonal", _flag(profile.is_tridiagonal)),
        ("positive_definite", _flag(profile.is_positive_definite)),
        ("zero_diagonal", _flag(profile.has_zero_diagonal)),
        ("rho_jacobi", _opt(profile.rho_jacobi)),
        ("rho_gauss_seidel", _opt(profile.rho_gauss_seidel)),
        ("rho_sor", _opt(profile.rho_sor)),
        ("sor_omega", _opt(profile.sor_omega)),
        ("omega_star", _opt(profile.omega_star)),
        ("recommendation", _recommendation_text(profile.recommendation)),
    ]
    _print_pairs(pairs)
    return 0


def _forced_method(name: str, omega: float | None, profile) -> Method:
    if name == "jacobi":
        return Method.jacobi()
    if name == "gauss-seidel":
        return Method.gauss_seidel()
    if omega is not None:
        return Method.sor(omega)
    fallback = profile.sor_omega if profile.sor_omega is not None else _FALLBACK_OMEGA
    return Method.sor(fallback)


def _check_omega_flag(args) -> None:
    if args.method != "sor" and args.omega is not None:
        raise ValueError("--omega requires --method sor")


def _exit_status(report, config: SolverConfig) -> int:
    """0 for a converged solve; otherwise report it on stderr and return 2."""
    if report.converged:
        return 0
    print(
        f"error: did not converge within {config.max_iterations} iterations "
        f"(final residual {report.final_residual_norm:.6e})",
        file=sys.stderr,
    )
    return 2


def _cmd_solve(args) -> int:
    _check_omega_flag(args)
    # One CSR form serves classify and solve, so its row views are derived once.
    a = _csr(parse_matrix(Path(args.matrix).read_text()))
    b = parse_vector(Path(args.rhs).read_text())
    x0 = parse_vector(Path(args.x0).read_text()) if args.x0 else None
    if a.rows != a.cols:
        raise ValueError(f"matrix is {a.rows}x{a.cols}, expected square")
    if len(b) != a.rows:
        raise ValueError(f"matrix has {a.rows} rows but rhs has {len(b)} entries")
    if x0 is not None and len(x0) != a.rows:
        raise ValueError(f"matrix has {a.rows} rows but x0 has {len(x0)} entries")
    profile = classify(a)
    rationale = None
    if args.method == "auto":
        method, rationale = select_method(profile)
    else:
        method = _forced_method(args.method, args.omega, profile)
    # Without --history no residual is wanted before the convergence checks.
    config = SolverConfig(
        method=method,
        eta=args.eta,
        max_iterations=args.max_iter,
        initial_guess=x0,
        history_stride=1 if args.history else args.max_iter,
    )
    report = solve(a, b, config, profile)
    pairs = [("method", method.tag)]
    if method.tag == "sor":
        pairs.append(("omega", _fmt(method.omega)))
    if rationale is not None:
        pairs.append(("rationale", rationale))
    pairs += [
        ("converged", _flag(report.converged)),
        ("iterations", str(report.iterations_run)),
        ("predicted", "-" if report.predicted_iterations is None else str(report.predicted_iterations)),
        ("final_residual", f"{report.final_residual_norm:.6e}"),
        ("eta", f"{config.eta:.6e}"),
    ]
    if args.timing:
        pairs.append(("wall_time", f"{report.wall_time:.3f}s"))
    _print_pairs(pairs)
    print("solution")
    for v in report.solution.entries:
        print(f"  {_fmt(v)}")
    if args.history:
        rows = "".join(f"{k},{_fmt(r)}\n" for k, r in report.residual_history)
        Path(args.history).write_text("iteration,residual_norm\n" + rows)
    return _exit_status(report, config)


def _cmd_traffic_solve(args) -> int:
    if (args.network is None) == (args.aadt is None):
        raise ValueError("provide exactly one of <network> or --aadt")
    _check_omega_flag(args)
    if args.network is not None:
        network = parse_network(Path(args.network).read_text())
    else:
        network = generate_ring(parse_aadt(Path(args.aadt).read_text()))
    if args.close_exit:
        network = close_exits(network, args.close_exit)
    method = None
    if args.method != "auto":
        if args.method == "sor" and args.omega is None:
            # Probe the reduced system for the profiled weight so a bare
            # '--method sor' runs at the optimum when one exists.
            a, b = assemble(network)
            pre = classify(reduce(a, b).normal_matrix)
            method = _forced_method("sor", None, pre)
        else:
            method = _forced_method(args.method, args.omega, None)
    # No history is printed, so no residual is wanted before the checks.
    config = SolverConfig(
        method=method, eta=args.eta, max_iterations=args.max_iter, history_stride=args.max_iter
    )
    flows, report, profile = solve_traffic(network, config)
    chosen = method if method is not None else profile.recommendation
    pairs = [("method", chosen.tag)]
    if chosen.tag == "sor":
        pairs.append(("omega", _fmt(chosen.omega)))
    pairs += [
        ("omega_star", "-" if profile.omega_star is None else _fmt(profile.omega_star)),
        ("iterations", str(report.iterations_run)),
        ("predicted", "-" if report.predicted_iterations is None else str(report.predicted_iterations)),
        ("converged", _flag(report.converged)),
        ("final_residual", f"{report.final_residual_norm:.6e}"),
        ("eta", f"{config.eta:.6e}"),
        ("shift_constant", _fmt(flows.shift_constant)),
        ("fit_residual", f"{flows.residual_norm:.6e}"),
    ]
    if args.timing:
        pairs.append(("wall_time", f"{report.wall_time:.3f}s"))
    _print_pairs(pairs)
    if flows.imbalance_warning:
        print(
            "warning: external flows do not balance; least-squares fit applied",
            file=sys.stderr,
        )
    csv_text = write_segments(network, flows)
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"segments written to {args.out}")
    else:
        print()
        sys.stdout.write(csv_text)
    return _exit_status(report, config)


def _cmd_traffic_generate(args) -> int:
    spec = parse_aadt(Path(args.aadt).read_text())
    if spec.n != args.exits:
        raise ValueError(
            f"--exits {args.exits} does not match the {spec.n} exits in the AADT file"
        )
    network = generate_ring(spec)
    Path(args.out).write_text(write_network(network))
    print(f"wrote ring network with {spec.n} exits to {args.out}")
    return 0


def _add_solve_options(parser, **file_options) -> None:
    """The options ``solve`` and ``traffic solve`` share.

    Each keyword names a further file option and gives its help text;
    those options come before ``--timing``.
    """
    parser.add_argument("--method", choices=_METHOD_CHOICES, default="auto")
    parser.add_argument("--omega", type=float, default=None, help="SOR weight in (0, 2)")
    parser.add_argument("--eta", type=float, default=1e-3, help="residual threshold")
    parser.add_argument("--max-iter", type=int, default=100000, dest="max_iter")
    for name, help_text in file_options.items():
        parser.add_argument(f"--{name}", default=None, help=help_text)
    parser.add_argument("--timing", action="store_true", help="include wall time")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsolve",
        description=(
            "Stationary iterative solvers (Jacobi, Gauss-Seidel, SOR) with "
            "convergence analysis and a ring-road traffic pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a matrix and print its profile")
    analyze.add_argument("matrix", help="matrix file")
    analyze.add_argument("--json", action="store_true", help="emit a JSON object")
    analyze.set_defaults(func=_cmd_analyze)

    solve_p = sub.add_parser("solve", help="solve A x = b with a stationary method")
    solve_p.add_argument("matrix", help="matrix file")
    solve_p.add_argument("rhs", help="right-hand-side vector file")
    _add_solve_options(
        solve_p, x0="initial guess vector file", history="write residual history CSV here"
    )
    solve_p.set_defaults(func=_cmd_solve)

    traffic = sub.add_parser("traffic", help="ring-road traffic estimation")
    tsub = traffic.add_subparsers(dest="traffic_command", required=True)

    tsolve = tsub.add_parser("solve", help="estimate per-segment flows")
    tsolve.add_argument("network", nargs="?", default=None, help="network file")
    tsolve.add_argument("--aadt", default=None, help="AADT CSV (builds a ring)")
    tsolve.add_argument(
        "--close-exit", action="append", default=[], dest="close_exit", help="exit id to close"
    )
    _add_solve_options(tsolve, out="write segment CSV here")
    tsolve.set_defaults(func=_cmd_traffic_solve)

    tgen = tsub.add_parser("generate", help="write a ring network file from AADT counts")
    tgen.add_argument("--exits", type=int, required=True, help="expected exit count")
    tgen.add_argument("--aadt", required=True, help="AADT CSV")
    tgen.add_argument("--out", required=True, help="network file to write")
    tgen.set_defaults(func=_cmd_traffic_generate)
    return parser


def cli(argv) -> int:
    """Run the command line; returns the exit status instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))
