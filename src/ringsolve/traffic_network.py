"""Flow networks, ring assembly, singular reduction, and the traffic pipeline.

A flow network is a directed graph of junction nodes, each carrying a net
external inflow (vehicles/day).  Conservation at every node gives one
linear equation per junction; for a ring of n exits the system matrix is
the n x n circulant with +1 on the diagonal, -1 on the superdiagonal, and
-1 in the lower-left corner.  That matrix is singular with the all-ones
vector spanning its null space, so the pipeline drops the last column,
solves the normal equations of the resulting least-squares problem, and
then shifts the solution along the null space by the median of the
reduced entries to pick a representative.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

from .convergence_analysis import MatrixProfile, classify, select_method
from .errors import ReductionError
from .matrix_core import (
    SparseMatrix,
    Vector,
    _matvec_list,
    _require_square,
    gram,
    norm2,
    transpose_matvec,
)
# ``split_dlu`` and ``inf_norm`` are unused here but stay importable from
# this module, where perfbench's tracer looks them up.
from .matrix_core import inf_norm, split_dlu  # noqa: F401
from .stationary_solvers import SolverConfig, SolveReport, residual, solve

__all__ = [
    "Node",
    "Branch",
    "FlowNetwork",
    "RingSpec",
    "ReducedSystem",
    "SegmentFlows",
    "assemble",
    "generate_ring",
    "reduce",
    "reconstruct",
    "close_exits",
    "solve_traffic",
]

# A ring system is reducible only when the all-ones vector is (numerically)
# in the null space; the residual of A times ones is checked against this.
_BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class Node:
    """A junction with its net external inflow in vehicles/day."""

    node_id: str
    external_net_inflow: float

    def __post_init__(self):
        if not isinstance(self.node_id, str) or not self.node_id:
            raise ValueError(f"node id must be a non-empty string, got {self.node_id!r}")
        if not math.isfinite(self.external_net_inflow):
            raise ValueError(f"external inflow of node {self.node_id!r} is not finite")


@dataclass(frozen=True)
class Branch:
    """A directed road segment between two junctions."""

    branch_id: int
    from_node: str
    to_node: str

    def __post_init__(self):
        if self.from_node == self.to_node:
            raise ValueError(f"branch {self.branch_id} is a self-loop at {self.from_node!r}")


@dataclass(frozen=True)
class FlowNetwork:
    """Ordered junctions and directed branches.

    Branch ids must equal their positions, every endpoint must name an
    existing node, and no node may be isolated.  Branch flows are the
    unknowns of the assembled system, one column per branch in id order.
    """

    nodes: tuple[Node, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("network has no nodes")
        ids = set()
        for node in self.nodes:
            if node.node_id in ids:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            ids.add(node.node_id)
        incident = {node.node_id: 0 for node in self.nodes}
        for pos, branch in enumerate(self.branches):
            if branch.branch_id != pos:
                raise ValueError(
                    f"branch ids must match their positions; got id {branch.branch_id} "
                    f"at position {pos}"
                )
            for name in (branch.from_node, branch.to_node):
                if name not in incident:
                    raise ValueError(f"branch {branch.branch_id} references unknown node {name!r}")
                incident[name] += 1
        for node_id, count in incident.items():
            if count == 0:
                raise ValueError(f"node {node_id!r} is isolated")

    def node_index(self, node_id: str) -> int:
        for i, node in enumerate(self.nodes):
            if node.node_id == node_id:
                return i
        raise KeyError(node_id)

    def is_ring(self) -> bool:
        """True when the branches form a single directed cycle over all nodes."""
        n = len(self.nodes)
        if len(self.branches) != n:
            return False
        nxt: dict[str, str] = {}
        indegree = {node.node_id: 0 for node in self.nodes}
        for branch in self.branches:
            if branch.from_node in nxt:
                return False
            nxt[branch.from_node] = branch.to_node
            indegree[branch.to_node] += 1
        if len(nxt) != n or any(d != 1 for d in indegree.values()):
            return False
        seen = set()
        cur = self.nodes[0].node_id
        while cur not in seen:
            seen.add(cur)
            cur = nxt[cur]
        return cur == self.nodes[0].node_id and len(seen) == n


@dataclass(frozen=True)
class RingSpec:
    """Per-exit AADT counts for a ring road with n exits."""

    n: int
    exits: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"a ring needs at least 3 exits, got {self.n}")
        if len(self.exits) != self.n:
            raise ValueError(f"expected {self.n} exit records, got {len(self.exits)}")
        for i, (inflow, outflow) in enumerate(self.exits):
            for label, v in (("inflow", inflow), ("outflow", outflow)):
                if not math.isfinite(v) or v < 0.0:
                    raise ValueError(
                        f"{label} AADT of exit {i + 1} must be finite and non-negative, got {v}"
                    )


@dataclass(frozen=True)
class ReducedSystem:
    """The singular ring system with its last column dropped.

    ``a_tilde`` is the m x (m-1) rectangular matrix, ``normal_matrix`` and
    ``normal_rhs`` the square normal-equation system of its least-squares
    problem, and ``dropped_column`` the index of the removed unknown.  Both
    matrices are CSR; for a ring the normal matrix is tridiagonal with
    3 (m - 1) - 2 stored entries.
    """

    a_tilde: SparseMatrix
    normal_matrix: SparseMatrix
    normal_rhs: Vector
    dropped_column: int

    def __post_init__(self):
        m = self.a_tilde.rows
        if self.a_tilde.cols != m - 1:
            raise ValueError(
                f"reduced matrix is {m}x{self.a_tilde.cols}, expected {m}x{m - 1}"
            )
        if self.normal_matrix.rows != m - 1 or self.normal_matrix.cols != m - 1:
            raise ValueError("normal matrix shape does not match the reduced matrix")
        if len(self.normal_rhs) != m - 1:
            raise ValueError("normal rhs length does not match the reduced matrix")
        if self.dropped_column != m - 1:
            raise ValueError(f"dropped column must be the last ({m - 1})")


@dataclass(frozen=True)
class SegmentFlows:
    """Reconstructed per-branch flows and the fit quality of the full system.

    ``imbalance_warning`` is set when the external flows do not sum to
    zero; the least-squares solve still proceeds but the flows can then
    only balance the junctions approximately.
    """

    flows: Vector
    shift_constant: float
    residual_norm: float
    imbalance_warning: bool = False


def assemble(network: FlowNetwork) -> tuple[SparseMatrix, Vector]:
    """One conservation row per node: outgoing flows minus incoming flows.

    Row i gets +1 for each branch leaving node i and -1 for each branch
    entering it, with b_i the node's external net inflow.  Each row is
    then sign-normalized so that, when a branch with id equal to the row
    index is incident, that branch's coefficient is +1; a ring built by
    ``generate_ring`` therefore assembles to the +1 diagonal /
    -1 superdiagonal / -1 corner pattern with no flipping needed.
    """
    index = {node.node_id: i for i, node in enumerate(network.nodes)}
    rows: list[dict[int, float]] = [{} for _ in network.nodes]
    for branch in network.branches:
        rows[index[branch.from_node]][branch.branch_id] = 1.0
        rows[index[branch.to_node]][branch.branch_id] = -1.0
    b = [node.external_net_inflow for node in network.nodes]
    for i, row in enumerate(rows):
        if row.get(i) == -1.0:
            for j in row:
                row[j] = -row[j]
            b[i] = -b[i]
    offsets = [0]
    col_indices: list[int] = []
    values: list[float] = []
    for row in rows:
        for j in sorted(row):
            col_indices.append(j)
            values.append(row[j])
        offsets.append(len(col_indices))
    a = SparseMatrix(
        rows=len(network.nodes),
        cols=len(network.branches),
        row_offsets=tuple(offsets),
        col_indices=tuple(col_indices),
        values=tuple(values),
    )
    return a, Vector(tuple(b))


def generate_ring(spec: RingSpec) -> FlowNetwork:
    """A ring network whose exits are numbered "1" through "n".

    Branch j carries the segment leaving exit j+1 toward exit j (wrapping
    at the bottom), matching the junction equations x_i = x_{i+1} + b_i:
    each exit's outgoing segment feeds the previous exit.  The external
    net inflow of an exit is its on-ramp AADT minus its off-ramp AADT.
    """
    n = spec.n
    nodes = tuple(
        Node(str(i + 1), inflow - outflow) for i, (inflow, outflow) in enumerate(spec.exits)
    )
    branches = tuple(
        Branch(j, str(j + 1), str((j - 1) % n + 1)) for j in range(n)
    )
    return FlowNetwork(nodes, branches)


def _components(a: SparseMatrix) -> int:
    """The number of classes of rows linked by sharing a column in which
    both store a nonzero entry: one union-find pass, O(rows + nnz)."""
    parent = list(range(a.rows))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = [-1] * a.cols
    count = a.rows
    for i in range(a.rows):
        for j, v in a.row_items(i):
            if v == 0.0:
                continue
            if first[j] < 0:
                first[j] = i
                continue
            ri, rj = root(i), root(first[j])
            if ri != rj:
                parent[ri] = rj
                count -= 1
    return count


def reduce(a: SparseMatrix, b: Vector) -> ReducedSystem:
    """Drop the last column of a singular balanced system and form normals.

    Requires A times the all-ones vector to vanish (within 1e-9) and the
    rows to form one connected class, linked by shared nonzero columns.
    For the square conservation matrix of a network, balance gives every
    node one branch in and one out, so connected means one ring; several
    disjoint cycles raise ``ReductionError``, as their normal matrix is
    singular.  The returned normal equations are square and CSR, built by
    ``gram`` without a dense intermediate; for ring inputs the normal matrix
    is the SPD tridiagonal matrix with 2 on the diagonal and -1 off it.
    """
    m = _require_square(a)
    if len(b) != m:
        raise ValueError(f"matrix has {m} rows but b has {len(b)} entries")
    if m < 2:
        raise ValueError("cannot reduce a 1x1 system")
    drift = _matvec_list(a, [1.0] * m)
    if max(abs(v) for v in drift) > _BALANCE_TOL:
        raise ReductionError("matrix is not circulant-balanced; reduction inapplicable")
    if _components(a) > 1:
        raise ReductionError("network is not one ring: its branches form several disjoint cycles")
    offsets = [0]
    col_indices: list[int] = []
    values: list[float] = []
    for i in range(m):
        for j, v in a.row_items(i):
            if j < m - 1:
                col_indices.append(j)
                values.append(v)
        offsets.append(len(col_indices))
    a_tilde = SparseMatrix(
        rows=m,
        cols=m - 1,
        row_offsets=tuple(offsets),
        col_indices=tuple(col_indices),
        values=tuple(values),
    )
    return ReducedSystem(
        a_tilde=a_tilde,
        normal_matrix=gram(a_tilde),
        normal_rhs=transpose_matvec(a_tilde, b),
        dropped_column=m - 1,
    )


def reconstruct(x_tilde: Vector) -> tuple[Vector, float]:
    """Extend a reduced solution to the full ring by a median shift.

    The reduced solution fixes the dropped unknown at 0; adding a
    constant along the all-ones null direction yields another solution.
    The constant is the median of the reduced entries (midpoint mean for
    even counts), so the full vector is every entry plus c, with c itself
    appended as the dropped unknown.
    """
    if len(x_tilde) == 0:
        raise ValueError("cannot reconstruct from an empty reduced solution")
    c = float(statistics.median(x_tilde.entries))
    full = tuple(x + c for x in x_tilde.entries) + (c,)
    return Vector(full), c


def close_exits(network: FlowNetwork, exit_ids) -> FlowNetwork:
    """Remove ring exits, merging each one's two segments into one.

    The closed node's external flow disappears; its predecessor's segment
    is redirected to its successor.  Branches are renumbered densely so
    that branch i again leaves the i-th remaining node, keeping the
    assembled matrix in ring form, while from/to labels keep the original
    exit names.
    """
    ids = []
    for eid in exit_ids:
        name = str(eid)
        if name not in ids:
            ids.append(name)
    if not ids:
        return network
    if not network.is_ring():
        raise ValueError("exit closure requires a ring network")
    known = {node.node_id for node in network.nodes}
    for name in ids:
        if name not in known:
            raise ValueError(f"cannot close unknown exit {name!r}")
    closed = set(ids)
    remaining = [node for node in network.nodes if node.node_id not in closed]
    if len(remaining) < 3:
        raise ValueError(
            f"closing {len(closed)} exits would leave {len(remaining)} nodes; "
            "a ring needs at least 3"
        )
    nxt = {branch.from_node: branch.to_node for branch in network.branches}
    branches = []
    for i, node in enumerate(remaining):
        target = nxt[node.node_id]
        while target in closed:
            target = nxt[target]
        branches.append(Branch(i, node.node_id, target))
    return FlowNetwork(tuple(remaining), tuple(branches))


def solve_traffic(
    network: FlowNetwork, config: SolverConfig
) -> tuple[SegmentFlows, SolveReport, MatrixProfile]:
    """Assemble, reduce, classify, solve, and reconstruct in one call.

    With ``config.method`` unset the method with the smallest measured
    spectral radius is selected.  The returned profile describes the
    normal-equation system; the report's ``predicted_counts`` holds the a
    priori iteration counts of every convergent method, as ``solve``
    computes them from the split the normal matrix keeps.  The returned
    flows report the least-squares residual of the full (unreduced) system
    and flag unbalanced externals.
    """
    a, b = assemble(network)
    red = reduce(a, b)
    profile = classify(red.normal_matrix)
    method = config.method if config.method is not None else select_method(profile)[0]
    report = solve(red.normal_matrix, red.normal_rhs, replace(config, method=method), profile)
    full, c = reconstruct(report.solution)
    fit = norm2(residual(a, full, b))
    total = 0.0
    for v in b.entries:
        total += v
    scale = max(1.0, max(abs(v) for v in b.entries))
    flows = SegmentFlows(
        flows=full,
        shift_constant=c,
        residual_norm=fit,
        imbalance_warning=abs(total) > _BALANCE_TOL * scale,
    )
    return flows, report, profile
