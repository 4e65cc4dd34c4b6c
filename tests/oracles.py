"""Reference implementations the tests judge the library against.

Textbook loops on dense rows, kept out of the package because nothing in
it needs them: Gaussian elimination with back substitution, the exact
solution iterative results are compared with; the D - L - U recomposition
that inverts ``split_dlu``; the dense-to-CSR rule that
``SparseMatrix.from_rows`` and dense matrix files follow; Young's
consistent-ordering test by shortest paths, which the breadth-first search
in ``classify`` is judged against; and that search over adjacency lists
from a scan of the kernel rows, which pins the order it visits rows in.
"""

import math

from conftest import to_rows
from ringsolve import NumericalError, SparseMatrix, TriangularSplit, Vector

# Elimination stops when a pivot falls below this fraction of the largest
# magnitude left in the submatrix.
PIVOT_RTOL = 1e-12


class SingularMatrixError(NumericalError):
    """Gaussian elimination met a pivot too small to divide by."""


def csr_from_dense(rows: int, cols: int, entries) -> SparseMatrix:
    """CSR of a row-major matrix, storing every entry that is not exactly +0.0."""
    offsets = [0]
    col_indices: list[int] = []
    vals: list[float] = []
    for i in range(rows):
        for j in range(cols):
            v = entries[i * cols + j]
            if not (v == 0.0 and math.copysign(1.0, v) > 0.0):
                col_indices.append(j)
                vals.append(v)
        offsets.append(len(vals))
    return SparseMatrix(rows, cols, tuple(offsets), tuple(col_indices), tuple(vals))


def recompose(split: TriangularSplit) -> list[list[float]]:
    """The rows of A = D - L - U, using only unary negation of stored entries."""
    n = len(split.diag)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = split.diag[i]
        for j, v in split.strict_lower.row_items(i):
            rows[i][j] = -v
        for j, v in split.strict_upper.row_items(i):
            rows[i][j] = -v
    return rows


def eliminate(a: SparseMatrix, b: Vector, pivot: bool = True) -> tuple[list[list[float]], Vector]:
    """Forward Gaussian elimination to upper-triangular rows.

    With ``pivot=True`` rows are swapped for the largest pivot in the current
    column; ``pivot=False`` keeps the textbook row order for comparison with
    hand elimination.  Raises ``SingularMatrixError`` when the pivot magnitude
    falls below 1e-12 times the largest magnitude left in the submatrix.
    """
    n = a.rows
    assert a.cols == n and len(b) == n
    u = to_rows(a)
    y = list(b.entries)
    for k in range(n):
        scale = 0.0
        for i in range(k, n):
            for j in range(k, n):
                scale = max(scale, abs(u[i][j]))
        if pivot:
            r = max(range(k, n), key=lambda i: abs(u[i][k]))
            if r != k:
                u[k], u[r] = u[r], u[k]
                y[k], y[r] = y[r], y[k]
        if scale == 0.0 or abs(u[k][k]) < PIVOT_RTOL * scale:
            raise SingularMatrixError(f"numerically singular at elimination step {k}")
        for i in range(k + 1, n):
            m = u[i][k] / u[k][k]
            u[i][k] = 0.0
            if m != 0.0:
                for j in range(k + 1, n):
                    u[i][j] -= m * u[k][j]
                y[i] -= m * y[k]
    return u, Vector(tuple(y))


def back_substitute(u: list[list[float]], y: Vector) -> Vector:
    """Solve an upper-triangular system, given as rows, by back substitution."""
    n = len(u)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        if u[i][i] == 0.0:
            raise SingularMatrixError(f"zero pivot at row {i} in back substitution")
        acc = y[i]
        for j in range(i + 1, n):
            acc -= u[i][j] * x[j]
        x[i] = acc / u[i][i]
    return Vector(tuple(x))


def solve_direct(a: SparseMatrix, b: Vector) -> Vector:
    """Gaussian elimination with partial pivoting plus back substitution."""
    u, y = eliminate(a, b, pivot=True)
    return back_substitute(u, y)


def consistently_ordered(rows) -> bool:
    """Whether integer levels gamma exist with gamma_j - gamma_i = +1 for
    every nonzero off-diagonal A_ij with j > i and -1 with j < i.

    Floyd-Warshall on the dense rows: a step from i to j over a nonzero
    A_ij or A_ji costs +1 when j > i and -1 when j < i.  The levels exist
    exactly when every closed walk costs 0, and as a reversed walk costs
    the negative, exactly when no closed walk is negative.
    """
    n = len(rows)
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (rows[i][j] != 0.0 or rows[j][i] != 0.0):
                dist[i][j] = 1 if j > i else -1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return all(dist[i][i] >= 0 for i in range(n))


def ordering_search_by_row_scan(split: TriangularSplit):
    """The (gamma, tree) of ``_ordering_search``, or None, by the same
    breadth-first search over adjacency lists built from a scan of the
    kernel rows: each nonzero -A_ij, in row-major order, appends j to row
    i's list and i to row j's.  The tree fixes the order in which
    ``_symmetrisable`` sums log ratios, so the search must visit rows and
    neighbours in exactly this order."""
    rows = split.kernel_rows
    n = len(rows)
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row:
            if v != 0.0:
                adjacent[i].append(j)
                adjacent[j].append(i)
    gamma: list[int | None] = [None] * n
    tree: list[tuple[int, int]] = []
    for root in range(n):
        if gamma[root] is not None:
            continue
        gamma[root] = 0
        queue = [root]
        for i in queue:
            for j in adjacent[i]:
                level = gamma[i] + (1 if j > i else -1)
                if gamma[j] is None:
                    gamma[j] = level
                    tree.append((i, j))
                    queue.append(j)
                elif gamma[j] != level:
                    return None
    return gamma, tree
