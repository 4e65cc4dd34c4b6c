"""Matrix building blocks on one storage path: compressed sparse rows.

``DenseMatrix`` is the row-major form that files, direct elimination and
iteration matrices use.  Every other routine here computes on
``SparseMatrix`` (CSR): a dense argument is converted once on entry with
``SparseMatrix.from_dense``, which stores every entry that is not exactly
+0.0.  Banded systems therefore never become n x n objects.

All arithmetic is 64-bit floating point.  Every row sum and inner product
accumulates strictly left to right (ascending index), starting from +0.0.
Such a sum never becomes -0.0, and adding a product with an unstored zero
leaves it unchanged, so a CSR routine gives bit for bit what the textbook
dense loop gives on the same matrix.  The D - L - U splitting stores the
negated strict triangles of A so that recomposing D - L - U reproduces A
without performing any arithmetic beyond unary negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularMatrixError

__all__ = [
    "Vector",
    "DenseMatrix",
    "SparseMatrix",
    "TriangularSplit",
    "matvec",
    "transpose_matvec",
    "split_dlu",
    "gram",
    "eliminate",
    "back_substitute",
    "solve_direct",
    "norm2",
    "inf_norm",
]

# Entries are rejected as "stored zeros" only when they are exactly +0.0;
# negative zero is kept so splits and file round trips stay bit-identical.
def _is_positive_zero(v: float) -> bool:
    return v == 0.0 and math.copysign(1.0, v) > 0.0


@dataclass(frozen=True)
class Vector:
    """An immutable vector of finite 64-bit floats."""

    entries: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(float(v) for v in self.entries))
        for i, v in enumerate(self.entries):
            if not math.isfinite(v):
                raise ValueError(f"vector entry {i} is not finite: {v!r}")

    @classmethod
    def zeros(cls, n: int) -> "Vector":
        return cls((0.0,) * n)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> float:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class DenseMatrix:
    """A rows x cols matrix with finite entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(float(v) for v in self.entries))
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for i, v in enumerate(self.entries):
            if not math.isfinite(v):
                raise ValueError(f"matrix entry {i} is not finite: {v!r}")

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        n_cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n_cols:
                raise ValueError("ragged rows")
        flat = tuple(v for r in rows for v in r)
        return cls(len(rows), n_cols, flat)

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(n, n, tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> float:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[float, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[float]]:
        return [list(self.row(i)) for i in range(self.rows)]


@dataclass(frozen=True)
class SparseMatrix:
    """Compressed sparse row storage.

    ``row_offsets`` has length rows + 1 with ``row_offsets[0] == 0``; the
    stored entries of row i occupy positions ``row_offsets[i]`` to
    ``row_offsets[i + 1]``.  Column indices are strictly increasing within
    each row.  Explicit zeros are permitted.
    """

    rows: int
    cols: int
    row_offsets: tuple[int, ...]
    col_indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", tuple(int(v) for v in self.row_offsets))
        object.__setattr__(self, "col_indices", tuple(int(v) for v in self.col_indices))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.row_offsets) != self.rows + 1:
            raise ValueError(
                f"row_offsets has length {len(self.row_offsets)}, expected {self.rows + 1}"
            )
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != len(self.values):
            raise ValueError("row_offsets must start at 0 and end at the entry count")
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values differ in length")
        for i in range(self.rows):
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            if hi < lo:
                raise ValueError(f"row_offsets decrease at row {i}")
            prev = -1
            for p in range(lo, hi):
                c = self.col_indices[p]
                if not 0 <= c < self.cols:
                    raise ValueError(f"column index {c} out of range in row {i}")
                if c <= prev:
                    raise ValueError(f"column indices not strictly increasing in row {i}")
                prev = c
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"sparse value is not finite: {v!r}")

    @classmethod
    def from_dense(cls, a: DenseMatrix) -> "SparseMatrix":
        """Store every entry of ``a`` that is not exactly +0.0."""
        offsets = [0]
        cols: list[int] = []
        vals: list[float] = []
        for i in range(a.rows):
            for j in range(a.cols):
                v = a.entry(i, j)
                if not _is_positive_zero(v):
                    cols.append(j)
                    vals.append(v)
            offsets.append(len(vals))
        return cls(a.rows, a.cols, tuple(offsets), tuple(cols), tuple(vals))

    def row_items(self, i: int):
        """Stored (column, value) pairs of row i, columns ascending."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        for p in range(lo, hi):
            yield self.col_indices[p], self.values[p]

    def to_dense(self) -> DenseMatrix:
        flat = [0.0] * (self.rows * self.cols)
        for i in range(self.rows):
            for j, v in self.row_items(i):
                flat[i * self.cols + j] = v
        return DenseMatrix(self.rows, self.cols, tuple(flat))


@dataclass(frozen=True)
class TriangularSplit:
    """The parts of A = D - L - U.

    ``strict_lower`` holds -(strict lower triangle of A) and ``strict_upper``
    holds -(strict upper triangle of A), so the identity reads literally.
    """

    diag: Vector
    strict_lower: SparseMatrix
    strict_upper: SparseMatrix

    def __post_init__(self):
        n = len(self.diag)
        for part, name in ((self.strict_lower, "strict_lower"), (self.strict_upper, "strict_upper")):
            if part.rows != n or part.cols != n:
                raise ValueError(f"{name} is {part.rows}x{part.cols}, expected {n}x{n}")
        for i in range(n):
            for j, _ in self.strict_lower.row_items(i):
                if j >= i:
                    raise ValueError(f"strict_lower holds an entry at ({i}, {j})")
            for j, _ in self.strict_upper.row_items(i):
                if j <= i:
                    raise ValueError(f"strict_upper holds an entry at ({i}, {j})")

    def recompose(self) -> DenseMatrix:
        """Rebuild A = D - L - U using only unary negation of stored entries."""
        n = len(self.diag)
        flat = [0.0] * (n * n)
        for i in range(n):
            flat[i * n + i] = self.diag[i]
            for j, v in self.strict_lower.row_items(i):
                flat[i * n + j] = -v
            for j, v in self.strict_upper.row_items(i):
                flat[i * n + j] = -v
        return DenseMatrix(n, n, tuple(flat))


Matrix = DenseMatrix | SparseMatrix


def _require_square(a: Matrix) -> int:
    if a.rows != a.cols:
        raise ValueError(f"matrix is {a.rows}x{a.cols}, expected square")
    return a.rows


def _csr(a: Matrix) -> SparseMatrix:
    """``a`` itself when it is CSR, else its CSR form."""
    return a if isinstance(a, SparseMatrix) else SparseMatrix.from_dense(a)


def _matvec_list(a: SparseMatrix, x) -> list[float]:
    """Row sums accumulated left to right; ``x`` is any indexable of floats."""
    offsets, cols, vals = a.row_offsets, a.col_indices, a.values
    out = []
    for i in range(a.rows):
        acc = 0.0
        for p in range(offsets[i], offsets[i + 1]):
            acc += vals[p] * x[cols[p]]
        out.append(acc)
    return out


def matvec(a: Matrix, x: Vector) -> Vector:
    """The product A x."""
    if a.cols != len(x):
        raise ValueError(f"matrix has {a.cols} columns but vector has {len(x)} entries")
    return Vector(tuple(_matvec_list(_csr(a), x.entries)))


def transpose_matvec(a: Matrix, v: Vector) -> Vector:
    """The product A^T v, accumulated in ascending row order."""
    if a.rows != len(v):
        raise ValueError(f"matrix has {a.rows} rows but vector has {len(v)} entries")
    a = _csr(a)
    offsets, cols, vals = a.row_offsets, a.col_indices, a.values
    out = [0.0] * a.cols
    for i in range(a.rows):
        vi = v[i]
        for p in range(offsets[i], offsets[i + 1]):
            out[cols[p]] += vals[p] * vi
    return Vector(tuple(out))


def split_dlu(a: Matrix) -> TriangularSplit:
    """Split a square matrix into A = D - L - U.

    Zero diagonal entries are permitted here; solvers reject them later.
    The stored strict triangles are the negated parts of A, so recomposing
    reproduces A bit for bit.
    """
    n = _require_square(a)
    a = _csr(a)
    offsets, cols, vals = a.row_offsets, a.col_indices, a.values
    diag = [0.0] * n
    lo_off, lo_cols, lo_vals = [0], [], []
    up_off, up_cols, up_vals = [0], [], []
    for i in range(n):
        for p in range(offsets[i], offsets[i + 1]):
            j, v = cols[p], vals[p]
            if j == i:
                diag[i] = v
            elif j < i:
                lo_cols.append(j)
                lo_vals.append(-v)
            else:
                up_cols.append(j)
                up_vals.append(-v)
        lo_off.append(len(lo_vals))
        up_off.append(len(up_vals))
    lower = SparseMatrix(n, n, tuple(lo_off), tuple(lo_cols), tuple(lo_vals))
    upper = SparseMatrix(n, n, tuple(up_off), tuple(up_cols), tuple(up_vals))
    return TriangularSplit(Vector(tuple(diag)), lower, upper)


def gram(a: Matrix) -> SparseMatrix:
    """The normal matrix A^T A in CSR form.

    Entry (k, l) with k <= l is the sum of A[i][k] * A[i][l] over the rows
    i that store both columns, in ascending row order: the dense triple
    loop's sum without its products with unstored zeros, so the same
    value bit for bit.  The lower triangle mirrors the upper, so the
    result is exactly symmetric.  Entries that sum to exactly +0.0 are not
    stored, as in ``SparseMatrix.from_dense``.  Requires rows >= cols.
    """
    if a.rows < a.cols:
        raise ValueError(f"matrix is {a.rows}x{a.cols}; gram needs rows >= cols")
    a = _csr(a)
    n = a.cols
    offsets, cols, vals = a.row_offsets, a.col_indices, a.values
    upper: list[dict[int, float]] = [{} for _ in range(n)]
    for i in range(a.rows):
        hi = offsets[i + 1]
        for p in range(offsets[i], hi):
            vk = vals[p]
            row = upper[cols[p]]
            for q in range(p, hi):
                l = cols[q]
                row[l] = row.get(l, 0.0) + vk * vals[q]
    # lower[l] collects the mirrored (k, value) pairs with k < l; rows are
    # emitted in ascending order, so each is complete and sorted when used.
    lower: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    out_off = [0]
    out_cols: list[int] = []
    out_vals: list[float] = []
    for k in range(n):
        for j, v in lower[k]:
            out_cols.append(j)
            out_vals.append(v)
        for l in sorted(upper[k]):
            v = upper[k][l]
            if _is_positive_zero(v):
                continue
            out_cols.append(l)
            out_vals.append(v)
            if l > k:
                lower[l].append((k, v))
        out_off.append(len(out_vals))
    return SparseMatrix(n, n, tuple(out_off), tuple(out_cols), tuple(out_vals))


_PIVOT_RTOL = 1e-12


def eliminate(a: DenseMatrix, b: Vector, pivot: bool = True) -> tuple[DenseMatrix, Vector]:
    """Forward Gaussian elimination to an upper-triangular system.

    With ``pivot=True`` rows are swapped for the largest pivot in the current
    column.  ``pivot=False`` keeps the textbook row order for comparison with
    hand elimination.  Raises ``SingularMatrixError`` when the pivot magnitude
    falls below 1e-12 times the largest magnitude left in the submatrix.
    """
    n = _require_square(a)
    if len(b) != n:
        raise ValueError(f"matrix has {n} rows but vector has {len(b)} entries")
    u = [list(a.row(i)) for i in range(n)]
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
        if scale == 0.0 or abs(u[k][k]) < _PIVOT_RTOL * scale:
            raise SingularMatrixError(f"numerically singular at elimination step {k}")
        for i in range(k + 1, n):
            m = u[i][k] / u[k][k]
            u[i][k] = 0.0
            if m != 0.0:
                for j in range(k + 1, n):
                    u[i][j] -= m * u[k][j]
                y[i] -= m * y[k]
    flat = tuple(v for row in u for v in row)
    return DenseMatrix(n, n, flat), Vector(tuple(y))


def back_substitute(u: DenseMatrix, y: Vector) -> Vector:
    """Solve an upper-triangular system by back substitution."""
    n = _require_square(u)
    if len(y) != n:
        raise ValueError(f"matrix has {n} rows but vector has {len(y)} entries")
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        if u.entry(i, i) == 0.0:
            raise SingularMatrixError(f"zero pivot at row {i} in back substitution")
        acc = y[i]
        for j in range(i + 1, n):
            acc -= u.entry(i, j) * x[j]
        x[i] = acc / u.entry(i, i)
    return Vector(tuple(x))


def solve_direct(a: DenseMatrix, b: Vector) -> Vector:
    """Gaussian elimination with partial pivoting plus back substitution.

    Serves as the oracle against which iterative results are judged.
    """
    u, y = eliminate(a, b, pivot=True)
    return back_substitute(u, y)


def norm2(v: Vector | list[float] | tuple[float, ...]) -> float:
    """Euclidean norm."""
    entries = v.entries if isinstance(v, Vector) else v
    acc = 0.0
    for x in entries:
        acc += x * x
    return math.sqrt(acc)


def inf_norm(a: Matrix) -> float:
    """Maximum absolute row sum."""
    a = _csr(a)
    offsets, vals = a.row_offsets, a.values
    best = 0.0
    for i in range(a.rows):
        acc = 0.0
        for p in range(offsets[i], offsets[i + 1]):
            acc += abs(vals[p])
        best = max(best, acc)
    return best
