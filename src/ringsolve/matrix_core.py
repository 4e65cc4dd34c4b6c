"""Matrix building blocks on one storage path: compressed sparse rows.

``SparseMatrix`` (CSR) is the only matrix type.  Row-major input, such as
a dense matrix file, becomes CSR through ``SparseMatrix.from_rows``, which
stores every entry that is not exactly +0.0.  Banded systems therefore
never become n x n objects.

All arithmetic is 64-bit floating point.  Every row sum and inner product
accumulates strictly left to right (ascending index), starting from +0.0.
Such a sum never becomes -0.0, and adding a product with an unstored zero
leaves it unchanged, so a CSR routine gives bit for bit what the textbook
dense loop gives on the same matrix.  The D - L - U splitting stores the
negated strict triangles of A so that recomposing D - L - U reproduces A
without performing any arithmetic beyond unary negation.

Row views are derived once, on first use, and kept on the immutable object:
a ``SparseMatrix`` keeps its ``split`` and ``residual_rows``, a split its
``kernel_rows``, ``band`` and ``couplings``, so ``classify`` and ``solve``
share them.  The sweeps and the envelope Cholesky read the kernel rows and
Sturm bisection the band.  ``couplings`` holds only the nonzero
off-diagonals, as numpy arrays with each entry's transpose partner, for
the structure flags, the ordering search, the symmetrisability test and
Lanczos; the sweeps keep the kernel rows, because a stored zero can turn
a -0.0 accumulator into +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = [
    "Vector",
    "SparseMatrix",
    "TriangularSplit",
    "matvec",
    "transpose_matvec",
    "split_dlu",
    "gram",
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
    def from_rows(cls, rows) -> "SparseMatrix":
        """The CSR form of equal-length rows, storing every entry that is
        not exactly +0.0 (-0.0 is kept)."""
        rows = [[float(v) for v in r] for r in rows]
        n_cols = len(rows[0]) if rows else 0
        offsets = [0]
        cols: list[int] = []
        vals: list[float] = []
        for r in rows:
            if len(r) != n_cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(r):
                if not _is_positive_zero(v):
                    cols.append(j)
                    vals.append(v)
            offsets.append(len(vals))
        return cls(len(rows), n_cols, tuple(offsets), tuple(cols), tuple(vals))

    def row_items(self, i: int):
        """Stored (column, value) pairs of row i, columns ascending."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        for p in range(lo, hi):
            yield self.col_indices[p], self.values[p]

    @cached_property
    def split(self) -> "TriangularSplit":
        """The D - L - U split of ``split_dlu``, derived on first use only."""
        return split_dlu(self)

    @cached_property
    def residual_rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per row, the stored (j, A_ij) pairs in column order."""
        offsets, cols, vals = self.row_offsets, self.col_indices, self.values
        return tuple(
            tuple(zip(cols[offsets[i] : offsets[i + 1]], vals[offsets[i] : offsets[i + 1]]))
            for i in range(self.rows)
        )


class _Couplings(NamedTuple):
    """The nonzero stored off-diagonals of an n x n matrix A in row-major
    order: row i, column j and kernel value -A_ij of each, and the position
    of its transpose entry (j, i), or -1 when A_ji is zero or not stored."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    partner: np.ndarray


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

    @cached_property
    def kernel_rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per row, the off-diagonal (j, -A_ij) pairs in column order: the
        ``strict_lower`` items, then the ``strict_upper`` items."""
        lower, upper = self.strict_lower, self.strict_upper
        return tuple(
            tuple(lower.row_items(i)) + tuple(upper.row_items(i)) for i in range(len(self.diag))
        )

    @cached_property
    def band(self) -> tuple[tuple[float, ...], tuple[float, ...], bool]:
        """(lower, upper, exact): each row's kernel coefficients -A[i][i-1]
        and -A[i][i+1], +0.0 where not stored, and whether every row stores
        exactly those off-diagonal columns (row 0 only i + 1, row n - 1 only
        i - 1), stored zeros included."""
        n = len(self.diag)
        lower, upper = [0.0] * n, [0.0] * n
        exact = True
        for i, row in enumerate(self.kernel_rows):
            for j, v in row:
                if j == i - 1:
                    lower[i] = v
                elif j == i + 1:
                    upper[i] = v
            exact = exact and [j for j, _ in row] == [j for j in (i - 1, i + 1) if 0 <= j < n]
        return tuple(lower), tuple(upper), exact

    @cached_property
    def couplings(self) -> _Couplings:
        """The nonzero entries of ``kernel_rows`` as numpy arrays, with the
        position of each one's transpose partner (``_Couplings``)."""
        kernel = self.kernel_rows
        n = len(kernel)
        rows = np.repeat(np.arange(n), [len(row) for row in kernel])
        pairs = chain.from_iterable(chain.from_iterable(kernel))
        flat = np.fromiter(pairs, np.float64, 2 * len(rows))
        keep = flat[1::2] != 0.0
        rows, cols, values = rows[keep], flat[0::2][keep].astype(np.intp), flat[1::2][keep]
        keys = rows * n + cols
        back = cols * n + rows
        pos = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
        return _Couplings(n, rows, cols, values, np.where(keys[pos] == back, pos, -1))


def _require_square(a: SparseMatrix) -> int:
    if a.rows != a.cols:
        raise ValueError(f"matrix is {a.rows}x{a.cols}, expected square")
    return a.rows


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


def matvec(a: SparseMatrix, x: Vector) -> Vector:
    """The product A x."""
    if a.cols != len(x):
        raise ValueError(f"matrix has {a.cols} columns but vector has {len(x)} entries")
    return Vector(tuple(_matvec_list(a, x.entries)))


def transpose_matvec(a: SparseMatrix, v: Vector) -> Vector:
    """The product A^T v, accumulated in ascending row order."""
    if a.rows != len(v):
        raise ValueError(f"matrix has {a.rows} rows but vector has {len(v)} entries")
    offsets, cols, vals = a.row_offsets, a.col_indices, a.values
    out = [0.0] * a.cols
    for i in range(a.rows):
        vi = v[i]
        for p in range(offsets[i], offsets[i + 1]):
            out[cols[p]] += vals[p] * vi
    return Vector(tuple(out))


def split_dlu(a: SparseMatrix) -> TriangularSplit:
    """Split a square matrix into A = D - L - U.

    Zero diagonal entries are permitted here; solvers reject them later.
    The stored strict triangles are the negated parts of A, so recomposing
    reproduces A bit for bit.  Each call derives a new split;
    ``SparseMatrix.split`` derives one per matrix and keeps it.
    """
    n = _require_square(a)
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


def gram(a: SparseMatrix) -> SparseMatrix:
    """The normal matrix A^T A in CSR form.

    Entry (k, l) with k <= l is the sum of A[i][k] * A[i][l] over the rows
    i that store both columns, in ascending row order: the dense triple
    loop's sum without its products with unstored zeros, so the same
    value bit for bit.  The lower triangle mirrors the upper, so the
    result is exactly symmetric.  Entries that sum to exactly +0.0 are not
    stored, as in ``SparseMatrix.from_rows``.  Requires rows >= cols.
    """
    if a.rows < a.cols:
        raise ValueError(f"matrix is {a.rows}x{a.cols}; gram needs rows >= cols")
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


def norm2(v: Vector | list[float] | tuple[float, ...]) -> float:
    """Euclidean norm."""
    entries = v.entries if isinstance(v, Vector) else v
    acc = 0.0
    for x in entries:
        acc += x * x
    return math.sqrt(acc)


def inf_norm(a: SparseMatrix) -> float:
    """Maximum absolute row sum."""
    offsets, vals = a.row_offsets, a.values
    best = 0.0
    for i in range(a.rows):
        acc = 0.0
        for p in range(offsets[i], offsets[i + 1]):
            acc += abs(vals[p])
        best = max(best, acc)
    return best
