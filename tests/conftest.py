"""Shared fixtures, strategies, and deterministic test settings."""

import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from ringsolve import RingSpec, SparseMatrix, Vector, assemble, generate_ring

settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def from_flat(rows: int, cols: int, values) -> SparseMatrix:
    """The rows x cols matrix of ``values`` in row-major order."""
    values = list(values)
    assert len(values) == rows * cols
    return SparseMatrix.from_rows([values[i * cols : (i + 1) * cols] for i in range(rows)])


def identity(n: int) -> SparseMatrix:
    return SparseMatrix.from_rows([[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])


def to_rows(a: SparseMatrix) -> list[list[float]]:
    """The dense rows of ``a``, +0.0 where nothing is stored."""
    rows = [[0.0] * a.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j, v in a.row_items(i):
            rows[i][j] = v
    return rows


def dense_entries(a: SparseMatrix) -> list[float]:
    """The entries of ``to_rows(a)`` in row-major order."""
    return [v for row in to_rows(a) for v in row]


def tridiag(n: int) -> SparseMatrix:
    """The n x n matrix with 2 on the diagonal and -1 on both off-diagonals."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2.0
        if i > 0:
            rows[i][i - 1] = -1.0
        if i < n - 1:
            rows[i][i + 1] = -1.0
    return SparseMatrix.from_rows(rows)


def ring_system(externals):
    """Assembled (A, b) for a ring whose node externals are ``externals``."""
    n = len(externals)
    spec = RingSpec(n, tuple((max(v, 0.0), max(-v, 0.0)) for v in externals))
    return assemble(generate_ring(spec))


def ring_matrix(n: int):
    """The n x n singular ring matrix (+1 diagonal, -1 superdiagonal, corner)."""
    a, _ = ring_system([0.0] * n)
    return a


def bits(value: float) -> bytes:
    """IEEE-754 byte pattern, for bit-exact comparisons that see -0.0."""
    return struct.pack("<d", value)


def vec_bits(values) -> tuple[bytes, ...]:
    entries = values.entries if isinstance(values, Vector) else tuple(values)
    return tuple(bits(v) for v in entries)
