"""Matrix building blocks: storage invariants, products, splits, elimination."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, ring_matrix, tridiag, vec_bits
from ringsolve import (
    DenseMatrix,
    SingularMatrixError,
    SparseMatrix,
    TriangularSplit,
    Vector,
    back_substitute,
    eliminate,
    gram,
    inf_norm,
    matvec,
    norm2,
    solve_direct,
    split_dlu,
    transpose_matvec,
)

SEC21_ROWS = [[5.0, -2.0, 3.0], [-3.0, 9.0, 1.0], [-2.0, -1.0, -7.0]]
SEC21_SOLUTION = (59.0 / 201.0, 77.0 / 201.0, -38.0 / 67.0)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def square(n, values):
    return DenseMatrix(n, n, tuple(values))


# Signed zeros, products that underflow to a signed zero, and small
# integers whose products cancel exactly.
signed_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e-200, -1e-200]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@st.composite
def stored_matrices(draw):
    """(DenseMatrix, SparseMatrix) of one square or tall matrix; the sparse
    form stores every nonzero and -0.0 entry plus a random subset of the
    +0.0 ones."""
    cols = draw(st.integers(1, 5))
    rows = cols + draw(st.sampled_from([0, 0, 1, 2, 3]))
    values = draw(st.lists(signed_entries, min_size=rows * cols, max_size=rows * cols))
    keep = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    offsets, col_indices, stored = [0], [], []
    for i in range(rows):
        for j in range(cols):
            v = values[i * cols + j]
            if v != 0.0 or math.copysign(1.0, v) < 0.0 or keep[i * cols + j]:
                col_indices.append(j)
                stored.append(v)
        offsets.append(len(stored))
    return (
        DenseMatrix(rows, cols, tuple(values)),
        SparseMatrix(rows, cols, tuple(offsets), tuple(col_indices), tuple(stored)),
    )


class TestVector:
    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="vector entry 1 is not finite"):
            Vector((1.0, math.inf))

    def test_zeros_and_sequence_protocol(self):
        v = Vector.zeros(3)
        assert len(v) == 3
        assert list(v) == [0.0, 0.0, 0.0]
        assert v[2] == 0.0


class TestDenseMatrix:
    def test_entry_count_must_match_shape(self):
        with pytest.raises(ValueError, match="needs 4 entries, got 3"):
            DenseMatrix(2, 2, (1.0, 2.0, 3.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            DenseMatrix(1, 2, (1.0, math.nan))

    def test_from_rows_rejects_ragged_input(self):
        with pytest.raises(ValueError, match="ragged"):
            DenseMatrix.from_rows([[1.0, 2.0], [3.0]])

    def test_identity_and_accessors(self):
        eye = DenseMatrix.identity(3)
        assert eye.entry(1, 1) == 1.0
        assert eye.entry(0, 2) == 0.0
        assert eye.row(2) == (0.0, 0.0, 1.0)
        assert eye.to_rows()[0] == [1.0, 0.0, 0.0]


class TestSparseMatrix:
    def test_offsets_length_checked(self):
        with pytest.raises(ValueError, match="row_offsets has length"):
            SparseMatrix(2, 2, (0, 1), (0,), (1.0,))

    def test_offsets_bounds_checked(self):
        with pytest.raises(ValueError, match="start at 0 and end"):
            SparseMatrix(1, 2, (0, 2), (0,), (1.0,))

    def test_columns_strictly_increasing_per_row(self):
        with pytest.raises(ValueError, match="strictly increasing in row 0"):
            SparseMatrix(1, 3, (0, 2), (1, 1), (1.0, 2.0))

    def test_column_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range in row 0"):
            SparseMatrix(1, 2, (0, 1), (5,), (1.0,))

    def test_from_dense_drops_positive_zero_keeps_negative_zero(self):
        dense = DenseMatrix(2, 2, (0.0, -0.0, 3.0, 4.0))
        sparse = SparseMatrix.from_dense(dense)
        assert len(sparse.values) == 3
        assert list(sparse.row_items(0)) == [(1, -0.0)]
        assert bits(sparse.values[0]) == bits(-0.0)

    def test_to_dense_round_trip(self):
        dense = DenseMatrix.from_rows(SEC21_ROWS)
        assert SparseMatrix.from_dense(dense).to_dense() == dense

    def test_explicit_zero_is_allowed(self):
        sparse = SparseMatrix(1, 2, (0, 1), (0,), (0.0,))
        assert list(sparse.row_items(0)) == [(0, 0.0)]


class TestMatvec:
    def test_row_sums_of_worked_example(self):
        a = DenseMatrix.from_rows(SEC21_ROWS)
        assert matvec(a, Vector((1.0, 1.0, 1.0))).entries == (6.0, 7.0, -10.0)

    def test_identity_returns_input(self):
        v = Vector((2.5, -1.5))
        assert matvec(DenseMatrix.identity(2), v).entries == v.entries

    @pytest.mark.parametrize("n", [3, 4, 7, 32])
    def test_ring_times_all_ones_vanishes(self, n):
        assert matvec(ring_matrix(n), Vector((1.0,) * n)).entries == (0.0,) * n

    def test_dimension_mismatch_message(self):
        with pytest.raises(ValueError, match="3 columns but vector has 2"):
            matvec(DenseMatrix.from_rows(SEC21_ROWS), Vector((1.0, 2.0)))

    def test_dense_and_sparse_agree_bit_for_bit(self):
        rnd = random.Random(11)
        for _ in range(25):
            rows = [[rnd.uniform(-9, 9) for _ in range(5)] for _ in range(4)]
            dense = DenseMatrix.from_rows(rows)
            x = Vector(tuple(rnd.uniform(-9, 9) for _ in range(5)))
            assert vec_bits(matvec(dense, x)) == vec_bits(
                matvec(SparseMatrix.from_dense(dense), x)
            )

    @given(
        st.lists(finite, min_size=4, max_size=4),
        st.lists(finite, min_size=2, max_size=2),
        st.lists(finite, min_size=2, max_size=2),
        st.floats(min_value=-8, max_value=8, allow_nan=False),
        st.floats(min_value=-8, max_value=8, allow_nan=False),
    )
    def test_linearity(self, entries, xs, ys, alpha, beta):
        a = square(2, entries)
        x, y = Vector(tuple(xs)), Vector(tuple(ys))
        combo = Vector(tuple(alpha * xv + beta * yv for xv, yv in zip(xs, ys)))
        lhs = matvec(a, combo)
        ax, ay = matvec(a, x), matvec(a, y)
        scale = max(1.0, max(abs(v) for v in lhs.entries))
        for i in range(2):
            assert abs(lhs[i] - (alpha * ax[i] + beta * ay[i])) <= 1e-9 * scale


class TestTransposeMatvec:
    def test_matches_explicit_transpose(self):
        rnd = random.Random(5)
        rows = [[rnd.uniform(-4, 4) for _ in range(3)] for _ in range(5)]
        a = DenseMatrix.from_rows(rows)
        v = Vector(tuple(rnd.uniform(-4, 4) for _ in range(5)))
        out = transpose_matvec(a, v)
        transposed = DenseMatrix.from_rows(
            [[rows[i][j] for i in range(5)] for j in range(3)]
        )
        expect = matvec(transposed, v)
        assert max(abs(x - y) for x, y in zip(out, expect)) < 1e-12

    def test_sparse_path_matches_dense_path(self):
        a = DenseMatrix.from_rows(SEC21_ROWS)
        v = Vector((1.0, -2.0, 0.5))
        assert vec_bits(transpose_matvec(a, v)) == vec_bits(
            transpose_matvec(SparseMatrix.from_dense(a), v)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="3 rows but vector has 2"):
            transpose_matvec(DenseMatrix.from_rows(SEC21_ROWS), Vector((1.0, 2.0)))


class TestSplitDlu:
    def test_identity_split(self):
        split = split_dlu(DenseMatrix.identity(2))
        assert split.diag.entries == (1.0, 1.0)
        assert len(split.strict_lower.values) == 0
        assert len(split.strict_upper.values) == 0

    def test_worked_example_negates_strict_parts(self):
        split = split_dlu(DenseMatrix.from_rows(SEC21_ROWS))
        assert split.diag.entries == (5.0, 9.0, -7.0)
        assert split.strict_lower.to_dense().to_rows() == [
            [0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0],
            [2.0, 1.0, 0.0],
        ]
        assert split.strict_upper.to_dense().to_rows() == [
            [0.0, 2.0, -3.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 0.0],
        ]

    def test_round_trip_is_bit_exact_including_negative_zero(self):
        a = DenseMatrix.from_rows([[1.0, -0.0, 0.0], [2.5, -3.0, 1e-300], [0.0, -0.0, 4.0]])
        back = split_dlu(a).recompose()
        assert tuple(bits(v) for v in back.entries) == tuple(bits(v) for v in a.entries)

    def test_round_trip_random(self):
        rnd = random.Random(8)
        for _ in range(20):
            n = rnd.randrange(1, 9)
            a = square(n, [rnd.uniform(-50, 50) for _ in range(n * n)])
            assert split_dlu(a).recompose() == a

    def test_sparse_input_round_trip(self):
        a = SparseMatrix.from_dense(DenseMatrix.from_rows(SEC21_ROWS))
        assert split_dlu(a).recompose() == a.to_dense()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="expected square"):
            split_dlu(DenseMatrix(2, 3, (0.0,) * 6))

    def test_misplaced_triangle_entries_rejected(self):
        good = split_dlu(DenseMatrix.from_rows(SEC21_ROWS))
        with pytest.raises(ValueError, match="strict_lower holds an entry"):
            TriangularSplit(good.diag, good.strict_upper, good.strict_upper)


def band_oracle(rows):
    """The wavefront's exact band rule, stated on its own: per row the
    (j, -A_ij) values of columns i - 1 and i + 1, or None unless every row's
    pairs are exactly column i - 1 then column i + 1 (row 0 only i + 1, row
    n - 1 only i - 1).  The missing end neighbours get +0.0."""
    n = len(rows)
    lower, upper = [0.0] * n, [0.0] * n
    for i, row in enumerate(rows):
        if [j for j, _ in row] != [j for j in (i - 1, i + 1) if 0 <= j < n]:
            return None
        for j, v in row:
            if j < i:
                lower[i] = v
            else:
                upper[i] = v
    return lower, upper


@st.composite
def banded_csr(draw):
    """A square CSR matrix that stores most of its band and a few entries
    outside it, with signed and stored zeros, zero or unstored diagonal
    entries, and rows without off-diagonals; 1 x 1 included."""
    n = draw(st.integers(1, 7))
    offsets, cols, vals = [0], [], []
    for i in range(n):
        for j in range(n):
            chance = 0.8 if abs(i - j) <= 1 else 0.15
            if draw(st.floats(0.0, 1.0)) < chance:
                cols.append(j)
                vals.append(draw(signed_entries))
        offsets.append(len(vals))
    return SparseMatrix(n, n, tuple(offsets), tuple(cols), tuple(vals))


def pair_bits(pairs):
    return [(j, bits(v)) for j, v in pairs]


class TestRowViews:
    """The views a CSR matrix keeps, against the CSR tuples they come from."""

    @given(banded_csr())
    def test_every_view_matches_the_csr(self, a):
        n = a.rows
        csr_rows = [list(a.row_items(i)) for i in range(n)]
        assert [pair_bits(r) for r in a.residual_rows] == [pair_bits(r) for r in csr_rows]

        split, fresh = a.split, split_dlu(a)
        assert a.split is split
        assert vec_bits(split.diag) == vec_bits(fresh.diag)
        for part, want in (
            (split.strict_lower, fresh.strict_lower),
            (split.strict_upper, fresh.strict_upper),
        ):
            assert (part.row_offsets, part.col_indices) == (want.row_offsets, want.col_indices)
            assert vec_bits(part.values) == vec_bits(want.values)

        kernel = [[(j, -v) for j, v in row if j != i] for i, row in enumerate(csr_rows)]
        assert [pair_bits(r) for r in split.kernel_rows] == [pair_bits(r) for r in kernel]
        assert split.kernel_rows is split.kernel_rows

        lower, upper, exact = split.band
        stored = [dict(row) for row in csr_rows]
        for i in range(n):
            below, above = stored[i].get(i - 1), stored[i].get(i + 1)
            assert bits(lower[i]) == bits(0.0 if below is None else -below)
            assert bits(upper[i]) == bits(0.0 if above is None else -above)
        oracle = band_oracle(split.kernel_rows)
        assert exact == (oracle is not None)
        if oracle is not None:
            assert (vec_bits(lower), vec_bits(upper)) == tuple(map(vec_bits, oracle))

    def test_split_dlu_derives_a_new_split_on_every_call(self):
        a = SparseMatrix.from_dense(DenseMatrix.from_rows(SEC21_ROWS))
        assert split_dlu(a) is not a.split
        assert split_dlu(a) == a.split


class TestGram:
    def test_identity(self):
        assert gram(DenseMatrix.identity(3)).to_dense() == DenseMatrix.identity(3)

    def test_ring_with_dropped_column(self):
        ring = ring_matrix(4).to_dense()
        tall = DenseMatrix(4, 3, tuple(v for i in range(4) for v in ring.row(i)[:3]))
        assert gram(tall).to_dense().to_rows() == [
            [2.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 2.0],
        ]

    def test_exactly_symmetric_and_nonnegative_quadratic_form(self):
        rnd = random.Random(3)
        rows = [[rnd.uniform(-3, 3) for _ in range(4)] for _ in range(6)]
        g = gram(DenseMatrix.from_rows(rows)).to_dense()
        for i in range(4):
            for j in range(4):
                assert bits(g.entry(i, j)) == bits(g.entry(j, i))
        for _ in range(10):
            x = [rnd.uniform(-5, 5) for _ in range(4)]
            quad = sum(x[i] * g.entry(i, j) * x[j] for i in range(4) for j in range(4))
            bound = 1e-10 * sum(v * v for v in x) * inf_norm(g)
            assert quad >= -bound

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            gram(DenseMatrix(1, 2, (1.0, 2.0)))

    def test_sparse_matches_dense(self):
        dense = DenseMatrix.from_rows([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        assert gram(SparseMatrix.from_dense(dense)) == gram(dense)

    @given(stored_matrices())
    def test_matches_dense_triple_loop_bit_for_bit(self, pair):
        dense, sparse = pair
        m, n = dense.rows, dense.cols
        want = [0.0] * (n * n)
        for k in range(n):
            for l in range(k, n):
                acc = 0.0
                for i in range(m):
                    acc += dense.entry(i, k) * dense.entry(i, l)
                want[k * n + l] = acc
                want[l * n + k] = acc
        for a in (dense, sparse):
            g = gram(a)
            assert isinstance(g, SparseMatrix)
            assert vec_bits(g.to_dense().entries) == vec_bits(want)
            # Exact +0.0 sums are left unstored, as from_dense would.
            assert g == SparseMatrix.from_dense(g.to_dense())


class TestEliminate:
    def test_pivot_free_reaches_textbook_triangle(self):
        a = DenseMatrix.from_rows(SEC21_ROWS)
        u, y = eliminate(a, Vector((-1.0, 2.0, 3.0)), pivot=False)
        assert u.row(0) == (5.0, -2.0, 3.0)
        assert max(abs(v - w) for v, w in zip(u.row(1), (0.0, 39.0 / 5.0, 14.0 / 5.0))) < 1e-15
        assert abs(u.entry(2, 2) - (-67.0 / 13.0)) < 1e-12
        assert abs(y[2] - 38.0 / 13.0) < 1e-12

    def test_zero_matrix_reports_singular_step(self):
        with pytest.raises(SingularMatrixError, match="numerically singular at elimination step 0"):
            eliminate(square(2, [0.0] * 4), Vector.zeros(2))

    def test_rank_deficient_reports_later_step(self):
        a = DenseMatrix.from_rows([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError, match="elimination step 1"):
            eliminate(a, Vector.zeros(2))

    def test_pivoting_handles_zero_leading_entry(self):
        a = DenseMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
        x = solve_direct(a, Vector((2.0, 3.0)))
        assert x.entries == (3.0, 2.0)

    def test_pivot_free_fails_on_zero_leading_entry(self):
        a = DenseMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            eliminate(a, Vector((2.0, 3.0)), pivot=False)


class TestSolveDirect:
    def test_worked_example_solution(self):
        x = solve_direct(DenseMatrix.from_rows(SEC21_ROWS), Vector((-1.0, 2.0, 3.0)))
        assert max(abs(a - b) for a, b in zip(x.entries, SEC21_SOLUTION)) < 1e-14

    def test_identity_system(self):
        b = Vector((1.0, 2.0, 3.0, 4.0))
        assert solve_direct(DenseMatrix.identity(4), b).entries == b.entries

    def test_residuals_small_on_random_dominant_systems(self):
        rnd = random.Random(20)
        for _ in range(5):
            n = 20
            rows = [[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                rows[i][i] = n + rnd.random()
            a = DenseMatrix.from_rows(rows)
            b = Vector(tuple(rnd.uniform(-10, 10) for _ in range(n)))
            x = solve_direct(a, b)
            r = [bv - av for bv, av in zip(b, matvec(a, x))]
            assert norm2(r) <= 1e-10 * (1.0 + norm2(b))

    def test_back_substitute_rejects_zero_pivot(self):
        u = DenseMatrix.from_rows([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError, match="row 1"):
            back_substitute(u, Vector((1.0, 1.0)))


class TestNorms:
    def test_norm2_three_four_five(self):
        assert norm2(Vector((3.0, 4.0))) == 5.0

    def test_norm2_accepts_plain_sequences(self):
        assert norm2([3.0, 4.0]) == 5.0

    @pytest.mark.parametrize("n", [3, 5, 10, 31])
    def test_inf_norm_of_tridiagonal_family(self, n):
        assert inf_norm(tridiag(n)) == 4.0

    def test_inf_norm_identity(self):
        assert inf_norm(DenseMatrix.identity(7)) == 1.0

    def test_inf_norm_sparse_matches_dense(self):
        dense = DenseMatrix.from_rows(SEC21_ROWS)
        assert inf_norm(SparseMatrix.from_dense(dense)) == inf_norm(dense) == 13.0
