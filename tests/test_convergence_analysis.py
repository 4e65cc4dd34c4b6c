"""Spectral-radius estimation, classification, and method selection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ring_system, tridiag
from ringsolve import (
    DenseMatrix,
    MatrixProfile,
    Method,
    NoConvergentMethodError,
    SolverConfig,
    SparseMatrix,
    Vector,
    classify,
    estimate_iterations,
    iteration_matrix,
    optimal_omega,
    parse_matrix,
    reduce,
    select_method,
    solve,
    sor_radius,
    spectral_radius,
    split_dlu,
    structure_flags,
)
from ringsolve import matrix_core

SEC21 = DenseMatrix.from_rows([[5.0, -2.0, 3.0], [-3.0, 9.0, 1.0], [-2.0, -1.0, -7.0]])

signed_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)


def dense_cholesky_succeeds(rows) -> bool:
    """The textbook column-by-column Cholesky loop on a dense symmetric
    matrix: whether every pivot stays positive.  The oracle for the
    envelope factorization in ``structure_flags``."""
    n = len(rows)
    low = [[0.0] * n for _ in range(n)]
    for k in range(n):
        acc = rows[k][k]
        for j in range(k):
            acc -= low[k][j] * low[k][j]
        if not (acc > 0.0):
            return False
        low[k][k] = math.sqrt(acc)
        for i in range(k + 1, n):
            s = rows[i][k]
            for j in range(k):
                s -= low[i][j] * low[k][j]
            low[i][k] = s / low[k][k]
    return True


@st.composite
def flagged_matrices(draw):
    """(DenseMatrix, SparseMatrix) of one square matrix that is, by draw,
    symmetric, tridiagonal, both or neither, or symmetric with a ragged
    envelope (an arrow, a wide band, or a random first column per row),
    with signed zeros; the sparse form also stores a random subset of the
    +0.0 entries."""
    shape = draw(
        st.sampled_from(
            ["symmetric", "symmetric tridiagonal", "tridiagonal", "any", "symmetric envelope"]
        )
    )
    symmetric = shape.startswith("symmetric")
    tridiagonal = shape.endswith("tridiagonal")
    n = draw(st.integers(1, 10 if shape.endswith("envelope") else 6))
    shift = draw(st.sampled_from([0.0, 4.0, 30.0]))
    rows = [[draw(signed_entries) for _ in range(n)] for _ in range(n)]
    if shape.endswith("envelope"):
        # Zero the upper entries (j, i) that row i's envelope leaves out;
        # the lower triangle mirrors them below.
        kind = draw(st.sampled_from(["arrow", "band", "random first column"]))
        width = draw(st.integers(1, n))
        for i in range(n):
            first = draw(st.integers(0, i)) if kind == "random first column" else 0
            for j in range(i):
                if kind == "arrow":
                    inside = j == 0
                elif kind == "band":
                    inside = i - j <= width
                else:
                    inside = j >= first
                if not inside:
                    rows[j][i] = draw(st.sampled_from([0.0, -0.0]))
    for i in range(n):
        rows[i][i] += shift
        for j in range(n):
            if tridiagonal and abs(i - j) > 1:
                rows[i][j] = draw(st.sampled_from([0.0, -0.0]))
            elif symmetric and j < i:
                v = rows[j][i]
                rows[i][j] = draw(st.sampled_from([0.0, -0.0])) if v == 0.0 else v
    offsets, col_indices, stored = [0], [], []
    for row in rows:
        for j, v in enumerate(row):
            if v != 0.0 or math.copysign(1.0, v) < 0.0 or draw(st.booleans()):
                col_indices.append(j)
                stored.append(v)
        offsets.append(len(stored))
    return (
        DenseMatrix.from_rows(rows),
        SparseMatrix(n, n, tuple(offsets), tuple(col_indices), tuple(stored)),
    )


def definitional_flags(rows):
    n = len(rows)
    symmetric = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    strict = weak = True
    for i in range(n):
        off = 0.0
        for j in range(n):
            if j != i:
                off += abs(rows[i][j])
        strict = strict and abs(rows[i][i]) > off
        weak = weak and abs(rows[i][i]) >= off
    return {
        "is_symmetric": symmetric,
        "is_strictly_diag_dominant": strict,
        "is_weakly_diag_dominant": weak,
        "is_tridiagonal": all(
            rows[i][j] == 0.0 for i in range(n) for j in range(n) if abs(i - j) > 1
        ),
        "is_positive_definite": symmetric and dense_cholesky_succeeds(rows),
        "has_zero_diagonal": any(rows[i][i] == 0.0 for i in range(n)),
    }


def profile_with(rho_j=None, rho_g=None, rho_s=None, sor_omega=None, **flag_overrides):
    flags = {
        "is_symmetric": False,
        "is_strictly_diag_dominant": False,
        "is_weakly_diag_dominant": False,
        "is_tridiagonal": False,
        "is_positive_definite": False,
        "has_zero_diagonal": False,
    }
    flags.update(flag_overrides)
    return MatrixProfile(
        **flags,
        rho_jacobi=rho_j,
        rho_gauss_seidel=rho_g,
        rho_sor=rho_s,
        omega_star=None,
        sor_omega=sor_omega,
        recommendation="none convergent",
    )


class TestSpectralRadius:
    def test_diagonal_matrix(self):
        est = spectral_radius(DenseMatrix.from_rows([[0.9, 0.0], [0.0, 0.5]]))
        assert est.converged
        assert abs(est.rho - 0.9) < 1e-5

    def test_rotation_has_radius_one(self):
        est = spectral_radius(DenseMatrix.from_rows([[0.0, -1.0], [1.0, 0.0]]))
        assert est.converged
        assert est.rho == 1.0

    def test_scaled_rotation(self):
        # The dominant pair is complex conjugate; a single-step ratio would
        # oscillate forever, the windowed geometric mean settles at once.
        est = spectral_radius(DenseMatrix.from_rows([[0.0, -0.8], [0.8, 0.0]]))
        assert est.converged
        assert abs(est.rho - 0.8) < 1e-12

    def test_plus_minus_pair(self):
        est = spectral_radius(DenseMatrix.from_rows([[0.9, 0.0], [0.0, -0.9]]))
        assert est.converged
        assert abs(est.rho - 0.9) < 1e-9

    def test_zero_matrix_shortcut(self):
        est = spectral_radius(DenseMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]]))
        assert (est.rho, est.iterations_used, est.converged) == (0.0, 0, True)

    def test_nilpotent_collapse(self):
        est = spectral_radius(DenseMatrix.from_rows([[0.0, 1.0], [0.0, 0.0]]))
        assert est.rho == 0.0
        assert est.converged
        assert est.iterations_used == 2

    def test_defective_eigenvalue_does_not_stabilize_quickly(self):
        # A Jordan block's growth factors creep toward the radius like
        # 1 + O(1/k), too slowly for the stability rule at small budgets.
        t = DenseMatrix.from_rows([[0.9, 1.0], [0.0, 0.9]])
        est = spectral_radius(t, max_steps=200)
        assert not est.converged
        assert est.iterations_used == 200
        assert 0.9 < est.rho < 1.0

    def test_worked_jacobi_radius(self):
        t = iteration_matrix(SEC21, Method.jacobi()).T
        est = spectral_radius(t)
        assert est.converged
        assert abs(est.rho - 0.62207) < 5e-4

    def test_deterministic(self):
        t = iteration_matrix(tridiag(8), Method.gauss_seidel()).T
        a = spectral_radius(t)
        b = spectral_radius(t)
        assert a == b

    def test_records_tolerance(self):
        est = spectral_radius(DenseMatrix.identity(3), tol=1e-4)
        assert est.tolerance == 1e-4

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="expected square"):
            spectral_radius(DenseMatrix.from_rows([[1.0, 2.0]]))

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            spectral_radius(DenseMatrix.identity(2), tol=tol)

    def test_bad_max_steps(self):
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            spectral_radius(DenseMatrix.identity(2), max_steps=0)

    @given(st.floats(min_value=0.05, max_value=0.99), st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=60)
    def test_similarity_scaled_rotation_property(self, r, angle):
        # rho of r * rotation(angle) is exactly r for any angle; the
        # estimator should land within its tolerance whenever it converges.
        c, s = math.cos(angle), math.sin(angle)
        t = DenseMatrix.from_rows([[r * c, -r * s], [r * s, r * c]])
        est = spectral_radius(t, tol=1e-8)
        assume(est.converged)
        assert abs(est.rho - r) <= 1e-6 * max(1.0, r)


class TestOptimalOmega:
    def test_zero_radius_gives_one(self):
        assert optimal_omega(0.0) == 1.0

    def test_hand_value(self):
        assert abs(optimal_omega(0.8) - 1.25) < 1e-15

    def test_matches_tridiagonal_law(self):
        rho_j = math.cos(math.pi / 33.0)
        want = 2.0 / (1.0 + math.sin(math.pi / 33.0))
        assert abs(optimal_omega(rho_j) - want) < 1e-12

    @pytest.mark.parametrize("rho", [1.0, 1.5, -0.1])
    def test_domain(self, rho):
        with pytest.raises(ValueError, match="optimal omega requires"):
            optimal_omega(rho)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_range_property(self, rho):
        w = optimal_omega(rho)
        assert 1.0 <= w < 2.0

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_monotone_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert optimal_omega(lo) <= optimal_omega(hi)


class TestSorRadius:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.5, 1.7, 1.95])
    def test_matches_dense_eigenvalues_on_rings(self, n, omega):
        a = reduce(*ring_system([0.0] * n)).normal_matrix
        t = np.array(iteration_matrix(a, Method.sor(omega)).T.entries).reshape(n - 1, n - 1)
        want = np.abs(np.linalg.eigvals(t)).max()
        assert abs(sor_radius(math.cos(math.pi / n), omega) - want) <= 1e-12

    def test_optimal_weight_gives_weight_minus_one(self):
        omega = optimal_omega(0.99)
        assert sor_radius(0.99, omega) == omega - 1.0

    @pytest.mark.parametrize("rho_j, omega", [(1.0, 1.5), (-0.1, 1.5), (0.5, 0.0), (0.5, 2.0)])
    def test_domain(self, rho_j, omega):
        with pytest.raises(ValueError, match="SOR radius requires"):
            sor_radius(rho_j, omega)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.01, max_value=1.99))
    def test_optimal_weight_minimizes_property(self, rho_j, omega):
        best = sor_radius(rho_j, optimal_omega(rho_j))
        assert best <= sor_radius(rho_j, omega) + 1e-12


class TestEstimateIterations:
    def test_hand_value(self):
        # arg = 1e-3 * 0.5 / 4 = 1.25e-4; log ratio = 12.97, so 13 sweeps.
        assert estimate_iterations(1e-3, 0.5, 4.0, 1.0) == 13

    def test_loose_threshold_returns_one(self):
        assert estimate_iterations(10.0, 0.5, 1.0, 1.0) == 1

    def test_radius_at_or_above_one(self):
        with pytest.raises(ValueError, match="no a-priori estimate: spectral radius 1.0"):
            estimate_iterations(1e-3, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            ({"rho": 0.0}, r"\(0, 1\)"),
            ({"rho": -0.5}, r"\(0, 1\)"),
            ({"eta": 0.0}, "eta must be positive"),
            ({"norm_a": -1.0}, "matrix norm must be positive"),
            ({"first_step": 0.0}, "first-step displacement must be positive"),
        ],
    )
    def test_argument_validation(self, kwargs, pattern):
        args = {"eta": 1e-3, "rho": 0.5, "norm_a": 1.0, "first_step": 1.0}
        args.update(kwargs)
        with pytest.raises(ValueError, match=pattern):
            estimate_iterations(**args)

    @given(
        st.floats(min_value=1e-8, max_value=1e-1),
        st.floats(min_value=0.05, max_value=0.98),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_count_satisfies_error_bound_property(self, eta, rho, norm_a, first_step):
        k = estimate_iterations(eta, rho, norm_a, first_step)
        assert k >= 1
        bound = rho**k * norm_a * first_step / (1.0 - rho)
        assert bound <= eta * (1.0 + 1e-9)
        if k > 1:
            previous = rho ** (k - 1) * norm_a * first_step / (1.0 - rho)
            assert previous >= eta * (1.0 - 1e-9)

    @given(
        st.floats(min_value=1e-8, max_value=1e-2),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_larger_radius_never_needs_fewer_sweeps_property(self, eta, a, b):
        lo, hi = min(a, b), max(a, b)
        assert estimate_iterations(eta, lo, 2.0, 1.0) <= estimate_iterations(eta, hi, 2.0, 1.0)


class TestStructureFlags:
    def test_identity(self):
        assert structure_flags(DenseMatrix.identity(5)) == {
            "is_symmetric": True,
            "is_strictly_diag_dominant": True,
            "is_weakly_diag_dominant": True,
            "is_tridiagonal": True,
            "is_positive_definite": True,
            "has_zero_diagonal": False,
        }

    def test_worked_matrix(self):
        assert structure_flags(SEC21) == {
            "is_symmetric": False,
            "is_strictly_diag_dominant": False,
            "is_weakly_diag_dominant": True,
            "is_tridiagonal": False,
            "is_positive_definite": False,
            "has_zero_diagonal": False,
        }

    def test_tridiagonal_laplacian(self):
        flags = structure_flags(tridiag(5))
        assert flags["is_tridiagonal"]
        assert flags["is_positive_definite"]
        assert flags["is_weakly_diag_dominant"]
        assert not flags["is_strictly_diag_dominant"]

    def test_zero_diagonal_detected(self):
        flags = structure_flags(DenseMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]]))
        assert flags["has_zero_diagonal"]

    @given(
        st.lists(
            st.integers(min_value=-3, max_value=3), min_size=36, max_size=36
        ),
        st.booleans(),
    )
    def test_flags_agree_with_numpy_oracles_property(self, cells, symmetrize):
        m = np.array(cells, dtype=np.float64).reshape(6, 6)
        if symmetrize:
            m = np.triu(m) + np.triu(m, 1).T
        flags = structure_flags(DenseMatrix.from_rows(m.tolist()))
        assert flags["is_symmetric"] == bool((m == m.T).all())
        off = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
        assert flags["is_strictly_diag_dominant"] == bool(
            (np.abs(np.diag(m)) > off).all()
        )
        assert flags["is_weakly_diag_dominant"] == bool(
            (np.abs(np.diag(m)) >= off).all()
        )
        band = np.ones_like(m, dtype=bool)
        for i in range(6):
            for j in range(6):
                band[i, j] = abs(i - j) <= 1
        assert flags["is_tridiagonal"] == bool((m[~band] == 0.0).all())
        assert flags["has_zero_diagonal"] == bool((np.diag(m) == 0.0).any())
        if flags["is_symmetric"]:
            eigs = np.linalg.eigvalsh(m)
            assume(np.abs(eigs).min() > 1e-8)
            assert flags["is_positive_definite"] == bool((eigs > 0.0).all())
        else:
            assert not flags["is_positive_definite"]

    @given(flagged_matrices())
    def test_csr_flags_match_dense_and_definitions(self, pair):
        dense, sparse = pair
        want = definitional_flags(dense.to_rows())
        assert structure_flags(sparse) == want
        assert structure_flags(dense) == want

    @given(flagged_matrices(), st.sampled_from([1e-6, -1e-6]))
    def test_positive_definiteness_at_the_edge_of_the_spectrum_property(self, pair, margin):
        # Shifting the smallest eigenvalue to +-margin makes the answer
        # depend on every L entry, not only on the first pivots.
        m = np.array(pair[0].to_rows())
        assume((m == m.T).all())
        shift = margin * max(1.0, float(np.abs(m).max())) - float(np.linalg.eigvalsh(m)[0])
        rows = (m + shift * np.eye(len(m))).tolist()
        flags = structure_flags(SparseMatrix.from_dense(DenseMatrix.from_rows(rows)))
        assert flags["is_positive_definite"] == (margin > 0.0) == dense_cholesky_succeeds(rows)

    def test_positive_definiteness_never_densifies(self, monkeypatch, fixtures_dir):
        grid = parse_matrix((fixtures_dir / "poisson10.mat").read_text())
        ring = reduce(*ring_system([0.0] * 64)).normal_matrix

        def refuse(self):
            raise AssertionError("structure_flags made a matrix dense")

        monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
        for a in (grid, ring):
            flags = structure_flags(a)
            assert flags["is_symmetric"] and flags["is_positive_definite"]
        assert not structure_flags(grid)["is_tridiagonal"]


class TestClassify:
    def test_identity_all_radii_zero_prefers_gauss_seidel(self):
        profile = classify(DenseMatrix.identity(5))
        assert profile.rho_jacobi == 0.0
        assert profile.rho_gauss_seidel == 0.0
        assert profile.rho_sor == 0.0
        assert profile.omega_star == 1.0
        assert profile.recommendation == Method.gauss_seidel()
        # Counts need a right-hand side; they live on SolveReport.
        assert not hasattr(profile, "predicted_iterations")

    def test_splits_once_and_a_later_solve_reuses_the_split(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return split_dlu(a)

        monkeypatch.setattr(matrix_core, "split_dlu", counting)
        red = reduce(*ring_system([1.0, -1.0] * 8))
        # SEC21's radii are measured, the ring's are closed forms.
        for a, b in (
            (SparseMatrix.from_dense(SEC21), Vector((-1.0, 2.0, 3.0))),
            (red.normal_matrix, red.normal_rhs),
        ):
            calls.clear()
            profile = classify(a)
            solve(a, b, SolverConfig(method=select_method(profile)[0], eta=1e-6), profile)
            assert calls == [a]

    def test_overflowing_iteration_matrix_names_its_first_bad_entry(self):
        # Nonsymmetric, so the radii are measured; T_jacobi[1][0] is
        # -1e10 / 1e-300, row-major entry 3.
        a = DenseMatrix.from_rows([[1.0, 0.5, 0.0], [1e10, 1e-300, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^matrix entry 3 is not finite: -inf$"):
            classify(a)

    def test_tridiagonal_gets_optimal_weight_and_sor(self):
        profile = classify(tridiag(5))
        assert abs(profile.rho_jacobi - math.cos(math.pi / 6.0)) < 2e-4
        assert abs(profile.rho_gauss_seidel - math.cos(math.pi / 6.0) ** 2) < 2e-4
        assert profile.omega_star is not None
        assert abs(profile.omega_star - 2.0 / (1.0 + math.sin(math.pi / 6.0))) < 1e-4
        assert profile.sor_omega == profile.omega_star
        assert abs(profile.rho_sor - (profile.omega_star - 1.0)) < 5e-4
        assert profile.recommendation == Method.sor(profile.sor_omega)

    def test_worked_matrix_prefers_gauss_seidel_with_fallback_weight(self):
        profile = classify(SEC21)
        assert abs(profile.rho_jacobi - 0.62207) < 1e-3
        assert profile.rho_gauss_seidel < profile.rho_jacobi
        assert profile.omega_star is None
        assert profile.sor_omega == 1.5
        assert profile.recommendation == Method.gauss_seidel()

    def test_zero_diagonal_profile(self):
        profile = classify(DenseMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]]))
        assert profile.has_zero_diagonal
        assert profile.rho_jacobi is None
        assert profile.rho_gauss_seidel is None
        assert profile.rho_sor is None
        assert profile.omega_star is None
        assert profile.sor_omega is None
        assert profile.recommendation == "none convergent"

    def test_divergent_matrix_recommends_nothing(self):
        profile = classify(DenseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]]))
        assert abs(profile.rho_jacobi - 2.0) < 1e-6
        assert abs(profile.rho_gauss_seidel - 4.0) < 1e-5
        assert profile.recommendation == "none convergent"

    @pytest.mark.parametrize("scale", [2.0, 0.25])
    def test_power_of_two_scaling_is_bit_invariant(self, scale):
        a = tridiag(6)
        scaled = DenseMatrix.from_rows(
            [[scale * v for v in row] for row in a.to_rows()]
        )
        base = classify(a)
        other = classify(scaled)
        assert other.rho_jacobi == base.rho_jacobi
        assert other.rho_gauss_seidel == base.rho_gauss_seidel
        assert other.rho_sor == base.rho_sor
        assert other.omega_star == base.omega_star
        assert other.recommendation == base.recommendation

    def test_general_scaling_leaves_radii_nearly_unchanged(self):
        a = SEC21
        scaled = DenseMatrix.from_rows([[3.0 * v for v in row] for row in a.to_rows()])
        base = classify(a)
        other = classify(scaled)
        assert abs(other.rho_jacobi - base.rho_jacobi) < 1e-6
        assert abs(other.rho_gauss_seidel - base.rho_gauss_seidel) < 1e-6
        assert other.recommendation == base.recommendation


def _tridiagonal(diag, sub):
    n = len(diag)
    rows = [[0.0] * n for _ in range(n)]
    for i, d in enumerate(diag):
        rows[i][i] = d
    for i, v in enumerate(sub):
        rows[i + 1][i] = rows[i][i + 1] = v
    return rows


def _dense_radius(a, method):
    t = iteration_matrix(a, method).T
    return float(np.abs(np.linalg.eigvals(np.array(t.entries).reshape(t.rows, t.cols))).max())


class TestClosedFormRadii:
    """Symmetric tridiagonal matrices with a positive diagonal."""

    @pytest.mark.parametrize("exits", [4, 5, 7, 16, 32, 33, 64, 255, 512, 1024])
    def test_ring_normal_matrices_match_analytic_radii(self, exits):
        profile = classify(reduce(*ring_system([0.0] * exits)).normal_matrix)
        c, s = math.cos(math.pi / exits), math.sin(math.pi / exits)
        assert abs(profile.rho_jacobi - c) <= 1e-12
        assert abs(profile.rho_gauss_seidel - c * c) <= 1e-12
        assert abs(profile.omega_star - 2.0 / (1.0 + s)) <= 1e-12
        assert abs(profile.rho_sor - (profile.omega_star - 1.0)) <= 1e-12
        assert profile.sor_omega == profile.omega_star
        assert profile.radii_converged

    def test_sparse_input_gives_identical_profile(self):
        a = tridiag(9)
        assert classify(SparseMatrix.from_dense(a)) == classify(a)

    @given(
        st.lists(st.floats(min_value=0.25, max_value=8.0), min_size=2, max_size=8),
        st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=7, max_size=7),
        st.sampled_from([0.5, 2.0]),
    )
    def test_radii_match_dense_eigenvalues_property(self, diag, coupling, reach):
        # reach 0.5 keeps every scaled off-diagonal below 1/2, so the
        # matrix is positive definite; reach 2.0 is often indefinite.
        sub = [
            reach * c * math.sqrt(diag[i] * diag[i + 1])
            for i, c in enumerate(coupling[: len(diag) - 1])
        ]
        rows = _tridiagonal(diag, sub)
        a = DenseMatrix.from_rows(rows)
        profile = classify(a)
        if reach == 0.5:
            assert profile.is_positive_definite
        assert profile.is_positive_definite == dense_cholesky_succeeds(rows)

        want_j = _dense_radius(a, Method.jacobi())
        want_g = _dense_radius(a, Method.gauss_seidel())
        assert abs(profile.rho_jacobi - want_j) <= 1e-12 * max(1.0, want_j)
        assert abs(profile.rho_gauss_seidel - want_g) <= 1e-12 * max(1.0, want_g)
        want_s = _dense_radius(a, Method.sor(profile.sor_omega))
        if profile.omega_star is not None:
            # T at the optimal weight has a 2x2 Jordan block, so the dense
            # eigenvalue solver itself is only good to about sqrt(eps).
            assert abs(profile.rho_sor - want_s) <= 1e-6
            assert profile.radii_converged
        elif profile.radii_converged:
            assert abs(profile.rho_sor - want_s) <= 1e-6 * max(1.0, want_s)

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=7),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
    )
    def test_banded_positive_definite_flag_matches_dense_cholesky_property(self, diag, sub):
        rows = _tridiagonal([float(d) for d in diag], [float(v) for v in sub[: len(diag) - 1]])
        flags = structure_flags(DenseMatrix.from_rows(rows))
        assert flags["is_tridiagonal"] and flags["is_symmetric"]
        assert flags["is_positive_definite"] == dense_cholesky_succeeds(rows)

    def test_overflowing_scaled_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            classify(DenseMatrix.from_rows([[1e-200, 1e200], [1e200, 1e-200]]))

    def test_indefinite_matrix_measures_sor_at_fallback_weight(self):
        a = DenseMatrix.from_rows(_tridiagonal([1.0, 1.0, 1.0], [0.9, 0.9]))
        profile = classify(a)
        assert not profile.is_positive_definite
        assert abs(profile.rho_jacobi - 0.9 * math.sqrt(2.0)) <= 1e-15
        assert profile.omega_star is None and profile.sor_omega == 1.5
        assert abs(profile.rho_sor - _dense_radius(a, Method.sor(1.5))) <= 1e-6
        assert profile.radii_converged

    def test_unsettled_power_estimate_is_flagged(self):
        # T_jacobi = [[0, I], [S, 0]] with S a Jordan block: the dominant
        # eigenvalues +-0.5 are defective, so power iteration never settles.
        t = [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.25, 1.0, 0.0, 0.0],
            [0.0, 0.25, 0.0, 0.0],
        ]
        a = DenseMatrix.from_rows(
            [[(1.0 if i == j else 0.0) - t[i][j] for j in range(4)] for i in range(4)]
        )
        profile = classify(a)
        assert not profile.radii_converged
        assert abs(profile.rho_jacobi - 0.5) < 1e-3


class TestTridiagonalLaws:
    """Measured radii against the closed forms for the 1-d Laplacian."""

    @pytest.mark.parametrize("n", [5, 10])
    def test_gauss_seidel_is_squared_jacobi(self, n):
        profile = classify(tridiag(n))
        want = math.cos(math.pi / (n + 1)) ** 2
        assert abs(profile.rho_gauss_seidel - want) < 2e-4

    @pytest.mark.parametrize("n", [5, 10])
    def test_sor_radius_equals_weight_minus_one(self, n):
        profile = classify(tridiag(n))
        assert abs(profile.rho_sor - (profile.omega_star - 1.0)) <= 5e-4


class TestSelectMethod:
    def test_all_tied_prefers_gauss_seidel(self):
        method, _ = select_method(profile_with(0.5, 0.5, 0.5, sor_omega=1.5))
        assert method == Method.gauss_seidel()

    def test_tie_tolerance_still_prefers_gauss_seidel(self):
        method, _ = select_method(profile_with(0.9, 0.5 + 5e-10, 0.5, sor_omega=1.5))
        assert method == Method.gauss_seidel()

    def test_sor_beats_jacobi_within_tie(self):
        method, _ = select_method(profile_with(0.5 + 5e-10, 0.9, 0.5, sor_omega=1.5))
        assert method == Method.sor(1.5)

    def test_clear_winner_jacobi(self):
        method, rationale = select_method(profile_with(0.3, 0.9, 0.9, sor_omega=1.5))
        assert method == Method.jacobi()
        assert "smallest spectral radius estimate 0.300000" in rationale

    def test_only_convergent_method_wins(self):
        method, _ = select_method(profile_with(1.5, 4.0, 0.99, sor_omega=1.5))
        assert method == Method.sor(1.5)

    def test_no_convergent_method(self):
        with pytest.raises(
            NoConvergentMethodError, match="^no convergent stationary method"
        ):
            select_method(profile_with(1.2, 1.0, 3.0, sor_omega=1.5))

    def test_zero_diagonal_message(self):
        with pytest.raises(NoConvergentMethodError, match="zero diagonal entry"):
            select_method(profile_with(has_zero_diagonal=True))

    def test_rationale_cites_strict_dominance_for_jacobi(self):
        profile = profile_with(
            0.2,
            0.9,
            0.9,
            sor_omega=1.5,
            is_strictly_diag_dominant=True,
            is_weakly_diag_dominant=True,
        )
        _, rationale = select_method(profile)
        assert "strictly diagonally dominant" in rationale

    def test_rationale_cites_spd_for_gauss_seidel(self):
        profile = profile_with(
            0.9, 0.2, 0.9, sor_omega=1.5, is_symmetric=True, is_positive_definite=True
        )
        _, rationale = select_method(profile)
        assert "symmetric positive definite" in rationale

    def test_rationale_fallback_note(self):
        _, rationale = select_method(profile_with(0.9, 0.2, 0.9, sor_omega=1.5))
        assert "no sufficient condition holds" in rationale

    def test_sor_rationale_includes_weight(self):
        profile = classify(tridiag(5))
        method, rationale = select_method(profile)
        assert method.tag == "sor"
        assert f"sor(omega={method.omega:.6f})" in rationale
        assert "optimal for this symmetric positive definite tridiagonal" in rationale


class TestMatrixProfileInvariants:
    def test_strict_requires_weak(self):
        with pytest.raises(ValueError, match="implies weak dominance"):
            profile_with(is_strictly_diag_dominant=True)

    def test_positive_definite_requires_symmetric(self):
        with pytest.raises(ValueError, match="only asserted for symmetric"):
            profile_with(is_positive_definite=True)

    @pytest.mark.parametrize("omega_star", [0.9, 2.0])
    def test_omega_star_range(self, omega_star):
        with pytest.raises(ValueError, match=r"outside \[1, 2\)"):
            MatrixProfile(
                is_symmetric=True,
                is_strictly_diag_dominant=False,
                is_weakly_diag_dominant=True,
                is_tridiagonal=True,
                is_positive_definite=True,
                has_zero_diagonal=False,
                rho_jacobi=0.5,
                rho_gauss_seidel=0.25,
                rho_sor=0.1,
                omega_star=omega_star,
                sor_omega=omega_star,
                recommendation="none convergent",
            )
