"""Spectral-radius estimation, classification, and method selection."""

import math
import random
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import identity, ring_system, to_rows, tridiag
from oracles import consistently_ordered, ordering_search_by_row_scan
from ringsolve import (
    MatrixProfile,
    Method,
    NoConvergentMethodError,
    SolverConfig,
    SparseMatrix,
    TriangularSplit,
    Vector,
    assemble,
    classify,
    estimate_iterations,
    gram,
    iteration_matrix,
    optimal_omega,
    parse_matrix,
    parse_network,
    reduce,
    select_method,
    solve,
    sor_radius,
    spectral_radius,
    split_dlu,
    structure_flags,
)
from ringsolve import convergence_analysis, matrix_core
from ringsolve.convergence_analysis import (
    _CLASSIFY_TOL,
    _LANCZOS_MAX_DIM,
    _MAX_POWER_STEPS,
    _lanczos_radius,
    _ordering_search,
    _power_radius,
    _symmetrisable,
)
from ringsolve.stationary_solvers import _iteration_array

SEC21_ROWS = [[5.0, -2.0, 3.0], [-3.0, 9.0, 1.0], [-2.0, -1.0, -7.0]]
SEC21 = SparseMatrix.from_rows(SEC21_ROWS)

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
    """(rows, SparseMatrix) of one square matrix that is, by draw,
    symmetric, tridiagonal, both or neither, or symmetric with a ragged
    envelope (an arrow, a wide band, or a random first column per row),
    with signed zeros; the CSR form also stores a random subset of the
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
    return rows, with_stored_zeros(draw, rows)


def with_stored_zeros(draw, rows):
    """The CSR form of square ``rows`` that also stores a random subset of
    their +0.0 entries."""
    offsets, col_indices, stored = [0], [], []
    for row in rows:
        for j, v in enumerate(row):
            if v != 0.0 or math.copysign(1.0, v) < 0.0 or draw(st.booleans()):
                col_indices.append(j)
                stored.append(v)
        offsets.append(len(stored))
    n = len(rows)
    return SparseMatrix(n, n, tuple(offsets), tuple(col_indices), tuple(stored))


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
        est = spectral_radius(SparseMatrix.from_rows([[0.9, 0.0], [0.0, 0.5]]))
        assert est.converged
        assert abs(est.rho - 0.9) < 1e-5

    def test_rotation_has_radius_one(self):
        est = spectral_radius(SparseMatrix.from_rows([[0.0, -1.0], [1.0, 0.0]]))
        assert est.converged
        assert est.rho == 1.0

    def test_scaled_rotation(self):
        # The dominant pair is complex conjugate; a single-step ratio would
        # oscillate forever, the windowed geometric mean settles at once.
        est = spectral_radius(SparseMatrix.from_rows([[0.0, -0.8], [0.8, 0.0]]))
        assert est.converged
        assert abs(est.rho - 0.8) < 1e-12

    def test_plus_minus_pair(self):
        est = spectral_radius(SparseMatrix.from_rows([[0.9, 0.0], [0.0, -0.9]]))
        assert est.converged
        assert abs(est.rho - 0.9) < 1e-9

    def test_zero_matrix_shortcut(self):
        est = spectral_radius(SparseMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]]))
        assert (est.rho, est.iterations_used, est.converged) == (0.0, 0, True)

    def test_nilpotent_collapse(self):
        est = spectral_radius(SparseMatrix.from_rows([[0.0, 1.0], [0.0, 0.0]]))
        assert est.rho == 0.0
        assert est.converged
        assert est.iterations_used == 2

    def test_defective_eigenvalue_does_not_stabilize_quickly(self):
        # A Jordan block's growth factors creep toward the radius like
        # 1 + O(1/k), too slowly for the stability rule at small budgets.
        t = SparseMatrix.from_rows([[0.9, 1.0], [0.0, 0.9]])
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
        est = spectral_radius(identity(3), tol=1e-4)
        assert est.tolerance == 1e-4

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="expected square"):
            spectral_radius(SparseMatrix.from_rows([[1.0, 2.0]]))

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            spectral_radius(identity(2), tol=tol)

    def test_bad_max_steps(self):
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            spectral_radius(identity(2), max_steps=0)

    @given(st.floats(min_value=0.05, max_value=0.99), st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=60)
    def test_similarity_scaled_rotation_property(self, r, angle):
        # rho of r * rotation(angle) is exactly r for any angle; the
        # estimator should land within its tolerance whenever it converges.
        c, s = math.cos(angle), math.sin(angle)
        t = SparseMatrix.from_rows([[r * c, -r * s], [r * s, r * c]])
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
        t = np.array(to_rows(iteration_matrix(a, Method.sor(omega)).T))
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
        assert structure_flags(identity(5)) == {
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
        flags = structure_flags(SparseMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]]))
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
        flags = structure_flags(SparseMatrix.from_rows(m.tolist()))
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
        rows, stored = pair
        want = definitional_flags(rows)
        assert structure_flags(stored) == want
        assert structure_flags(SparseMatrix.from_rows(rows)) == want

    @given(flagged_matrices(), st.sampled_from([1e-6, -1e-6]))
    def test_positive_definiteness_at_the_edge_of_the_spectrum_property(self, pair, margin):
        # Shifting the smallest eigenvalue to +-margin makes the answer
        # depend on every L entry, not only on the first pivots.
        m = np.array(pair[0])
        assume((m == m.T).all())
        shift = margin * max(1.0, float(np.abs(m).max())) - float(np.linalg.eigvalsh(m)[0])
        rows = (m + shift * np.eye(len(m))).tolist()
        flags = structure_flags(SparseMatrix.from_rows(rows))
        assert flags["is_positive_definite"] == (margin > 0.0) == dense_cholesky_succeeds(rows)

    def test_positive_definiteness_of_a_grid_and_a_ring(self, fixtures_dir):
        grid = parse_matrix((fixtures_dir / "poisson10.mat").read_text())
        ring = reduce(*ring_system([0.0] * 64)).normal_matrix
        for a in (grid, ring):
            flags = structure_flags(a)
            assert flags["is_symmetric"] and flags["is_positive_definite"]
        assert not structure_flags(grid)["is_tridiagonal"]


class TestOneCouplingView:
    """The flags, the ordering search and Lanczos share one ``couplings``
    view per split."""

    @pytest.mark.parametrize("shape", ["grid", "ring"])
    def test_couplings_are_derived_once_per_matrix(self, monkeypatch, shape):
        derived = []
        derive = TriangularSplit.couplings.func

        def counting(split):
            derived.append(split)
            return derive(split)

        view = cached_property(counting)
        view.__set_name__(TriangularSplit, "couplings")
        monkeypatch.setattr(TriangularSplit, "couplings", view)
        if shape == "grid":
            a = SparseMatrix.from_rows(convection_diffusion(6, 0.2))
            b = Vector((1.0,) * a.rows)
        else:
            reduced = reduce(*ring_system([1.0, -1.0] * 16))
            a, b = reduced.normal_matrix, reduced.normal_rhs
        structure_flags(a)
        profile = classify(a)
        report = solve(a, b, SolverConfig(method=profile.recommendation), profile)
        assert report.converged
        assert len(derived) == 1 and derived[0] is a.split

    def test_classify_reads_the_flags_through_the_module_attribute(self, monkeypatch):
        # perfbench's tracer wraps this attribute for its structure_flags span.
        calls = []

        def counting(a):
            calls.append(a)
            return structure_flags(a)

        monkeypatch.setattr(convergence_analysis, "structure_flags", counting)
        a = SparseMatrix.from_rows(convection_diffusion(4, 0.1))
        classify(a)
        assert calls == [a]


class TestClassify:
    def test_identity_all_radii_zero_prefers_gauss_seidel(self):
        profile = classify(identity(5))
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
        # SEC21's radii are measured, the ring's are closed forms.  A fresh
        # matrix has no split yet.
        for a, b in (
            (SparseMatrix.from_rows(SEC21_ROWS), Vector((-1.0, 2.0, 3.0))),
            (red.normal_matrix, red.normal_rhs),
        ):
            calls.clear()
            profile = classify(a)
            solve(a, b, SolverConfig(method=select_method(profile)[0], eta=1e-6), profile)
            assert calls == [a]

    def test_overflowing_iteration_matrix_names_its_first_bad_entry(self):
        # Nonsymmetric, so the radii are measured; T_jacobi[1][0] is
        # -1e10 / 1e-300, row-major entry 3.
        a = SparseMatrix.from_rows([[1.0, 0.5, 0.0], [1e10, 1e-300, 0.0], [0.0, 0.0, 1.0]])
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

    def test_worked_matrix_prefers_sor_at_youngs_weight(self):
        profile = classify(SEC21)
        assert abs(profile.rho_jacobi - 0.62207) < 1e-3
        assert profile.rho_gauss_seidel < profile.rho_jacobi
        assert profile.omega_star is None
        assert profile.sor_omega == optimal_omega(math.sqrt(profile.rho_gauss_seidel))
        assert profile.rho_sor < profile.rho_gauss_seidel
        assert profile.recommendation == Method.sor(profile.sor_omega)

    def test_zero_diagonal_profile(self):
        profile = classify(SparseMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]]))
        assert profile.has_zero_diagonal
        assert profile.rho_jacobi is None
        assert profile.rho_gauss_seidel is None
        assert profile.rho_sor is None
        assert profile.omega_star is None
        assert profile.sor_omega is None
        assert profile.recommendation == "none convergent"

    def test_divergent_matrix_recommends_nothing(self):
        profile = classify(SparseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]]))
        assert abs(profile.rho_jacobi - 2.0) < 1e-6
        assert abs(profile.rho_gauss_seidel - 4.0) < 1e-5
        assert profile.recommendation == "none convergent"

    @pytest.mark.parametrize("scale", [2.0, 0.25])
    def test_power_of_two_scaling_is_bit_invariant(self, scale):
        a = tridiag(6)
        scaled = SparseMatrix.from_rows([[scale * v for v in row] for row in to_rows(a)])
        base = classify(a)
        other = classify(scaled)
        assert other.rho_jacobi == base.rho_jacobi
        assert other.rho_gauss_seidel == base.rho_gauss_seidel
        assert other.rho_sor == base.rho_sor
        assert other.omega_star == base.omega_star
        assert other.recommendation == base.recommendation

    def test_general_scaling_leaves_radii_nearly_unchanged(self):
        a = SEC21
        scaled = SparseMatrix.from_rows([[3.0 * v for v in row] for row in to_rows(a)])
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
    return float(np.abs(np.linalg.eigvals(np.array(to_rows(t)))).max())


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
        a = SparseMatrix.from_rows(rows)
        profile = classify(a)
        if reach == 0.5:
            assert profile.is_positive_definite
        assert profile.is_positive_definite == dense_cholesky_succeeds(rows)

        want_j = _dense_radius(a, Method.jacobi())
        want_g = _dense_radius(a, Method.gauss_seidel())
        assert abs(profile.rho_jacobi - want_j) <= 1e-12 * max(1.0, want_j)
        assert abs(profile.rho_gauss_seidel - want_g) <= 1e-12 * max(1.0, want_g)
        if profile.rho_gauss_seidel >= 1.0 - 1e-9:
            # Gauss-Seidel does not converge, so Young's formula gives no weight.
            assert profile.sor_omega is None and profile.rho_sor is None
            assert profile.omega_star is None
            return
        # Symmetric tridiagonal with a positive diagonal: Young's theory holds.
        assert profile.omega_star is not None and profile.sor_omega == profile.omega_star
        want_s = _dense_radius(a, Method.sor(profile.sor_omega))
        # T at the optimal weight has a 2x2 Jordan block, so the dense
        # eigenvalue solver itself is only good to about sqrt(eps).
        assert abs(profile.rho_sor - want_s) <= 1e-6
        assert profile.radii_converged

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=7),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
    )
    def test_banded_positive_definite_flag_matches_dense_cholesky_property(self, diag, sub):
        rows = _tridiagonal([float(d) for d in diag], [float(v) for v in sub[: len(diag) - 1]])
        flags = structure_flags(SparseMatrix.from_rows(rows))
        assert flags["is_tridiagonal"] and flags["is_symmetric"]
        assert flags["is_positive_definite"] == dense_cholesky_succeeds(rows)

    def test_overflowing_scaled_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            classify(SparseMatrix.from_rows([[1e-200, 1e200], [1e200, 1e-200]]))

    def test_gauss_seidel_divergent_matrix_has_no_sor_profile(self):
        a = SparseMatrix.from_rows(_tridiagonal([1.0, 1.0, 1.0], [0.9, 0.9]))
        profile = classify(a)
        assert not profile.is_positive_definite
        assert abs(profile.rho_jacobi - 0.9 * math.sqrt(2.0)) <= 1e-15
        assert abs(profile.rho_gauss_seidel - _dense_radius(a, Method.gauss_seidel())) <= 1e-12
        assert profile.rho_gauss_seidel > 1.0
        assert profile.omega_star is None
        assert profile.sor_omega is None and profile.rho_sor is None
        assert profile.recommendation == "none convergent"
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
        a = SparseMatrix.from_rows(
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
        assert "Young's optimum for this consistently ordered matrix" in rationale

    def test_sor_rationale_cites_ostrowski_reich_without_optimal_weight(self):
        profile = profile_with(
            0.9, 0.8, 0.5, sor_omega=1.5, is_symmetric=True, is_positive_definite=True
        )
        method, rationale = select_method(profile)
        assert method == Method.sor(1.5)
        assert "every 0 < omega < 2 (Ostrowski-Reich)" in rationale
        assert "no sufficient condition" not in rationale

    def test_radius_one_up_to_rounding_is_not_convergent(self, fixtures_dir):
        # The normal matrix of two disjoint rings with one column dropped:
        # its null space makes every true radius exactly 1.  rho_gs is 1 to
        # within the tie tolerance, so SOR is not profiled at all.
        network = parse_network((fixtures_dir / "two_rings.network").read_text())
        a, _ = assemble(network)
        kept = SparseMatrix.from_rows([row[:-1] for row in to_rows(a)])
        profile = classify(gram(kept))
        assert abs(profile.rho_gauss_seidel - 1.0) <= 1e-9
        assert profile.sor_omega is None and profile.rho_sor is None
        assert profile.recommendation == "none convergent"
        with pytest.raises(NoConvergentMethodError, match="1 or more, to within 1e-9"):
            select_method(profile)

    def test_gauss_seidel_radius_one_up_to_rounding_gets_no_sor_weight(self):
        # The graph Laplacian of a 6 x 6 grid in shuffled order is singular,
        # so rho_gs is 1; its power loop reads 0.9999999999999187.
        order = list(range(36))
        random.Random(0).shuffle(order)
        a = SparseMatrix.from_rows(permuted(five_point(6, lambda i, j: -1.0, 1.0), order))
        profile = classify(a)
        assert 1.0 - 1e-9 <= profile.rho_gauss_seidel < 1.0
        assert profile.sor_omega is None and profile.rho_sor is None
        assert profile.recommendation == "none convergent"

    def test_sor_radius_one_up_to_rounding_is_not_convergent(self):
        # The largest double below 1 is within the tie tolerance of 1.
        profile = profile_with(1.2, 1.0, 0.9999999999999999, sor_omega=1.2)
        with pytest.raises(NoConvergentMethodError, match="1 or more, to within 1e-9"):
            select_method(profile)


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


def five_point(m, coupling, dominance=1.25):
    """Rows of a 5-point stencil on an m x m grid in natural order:
    ``coupling(i, j)`` gives A_ij for each grid neighbour j of i, and the
    diagonal is ``dominance`` times the off-diagonal row sum, so
    rho_jacobi <= 1 / dominance."""
    n = m * m
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        r, c = divmod(i, m)
        for j, inside in ((i - m, r > 0), (i - 1, c > 0), (i + 1, c < m - 1), (i + m, r < m - 1)):
            if inside:
                rows[i][j] = coupling(i, j)
        rows[i][i] = dominance * sum(abs(v) for v in rows[i])
    return rows


def nine_point(m, coupling, dominance=1.25):
    """Rows of a 9-point stencil on an m x m grid in natural order, built
    like ``five_point``; not consistently ordered once m >= 2."""
    n = m * m
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        r, c = divmod(i, m)
        for j in range(n):
            s, t = divmod(j, m)
            if j != i and abs(r - s) <= 1 and abs(c - t) <= 1:
                rows[i][j] = coupling(i, j)
        rows[i][i] = dominance * sum(abs(v) for v in rows[i])
    return rows


def convection_diffusion(m, peclet):
    """The upwind grids of the benchmark's general-sparse workload: flow
    along (2, 1) at mesh Peclet number ``peclet``."""
    px, py = peclet, peclet / 2.0
    n = m * m
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        r, c = divmod(i, m)
        rows[i][i] = 4.0 + 2.0 * px + 2.0 * py
        if r > 0:
            rows[i][i - m] = -(1.0 + 2.0 * py)
        if c > 0:
            rows[i][i - 1] = -(1.0 + 2.0 * px)
        if c < m - 1:
            rows[i][i + 1] = -1.0
        if r < m - 1:
            rows[i][i + m] = -1.0
    return rows


def permuted(rows, order):
    """P A P^T: row and column k of the result are ``order[k]`` of A."""
    return [[rows[i][j] for j in order] for i in order]


def red_black(m):
    """The grid points with r + c even first, then the others."""
    return sorted(range(m * m), key=lambda i: sum(divmod(i, m)) % 2)


def eig_radius(a, method):
    return float(np.abs(np.linalg.eigvals(_iteration_array(a.split, method))).max())


def symmetrised_radius(a):
    """max |eigvalsh| of the dense B_ij = sign(T_ij) sqrt(T_ij T_ji), which
    is similar to T_jacobi when its spectrum is certified real."""
    t = _iteration_array(a.split, Method.jacobi())
    b = np.sign(t) * np.sqrt(t * t.T)
    return float(np.abs(np.linalg.eigvalsh(b)).max())


def lanczos(a):
    split = a.split
    return _lanczos_radius(split.diag.entries, split.couplings, _CLASSIFY_TOL, _LANCZOS_MAX_DIM)


def measured_profile(a):
    """The three power-loop estimates (Jacobi, Gauss-Seidel, and SOR at
    Young's weight from the Gauss-Seidel estimate), and that weight.  SOR
    and its weight are None when the Gauss-Seidel estimate is not below 1
    by more than the tie tolerance 1e-9."""

    def power(method):
        return _power_radius(_iteration_array(a.split, method), _CLASSIFY_TOL, _MAX_POWER_STEPS)

    jacobi, gauss_seidel = power(Method.jacobi()), power(Method.gauss_seidel())
    if gauss_seidel.rho >= 1.0 - 1e-9:
        return jacobi, gauss_seidel, None, None
    omega = optimal_omega(math.sqrt(gauss_seidel.rho))
    return jacobi, gauss_seidel, power(Method.sor(omega)), omega


def assert_ordering_search_is_exact(rows):
    """``_ordering_search`` agrees with the shortest-path oracle, and the
    levels it returns satisfy the definition entry by entry."""
    found = _ordering_search(SparseMatrix.from_rows(rows).split.couplings)
    assert (found is not None) == consistently_ordered(rows)
    if found is not None:
        gamma, tree = found
        n = len(rows)
        for i in range(n):
            for j in range(n):
                if i != j and rows[i][j] != 0.0:
                    assert gamma[j] - gamma[i] == (1 if j > i else -1)
        # A spanning forest of the coupling graph, parents first.
        children = [c for _, c in tree]
        assert len(set(children)) == len(children)
        seen = set(range(n)) - set(children)
        for p, c in tree:
            assert p in seen and (rows[p][c] != 0.0 or rows[c][p] != 0.0)
            seen.add(c)
    return found


def random_coupling(rng, symmetric, signed=False):
    """A coupling function with off-diagonals in [-2, -0.1], or with either
    sign when ``signed``, drawn once per entry and, when ``symmetric``,
    shared by A_ij and A_ji."""
    cache = {}

    def coupling(i, j):
        key = (min(i, j), max(i, j)) if symmetric else (i, j)
        if key not in cache:
            sign = rng.choice((-1.0, 1.0)) if signed else -1.0
            cache[key] = sign * rng.uniform(0.1, 2.0)
        return cache[key]

    return coupling


@st.composite
def ordered_matrices(draw, symmetric):
    """Rows of a consistently ordered matrix: a 5-point grid in natural or
    red-black order, or a tridiagonal matrix."""
    coupling = random_coupling(draw(st.randoms(use_true_random=False)), symmetric)
    dominance = draw(st.floats(min_value=1.02, max_value=3.0))
    shape = draw(st.sampled_from(["natural", "red-black", "tridiagonal"]))
    if shape == "tridiagonal":
        n = draw(st.integers(2, 12))
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = coupling(i, i + 1)
            rows[i + 1][i] = coupling(i + 1, i)
        for i in range(n):
            rows[i][i] = dominance * sum(abs(v) for v in rows[i])
        return rows
    m = draw(st.integers(2, 5))
    rows = five_point(m, coupling, dominance)
    return rows if shape == "natural" else permuted(rows, red_black(m))


@st.composite
def search_matrices(draw):
    """A CSR matrix whose couplings the ordering search walks: a 5-point
    grid in natural, red-black or random order, a 9-point grid, a
    tridiagonal matrix, or random rows.  Each coupling is -1, a random
    value, +0.0 or -0.0, and some lower ones are dropped so that their
    upper partners are one-sided; a random subset of the +0.0 entries is
    stored."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(
        st.sampled_from(
            ["natural", "red-black", "random order", "nine-point", "tridiagonal", "random rows"]
        )
    )
    m = draw(st.integers(2, 5))

    def coupling(i, j):
        return rng.choice([-1.0, 0.0, -0.0, rng.uniform(-2.0, 2.0)])

    if shape == "tridiagonal":
        n = m * m
        rows = [[coupling(i, j) if abs(i - j) == 1 else 0.0 for j in range(n)] for i in range(n)]
    elif shape == "random rows":
        n = draw(st.integers(1, 8))
        rows = [[coupling(i, j) if rng.random() < 0.4 else 0.0 for j in range(n)] for i in range(n)]
    elif shape == "nine-point":
        rows = nine_point(m, coupling)
    else:
        rows = five_point(m, coupling)
        order = list(range(m * m))
        if shape == "red-black":
            order = red_black(m)
        elif shape == "random order":
            rng.shuffle(order)
        rows = permuted(rows, order)
    n = len(rows)
    one_sided = draw(st.floats(min_value=0.0, max_value=0.5))
    for i in range(n):
        rows[i][i] = 4.0
        for j in range(i):
            if rng.random() < one_sided:
                rows[i][j] = 0.0
    return with_stored_zeros(draw, rows)


class TestYoungTheory:
    """Consistently ordered matrices: rho_gs = rho_j^2 and, with a real
    Jacobi spectrum, SOR at omega* with radius omega* - 1."""

    @pytest.mark.parametrize(
        "name", ["convdiff5", "poisson10", "warm-up grid 4x4", "benchmark grid 18x18"]
    )
    def test_radii_match_dense_eigenvalues(self, fixtures_dir, name):
        if name.endswith("4x4"):
            a = SparseMatrix.from_rows(convection_diffusion(4, 0.1))
        elif name.endswith("18x18"):
            a = SparseMatrix.from_rows(convection_diffusion(18, 0.2))
        else:
            a = parse_matrix((fixtures_dir / f"{name}.mat").read_text())
        profile = classify(a)
        assert profile.omega_star is not None and profile.radii_converged
        assert profile.sor_omega == profile.omega_star
        assert profile.recommendation == Method.sor(profile.omega_star)
        want_g = eig_radius(a, Method.gauss_seidel())
        assert abs(profile.rho_gauss_seidel - want_g) <= 1e-9 * want_g
        # T at omega* has a 2 x 2 Jordan block, which limits eigvals itself.
        want_s = eig_radius(a, Method.sor(profile.omega_star))
        assert abs(profile.rho_sor - want_s) <= 1e-6

    def test_tri200_weight_is_at_or_just_past_the_true_optimum(self, fixtures_dir):
        a = parse_matrix((fixtures_dir / "tri200.mat").read_text())
        profile = classify(a)
        assert profile.omega_star is not None and profile.radii_converged
        want_g = eig_radius(a, Method.gauss_seidel())
        assert abs(profile.rho_gauss_seidel - want_g) <= 1e-9 * want_g
        # All 200 eigenvalues of T at omega* lie on one circle of a far
        # from normal matrix, where eigvals is off by about 2e-4.  The exact
        # Jacobi radius instead comes from the symmetric tridiagonal matrix
        # similar to T_jacobi; at or past the optimal weight Young's theory
        # gives the SOR radius omega - 1 exactly.
        rows = to_rows(a)
        n = len(rows)
        b = np.zeros((n, n))
        for i in range(n - 1):
            b[i, i + 1] = b[i + 1, i] = math.sqrt(
                rows[i][i + 1] * rows[i + 1][i] / (rows[i][i] * rows[i + 1][i + 1])
            )
        exact = float(np.linalg.eigvalsh(b).max())
        assert 0.0 <= profile.omega_star - optimal_omega(exact) <= 1e-8
        assert profile.rho_sor == profile.omega_star - 1.0

    @settings(max_examples=150)
    @given(search_matrices())
    def test_search_visits_rows_in_row_scan_order_property(self, a):
        # ``_symmetrisable`` sums log ratios along the tree, so the levels
        # and the tree must match edge for edge, not only as sets.
        assert _ordering_search(a.split.couplings) == ordering_search_by_row_scan(a.split)

    def test_ring_normal_matrix_runs_no_ordering_search(self, monkeypatch):
        calls = []

        def counting(couplings):
            calls.append(couplings)
            return _ordering_search(couplings)

        monkeypatch.setattr(convergence_analysis, "_ordering_search", counting)
        classify(reduce(*ring_system([1.0, -1.0] * 16)).normal_matrix)
        assert calls == []
        classify(SparseMatrix.from_rows(convection_diffusion(3, 0.1)))
        assert len(calls) == 1

    def test_certified_matrices_build_no_jacobi_iteration_array(self, fixtures_dir, monkeypatch):
        built = []

        def counting(split, method):
            built.append(method.tag)
            return _iteration_array(split, method)

        monkeypatch.setattr(convergence_analysis, "_iteration_array", counting)
        # Consistently ordered and symmetrisable: no iteration matrix at all.
        classify(SparseMatrix.from_rows(convection_diffusion(6, 0.2)))
        assert built == []
        # Symmetric but not consistently ordered: Lanczos for Jacobi, the
        # power loops for Gauss-Seidel and SOR.
        classify(parse_matrix((fixtures_dir / "ninept4.mat").read_text()))
        assert built == ["gauss-seidel", "sor"]
        built.clear()
        classify(SEC21)
        assert built == ["jacobi", "gauss-seidel", "sor"]

    def test_broken_cycle_keeps_the_squared_radius_but_no_optimal_weight(self):
        rows = five_point(3, lambda i, j: -1.0)
        rows[0][1] *= 1.1
        a = SparseMatrix.from_rows(rows)
        assert _ordering_search(a.split.couplings) is not None
        assert not _symmetrisable(a.split.couplings, _ordering_search(a.split.couplings)[1])
        profile = classify(a)
        assert profile.rho_gauss_seidel == profile.rho_jacobi**2
        assert profile.omega_star is None
        assert profile.sor_omega == optimal_omega(math.sqrt(profile.rho_gauss_seidel))
        assert abs(profile.rho_gauss_seidel - eig_radius(a, Method.gauss_seidel())) <= 1e-9

    def test_one_sided_coupling_has_no_real_spectrum_certificate(self):
        # Consistently ordered, but A_21 has no partner A_12.
        a = SparseMatrix.from_rows([[2.0, 0.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        profile = classify(a)
        assert profile.rho_gauss_seidel == profile.rho_jacobi**2
        assert profile.omega_star is None

    @settings(max_examples=30)
    @given(st.booleans().flatmap(lambda sym: ordered_matrices(sym)))
    def test_consistently_ordered_property(self, rows):
        assert assert_ordering_search_is_exact(rows) is not None
        a = SparseMatrix.from_rows(rows)
        profile = classify(a)
        assert profile.rho_gauss_seidel == profile.rho_jacobi**2
        assert profile.omega_star is not None or not profile.is_symmetric
        if profile.radii_converged:
            want_g = eig_radius(a, Method.gauss_seidel())
            assert abs(profile.rho_gauss_seidel - want_g) <= 1e-9 * max(want_g, 1e-3)
        if profile.omega_star is not None:
            want_s = eig_radius(a, Method.sor(profile.omega_star))
            assert abs(profile.rho_sor - want_s) <= 1e-6

    @settings(max_examples=30)
    @given(
        ordered_matrices(symmetric=True),
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=25, max_size=25),
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=25, max_size=25),
    )
    def test_symmetrisable_property(self, rows, d1, d2):
        # D1 S D2 with positive diagonals D1, D2 is symmetrised by
        # sqrt(D2 / D1) and keeps S's ordering.
        n = len(rows)
        rows = [[d1[i] * rows[i][j] * d2[j] for j in range(n)] for i in range(n)]
        a = SparseMatrix.from_rows(rows)
        _, tree = assert_ordering_search_is_exact(rows)
        assert _symmetrisable(a.split.couplings, tree)
        profile = classify(a)
        assert profile.omega_star is not None
        want_g = eig_radius(a, Method.gauss_seidel())
        assert abs(profile.rho_gauss_seidel - want_g) <= 1e-9 * max(want_g, 1e-3)
        want_s = eig_radius(a, Method.sor(profile.omega_star))
        assert abs(profile.rho_sor - want_s) <= 1e-6

    @given(
        st.sampled_from(["nine-point", "permuted"]),
        st.integers(3, 4),
        st.randoms(use_true_random=False),
        st.floats(min_value=1.02, max_value=3.0),
    )
    def test_rejected_matrices_keep_the_measured_profile_property(self, shape, m, rng, dominance):
        coupling = random_coupling(rng, symmetric=True)
        n = m * m
        if shape == "nine-point":
            rows = nine_point(m, coupling, dominance)
        else:
            order = list(range(n))
            rng.shuffle(order)
            rows = permuted(five_point(m, coupling, dominance), order)
        if assert_ordering_search_is_exact(rows) is not None:
            return
        self.assert_measured_profile(SparseMatrix.from_rows(rows))

    def test_sec21_keeps_the_measured_profile(self):
        assert _ordering_search(SEC21.split.couplings) is None
        assert not consistently_ordered(SEC21_ROWS)
        self.assert_measured_profile(SEC21)

    @pytest.mark.parametrize("name", ["sec21", "ninept4"])
    def test_fixture_radii_at_youngs_weight_match_dense_eigenvalues(self, fixtures_dir, name):
        a = parse_matrix((fixtures_dir / f"{name}.mat").read_text())
        profile = classify(a)
        assert profile.omega_star is None and profile.radii_converged
        assert profile.sor_omega == optimal_omega(math.sqrt(profile.rho_gauss_seidel))
        for method, rho in (
            (Method.jacobi(), profile.rho_jacobi),
            (Method.gauss_seidel(), profile.rho_gauss_seidel),
            (Method.sor(profile.sor_omega), profile.rho_sor),
        ):
            assert abs(rho - eig_radius(a, method)) <= 1e-9
        assert profile.recommendation == Method.sor(profile.sor_omega)

    @staticmethod
    def assert_measured_profile(a):
        """Gauss-Seidel, and SOR at Young's weight from the Gauss-Seidel
        estimate, come from the power loops bit for bit.  rho_jacobi does
        too unless the matrix is symmetric with a positive diagonal, which
        certifies its Jacobi spectrum real: then it is the Lanczos
        estimate, checked against eigvalsh."""
        profile = classify(a)
        jacobi, gauss_seidel, sor, omega = measured_profile(a)
        if profile.is_symmetric and all(d > 0.0 for d in a.split.diag.entries):
            jacobi = lanczos(a)
            want = symmetrised_radius(a)
            assert abs(jacobi.rho - want) <= _CLASSIFY_TOL * want
        assert profile.rho_jacobi == jacobi.rho
        assert profile.rho_gauss_seidel == gauss_seidel.rho
        assert profile.omega_star is None and profile.sor_omega == omega
        estimates = (jacobi, gauss_seidel) if sor is None else (jacobi, gauss_seidel, sor)
        assert profile.rho_sor == (None if sor is None else sor.rho)
        assert profile.radii_converged == all(est.converged for est in estimates)


@st.composite
def certified_matrices(draw):
    """Rows of a matrix with a positive diagonal whose Jacobi spectrum is
    certified real: symmetric 5-point grids in natural or random order,
    symmetric 9-point grids, D1 S D2 scalings of a 5-point grid, two
    disconnected grids, and matrices with no off-diagonal at all.  The
    couplings are all negative or of either sign."""
    rng = draw(st.randoms(use_true_random=False))
    signed = draw(st.booleans())
    coupling = random_coupling(rng, symmetric=True, signed=signed)
    dominance = draw(st.floats(min_value=1.0, max_value=3.0))
    m = draw(st.integers(2, 5))
    kind = draw(
        st.sampled_from(["natural", "permuted", "nine-point", "scaled", "blocks", "diagonal"])
    )
    if kind == "diagonal":
        n = draw(st.integers(1, 6))
        return [[rng.uniform(0.5, 2.0) if i == j else 0.0 for j in range(n)] for i in range(n)]
    if kind == "nine-point":
        return nine_point(m, coupling, dominance)
    rows = five_point(m, coupling, dominance)
    n = m * m
    if kind == "permuted":
        order = list(range(n))
        rng.shuffle(order)
        return permuted(rows, order)
    if kind == "scaled":
        d1 = [rng.uniform(0.5, 2.0) for _ in range(n)]
        d2 = [rng.uniform(0.5, 2.0) for _ in range(n)]
        return [[d1[i] * rows[i][j] * d2[j] for j in range(n)] for i in range(n)]
    if kind == "blocks":
        other = nine_point(draw(st.integers(2, 4)), random_coupling(rng, True, signed))
        k = len(other)
        return [r + [0.0] * k for r in rows] + [[0.0] * n + r for r in other]
    return rows


class TestLanczosRadius:
    """rho_jacobi by Lanczos on the symmetrised Jacobi matrix."""

    @settings(max_examples=60)
    @given(certified_matrices())
    @example([[3.0]])
    def test_matches_dense_eigenvalues_property(self, rows):
        a = SparseMatrix.from_rows(rows)
        est = lanczos(a)
        assert est == lanczos(a)
        if all(v == 0.0 for i, r in enumerate(rows) for j, v in enumerate(r) if i != j):
            assert (est.rho, est.iterations_used, est.converged) == (0.0, 0, True)
            assert math.copysign(1.0, est.rho) == 1.0
            return
        assert est.converged
        for want in (symmetrised_radius(a), eig_radius(a, Method.jacobi())):
            assert abs(est.rho - want) <= _CLASSIFY_TOL * want
            # The raise classify applies before omega_star.
            assert est.rho * (1.0 + _CLASSIFY_TOL) >= want

    def test_cap_short_of_n_is_unconverged(self):
        a = SparseMatrix.from_rows(five_point(6, lambda i, j: -1.0))
        est = _lanczos_radius(a.split.diag.entries, a.split.couplings, _CLASSIFY_TOL, 4)
        assert est.iterations_used == 4 and not est.converged
        assert est.rho < symmetrised_radius(a)

    def test_unconverged_lanczos_clears_radii_converged(self, monkeypatch):
        monkeypatch.setattr(convergence_analysis, "_LANCZOS_MAX_DIM", 4)
        profile = classify(SparseMatrix.from_rows(five_point(6, lambda i, j: -1.0)))
        assert not profile.radii_converged
        assert profile.omega_star is not None


class TestYoungsWeight:
    """Every profiled SOR weight is optimal_omega(sqrt(rho_gauss_seidel)),
    up to the raise that omega_star takes from a Lanczos rho_jacobi."""

    @settings(max_examples=60)
    @given(certified_matrices())
    def test_weight_from_gauss_seidel_matches_omega_star_property(self, rows):
        profile = classify(SparseMatrix.from_rows(rows))
        if profile.rho_gauss_seidel >= 1.0 - 1e-9:
            assert profile.sor_omega is None and profile.rho_sor is None
            return
        omega_y = optimal_omega(math.sqrt(profile.rho_gauss_seidel))
        if profile.omega_star is None:
            assert profile.sor_omega == omega_y
        else:
            # The only gap is the raise of rho_jacobi by its tolerance 1e-10,
            # which d omega / d rho magnifies as rho_jacobi nears 1 (to 2e-9
            # relative at rho_jacobi = 0.999), so the raise is replayed here.
            assert profile.sor_omega == profile.omega_star
            assert omega_y <= profile.omega_star
            raised = optimal_omega(math.sqrt(profile.rho_gauss_seidel) * (1.0 + _CLASSIFY_TOL))
            assert abs(raised - profile.omega_star) <= 1e-12 * profile.omega_star
