"""Sweeps, iteration-matrix forms, and the solve driver."""

import math
import random
import re
import tracemalloc
import warnings

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import bits, dense_entries, identity, ring_system, to_rows, tridiag, vec_bits
from oracles import solve_direct
from ringsolve import (
    DivergenceError,
    MatrixProfile,
    Method,
    SolverConfig,
    SparseMatrix,
    Vector,
    ZeroDiagonalError,
    classify,
    gauss_seidel_sweep,
    iteration_matrix,
    jacobi_sweep,
    matvec,
    norm2,
    reduce,
    residual,
    solve,
    sor_sweep,
    spectral_radius,
    split_dlu,
    structure_flags,
)
from ringsolve.convergence_analysis import _power_radius
from ringsolve import stationary_solvers
from ringsolve.stationary_solvers import (
    _check_iterate,
    _iteration_array,
    _kernel_rows,
    _pipelined,
    _residual_norm,
    _sweep_fn,
)

SEC21 = SparseMatrix.from_rows([[5.0, -2.0, 3.0], [-3.0, 9.0, 1.0], [-2.0, -1.0, -7.0]])
SEC21_B = Vector((-1.0, 2.0, 3.0))


def fake_profile(rho_j=None, rho_g=None, rho_s=None, sor_omega=None):
    """A hand-built profile for driving the solve schedule in isolation."""
    return MatrixProfile(
        is_symmetric=False,
        is_strictly_diag_dominant=False,
        is_weakly_diag_dominant=False,
        is_tridiagonal=False,
        is_positive_definite=False,
        has_zero_diagonal=False,
        rho_jacobi=rho_j,
        rho_gauss_seidel=rho_g,
        rho_sor=rho_s,
        omega_star=None,
        sor_omega=sor_omega,
        recommendation="none convergent",
    )


class TestMethod:
    def test_tags(self):
        assert Method.jacobi().tag == "jacobi"
        assert Method.gauss_seidel().tag == "gauss-seidel"
        assert Method.sor(1.5) == Method("sor", 1.5)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown method tag"):
            Method("sorr")

    @pytest.mark.parametrize("omega", [0.0, 2.0, -0.5, 2.5])
    def test_sor_weight_range_quotes_necessary_condition(self, omega):
        with pytest.raises(ValueError, match="0 < omega < 2"):
            Method.sor(omega)

    def test_sor_requires_weight(self):
        with pytest.raises(ValueError, match="requires a relaxation weight"):
            Method("sor")

    def test_weight_rejected_for_other_methods(self):
        with pytest.raises(ValueError, match="omega only applies to SOR"):
            Method("jacobi", 1.0)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.method is None
        assert config.eta == 1e-3
        assert config.max_iterations == 100000
        assert config.history_stride == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"eta": 0.0}, {"eta": -1.0}, {"max_iterations": 0}, {"history_stride": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSweeps:
    def test_jacobi_from_zero_divides_by_diagonal(self):
        split = split_dlu(SEC21)
        x1 = jacobi_sweep(split, Vector.zeros(3), SEC21_B)
        assert x1.entries == (-0.2, 2.0 / 9.0, -3.0 / 7.0)

    def test_jacobi_second_sweep_hand_values(self):
        split = split_dlu(SEC21)
        x2 = jacobi_sweep(split, jacobi_sweep(split, Vector.zeros(3), SEC21_B), SEC21_B)
        want = (0.146031746031746, 0.2031746031746032, -0.4031746031746032)
        assert max(abs(a - b) for a, b in zip(x2.entries, want)) < 1e-12

    def test_jacobi_reads_only_previous_iterate(self):
        # A lower-triangular coupling: if the sweep leaked current values,
        # entry 1 would see the updated entry 0 instead of the old one.
        a = SparseMatrix.from_rows([[1.0, 0.0], [1.0, 1.0]])
        out = jacobi_sweep(split_dlu(a), Vector((10.0, 0.0)), Vector((1.0, 0.0)))
        assert out.entries == (1.0, -10.0)

    def test_one_by_one_system(self):
        split = split_dlu(SparseMatrix.from_rows([[4.0]]))
        b = Vector((8.0,))
        for out in (
            jacobi_sweep(split, Vector((123.0,)), b),
            gauss_seidel_sweep(split, Vector((-9.0,)), b),
        ):
            assert out.entries == (2.0,)

    def test_gauss_seidel_uses_current_values(self):
        split = split_dlu(SEC21)
        out = gauss_seidel_sweep(split, Vector.zeros(3), SEC21_B)
        want = (-0.2, 0.15555555555555556, -0.3936507936507937)
        assert max(abs(a - b) for a, b in zip(out.entries, want)) < 1e-15

    def test_gauss_seidel_exact_on_diagonal_system(self):
        split = split_dlu(SparseMatrix.from_rows([[2.0, 0.0], [0.0, 5.0]]))
        out = gauss_seidel_sweep(split, Vector.zeros(2), Vector((4.0, 10.0)))
        assert out.entries == (2.0, 2.0)

    def test_sor_hand_values(self):
        split = split_dlu(SEC21)
        out = sor_sweep(split, Vector.zeros(3), SEC21_B, 1.1)
        want = (-0.22, 0.16377777777777777, -0.42802222222222224)
        assert max(abs(a - b) for a, b in zip(out.entries, want)) < 1e-15

    def test_sor_weight_one_equals_gauss_seidel(self):
        # Equal under ==, not bit for bit: where Gauss-Seidel returns -0.0,
        # SOR may return +0.0 (TestSweepOracle pins such a case).
        split = split_dlu(SEC21)
        rnd = random.Random(7)
        for _ in range(10):
            x = Vector(tuple(rnd.uniform(-3, 3) for _ in range(3)))
            assert (
                sor_sweep(split, x, SEC21_B, 1.0).entries
                == gauss_seidel_sweep(split, x, SEC21_B).entries
            )

    def test_sor_weight_zero_leaves_iterate_unchanged(self):
        split = split_dlu(SEC21)
        x = Vector((0.25, -1.5, 3.125))
        assert sor_sweep(split, x, SEC21_B, 0.0).entries == x.entries

    def test_zero_diagonal_names_row(self):
        split = split_dlu(SparseMatrix.from_rows([[1.0, 2.0], [3.0, 0.0]]))
        with pytest.raises(ZeroDiagonalError, match="zero diagonal entry at row 1"):
            jacobi_sweep(split, Vector.zeros(2), Vector.zeros(2))

    def test_dimension_mismatch(self):
        split = split_dlu(SEC21)
        with pytest.raises(ValueError, match="3 unknowns"):
            jacobi_sweep(split, Vector.zeros(2), SEC21_B)


def _textbook_parts(split):
    n = len(split.diag)
    lower = [list(split.strict_lower.row_items(i)) for i in range(n)]
    upper = [list(split.strict_upper.row_items(i)) for i in range(n)]
    for i, d in enumerate(split.diag.entries):
        if d == 0.0:
            raise ZeroDiagonalError(f"zero diagonal entry at row {i}")
    return list(split.diag.entries), lower, upper


def textbook_jacobi(split, x, b):
    d, lower, upper = _textbook_parts(split)
    out = []
    for i in range(len(d)):
        acc = b[i]
        for j, v in lower[i]:
            acc += v * x[j]
        for j, v in upper[i]:
            acc += v * x[j]
        out.append(acc / d[i])
    return out


def textbook_gauss_seidel(split, x, b):
    d, lower, upper = _textbook_parts(split)
    out = list(x)
    for i in range(len(d)):
        acc = b[i]
        for j, v in lower[i]:
            acc += v * out[j]
        for j, v in upper[i]:
            acc += v * out[j]
        out[i] = acc / d[i]
    return out


def textbook_sor(split, x, b, omega):
    d, lower, upper = _textbook_parts(split)
    out = list(x)
    for i in range(len(d)):
        acc = b[i]
        for j, v in lower[i]:
            acc += v * out[j]
        for j, v in upper[i]:
            acc += v * out[j]
        out[i] = (1.0 - omega) * out[i] + omega * (acc / d[i])
    return out


# Signed zeros, exact cancellations and products that underflow to a zero.
signed_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e-200, -1e-200]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
nonzero_diagonal = st.one_of(
    st.sampled_from([1.0, -1.0, 4.0, -0.5]),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-0.01),
)
weights = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)
)


@st.composite
def csr_systems(draw, diagonal=nonzero_diagonal, entries=signed_entries):
    """(A, x, b): a square CSR matrix storing a random subset of its
    off-diagonal entries, ±0.0 among them, and vectors with signed zeros."""
    n = draw(st.integers(1, 6))
    offsets, cols, vals = [0], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                cols.append(j)
                vals.append(draw(diagonal))
            elif draw(st.booleans()):
                cols.append(j)
                vals.append(draw(entries))
        offsets.append(len(vals))
    a = SparseMatrix(n, n, tuple(offsets), tuple(cols), tuple(vals))
    x = Vector(tuple(draw(st.lists(signed_entries, min_size=n, max_size=n))))
    b = Vector(tuple(draw(st.lists(signed_entries, min_size=n, max_size=n))))
    return a, x, b


class TestSweepOracle:
    """The sweeps against textbook CSR loops, bit for bit."""

    @given(csr_systems(), weights)
    def test_sweeps_match_textbook_loops(self, system, omega):
        a, x, b = system
        split = split_dlu(a)
        xs, bs = x.entries, b.entries
        assert vec_bits(jacobi_sweep(split, x, b)) == vec_bits(textbook_jacobi(split, xs, bs))
        assert vec_bits(gauss_seidel_sweep(split, x, b)) == vec_bits(
            textbook_gauss_seidel(split, xs, bs)
        )
        assert vec_bits(sor_sweep(split, x, b, omega)) == vec_bits(
            textbook_sor(split, xs, bs, omega)
        )

    @given(csr_systems(diagonal=st.one_of(st.sampled_from([0.0, -0.0]), nonzero_diagonal)))
    def test_zero_diagonal_names_the_same_row(self, system):
        a, x, b = system
        split = split_dlu(a)
        zero_rows = [i for i, d in enumerate(split.diag.entries) if d == 0.0]
        assume(zero_rows)
        message = f"zero diagonal entry at row {zero_rows[0]}$"
        with pytest.raises(ZeroDiagonalError, match=message):
            textbook_jacobi(split, x.entries, b.entries)
        for sweep in (jacobi_sweep, gauss_seidel_sweep):
            with pytest.raises(ZeroDiagonalError, match=message):
                sweep(split, x, b)
        with pytest.raises(ZeroDiagonalError, match=message):
            sor_sweep(split, x, b, 1.5)
        # The flags read the split that ``solve`` reuses, and only report it.
        assert structure_flags(a)["has_zero_diagonal"]
        for method in (Method.jacobi(), Method.sor(1.5)):
            with pytest.raises(ZeroDiagonalError, match=message):
                solve(a, b, SolverConfig(method=method))

    def test_weight_one_may_differ_from_gauss_seidel_in_the_sign_of_zero(self):
        # (1 - 1) * old is +0.0 for a positive old value, and +0.0 + -0.0 is
        # +0.0; the Gauss-Seidel update keeps the -0.0.
        split = split_dlu(SparseMatrix.from_rows([[1.0]]))
        x, b = Vector((1.0,)), Vector((-0.0,))
        assert vec_bits(gauss_seidel_sweep(split, x, b)) == vec_bits([-0.0])
        assert vec_bits(sor_sweep(split, x, b, 1.0)) == vec_bits([0.0])


def textbook_iteration_matrix(a, method, b=None):
    """T (row-major, as a list) and c by scalar forward substitution, one
    column of T at a time."""
    split = split_dlu(a)
    n = len(split.diag)
    d = split.diag.entries
    lower = [list(split.strict_lower.row_items(i)) for i in range(n)]
    upper = [list(split.strict_upper.row_items(i)) for i in range(n)]
    upper_dense = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j, v in upper[i]:
            upper_dense[i][j] = v

    flat = [0.0] * (n * n)
    if method.tag == "jacobi":
        for i in range(n):
            for j, v in lower[i]:
                flat[i * n + j] = v / d[i]
            for j, v in upper[i]:
                flat[i * n + j] = v / d[i]
        c = [bi / di for bi, di in zip(b.entries, d)] if b is not None else [0.0] * n
    else:
        omega = 1.0 if method.tag == "gauss-seidel" else float(method.omega)
        for col in range(n):
            z = [0.0] * n
            for i in range(n):
                if method.tag == "gauss-seidel":
                    rhs = upper_dense[i][col]
                else:
                    rhs = (1.0 - omega) * d[i] if i == col else omega * upper_dense[i][col]
                acc = rhs
                for j, v in lower[i]:
                    acc += omega * v * z[j] if method.tag == "sor" else v * z[j]
                z[i] = acc / d[i]
            for i in range(n):
                flat[i * n + col] = z[i]
        c = [0.0] * n
        if b is not None:
            for i in range(n):
                acc = b[i] if method.tag == "gauss-seidel" else omega * b[i]
                for j, v in lower[i]:
                    acc += omega * v * c[j] if method.tag == "sor" else v * c[j]
                c[i] = acc / d[i]
    return flat, c


methods = st.one_of(
    st.sampled_from([Method.jacobi(), Method.gauss_seidel(), Method.sor(1.0), Method.sor(1.5)]),
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True).map(Method.sor),
)
# Entries whose products and quotients overflow to inf or turn into NaN.
extreme_entries = st.one_of(signed_entries, st.sampled_from([1e300, -1e300, 1e150]))
extreme_diagonal = st.one_of(nonzero_diagonal, st.sampled_from([1e-300, -1e-200]))


class TestIterationArrayOracle:
    """``_iteration_array`` against the column-by-column substitution."""

    @given(csr_systems(), methods)
    def test_matches_column_substitution_bit_for_bit(self, system, method):
        a, _, b = system
        want_t, want_c = textbook_iteration_matrix(a, method, b)
        t = _iteration_array(split_dlu(a), method)
        assert vec_bits(t.ravel().tolist()) == vec_bits(want_t)
        im = iteration_matrix(a, method, b)
        assert vec_bits(dense_entries(im.T)) == vec_bits(want_t)
        assert vec_bits(im.c) == vec_bits(want_c)

    @given(csr_systems(diagonal=extreme_diagonal, entries=extreme_entries), methods)
    def test_non_finite_entry_named_by_its_row_major_index(self, system, method):
        a, _, _ = system
        want_t, _ = textbook_iteration_matrix(a, method)
        bad = [k for k, v in enumerate(want_t) if not math.isfinite(v)]
        if bad:
            message = f"matrix entry {bad[0]} is not finite: {want_t[bad[0]]!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _iteration_array(split_dlu(a), method)
        else:
            t = _iteration_array(split_dlu(a), method)
            assert vec_bits(t.ravel().tolist()) == vec_bits(want_t)

    @given(csr_systems(), methods)
    def test_power_iteration_same_on_array_and_csr_matrix(self, system, method):
        a, _, _ = system
        t = _iteration_array(split_dlu(a), method)
        from_array = _power_radius(t, 1e-10, 500)
        from_csr = spectral_radius(iteration_matrix(a, method).T, tol=1e-10, max_steps=500)
        assert from_array == from_csr
        assert bits(from_array.rho) == bits(from_csr.rho)

    def test_zero_diagonal_rejected(self):
        a = SparseMatrix.from_rows([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroDiagonalError, match="row 1"):
            _iteration_array(split_dlu(a), Method.sor(1.5))


class TestIterationMatrix:
    def test_jacobi_form_of_symmetric_pair(self):
        im = iteration_matrix(SparseMatrix.from_rows([[2.0, 1.0], [1.0, 2.0]]), Method.jacobi())
        assert to_rows(im.T) == [[0.0, -0.5], [-0.5, 0.0]]
        assert im.c.entries == (0.0, 0.0)

    @pytest.mark.parametrize("method", [Method.jacobi(), Method.gauss_seidel()])
    def test_diagonal_matrix_gives_zero_t(self, method):
        a = SparseMatrix.from_rows([[2.0, 0.0], [0.0, -3.0]])
        im = iteration_matrix(a, method, Vector((4.0, 9.0)))
        assert dense_entries(im.T) == [0.0] * 4
        assert im.c.entries == (2.0, -3.0)

    def test_diagonal_matrix_sor_shrinks_toward_identity_map(self):
        # With no off-diagonal coupling the SOR map is x <- (1-w)x + w D^-1 b.
        a = SparseMatrix.from_rows([[2.0, 0.0], [0.0, -3.0]])
        im = iteration_matrix(a, Method.sor(1.3), Vector((4.0, 9.0)))
        assert to_rows(im.T) == [[1.0 - 1.3, 0.0], [0.0, 1.0 - 1.3]]
        assert im.c.entries == (1.3 * 2.0, 1.3 * -3.0)

    def test_sor_at_weight_one_equals_gauss_seidel(self):
        im_gs = iteration_matrix(SEC21, Method.gauss_seidel(), SEC21_B)
        im_sor = iteration_matrix(SEC21, Method.sor(1.0), SEC21_B)
        t_gs, t_sor = dense_entries(im_gs.T), dense_entries(im_sor.T)
        assert max(abs(a - b) for a, b in zip(t_gs, t_sor)) <= 1e-14
        assert max(abs(a - b) for a, b in zip(im_gs.c.entries, im_sor.c.entries)) <= 1e-14

    @pytest.mark.parametrize(
        "method", [Method.jacobi(), Method.gauss_seidel(), Method.sor(1.4)]
    )
    def test_direct_solution_is_fixed_point(self, method):
        im = iteration_matrix(SEC21, method, SEC21_B)
        x = solve_direct(SEC21, SEC21_B)
        t = to_rows(im.T)
        mapped = [sum(t[i][j] * x[j] for j in range(3)) + im.c[i] for i in range(3)]
        assert max(abs(m - v) for m, v in zip(mapped, x.entries)) < 1e-14

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ZeroDiagonalError, match="row 0"):
            iteration_matrix(SparseMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]]), Method.jacobi())


class TestResidual:
    @given(csr_systems())
    def test_solver_norm_matches_public_residual_bit_for_bit(self, system):
        a, x, b = system
        r = residual(a, x, b)
        acc = 0.0
        for v in r.entries:
            acc += v * v
        got = _residual_norm(a.residual_rows, x.entries, b.entries)
        assert bits(got) == bits(math.sqrt(acc))

    def test_zero_guess_gives_rhs(self):
        assert residual(SEC21, Vector.zeros(3), SEC21_B).entries == SEC21_B.entries

    def test_identity_exact(self):
        b = Vector((1.0, -2.0))
        assert residual(identity(2), b, b).entries == (0.0, 0.0)

    def test_direct_solution_has_tiny_residual(self):
        x = solve_direct(SEC21, SEC21_B)
        assert norm2(residual(SEC21, x, SEC21_B)) <= 1e-10 * (1.0 + norm2(SEC21_B))


class TestSolve:
    def test_diagonal_system_converges_in_one_iteration(self):
        a = SparseMatrix.from_rows([[2.0, 0.0], [0.0, 4.0]])
        b = Vector((2.0, 8.0))
        for method in (Method.jacobi(), Method.gauss_seidel(), Method.sor(1.0)):
            report = solve(a, b, SolverConfig(method=method, eta=1e-12))
            assert report.converged
            assert report.iterations_run == 1
            assert report.solution.entries == (1.0, 2.0)

    def test_worked_example_jacobi_matches_direct_oracle(self):
        x_direct = solve_direct(SEC21, SEC21_B)
        report = solve(
            SEC21, SEC21_B, SolverConfig(method=Method.jacobi(), eta=1e-8, max_iterations=10000)
        )
        assert report.converged
        err = max(abs(a - b) for a, b in zip(report.solution.entries, x_direct.entries))
        assert err < 1e-6

    def test_converged_stopping_rule_holds(self):
        report = solve(SEC21, SEC21_B, SolverConfig(method=Method.gauss_seidel(), eta=1e-5))
        assert report.converged
        assert report.final_residual_norm < 1e-5
        assert norm2(residual(SEC21, report.solution, SEC21_B)) == report.final_residual_norm

    def test_auto_method_is_rejected_here(self):
        with pytest.raises(ValueError, match="concrete method"):
            solve(SEC21, SEC21_B, SolverConfig())

    def test_prediction_defers_first_residual_check(self):
        # The iterate is exact after one sweep, but a supplied radius makes
        # the driver wait for the predicted count before checking at all.
        a = SparseMatrix.from_rows([[2.0, 0.0], [0.0, 2.0]])
        b = Vector((2.0, 2.0))
        profile = fake_profile(rho_j=0.5)
        report = solve(a, b, SolverConfig(method=Method.jacobi(), eta=1e-3), profile)
        assert report.predicted_iterations == 13
        assert report.iterations_run == 13
        assert report.converged

    def test_prediction_close_to_observed_on_tridiagonal_system(self):
        a = tridiag(10)
        b = Vector(tuple(float(i % 3 - 1) for i in range(10)))
        profile = classify(a)
        report = solve(a, b, SolverConfig(method=Method.gauss_seidel(), eta=1e-6), profile)
        assert report.converged
        assert report.predicted_iterations is not None
        assert abs(report.iterations_run - report.predicted_iterations) <= max(
            2, 0.25 * report.predicted_iterations
        )

    def test_no_prediction_without_profile(self):
        report = solve(SEC21, SEC21_B, SolverConfig(method=Method.jacobi(), eta=1e-6))
        assert report.predicted_iterations is None
        assert report.predicted_counts == {}

    def test_methods_whose_first_iterate_diverges_are_left_out_of_the_counts(self):
        # T_jacobi has eigenvalues +-1/2, yet the first iterates of Jacobi
        # (x1 = b) and of SOR at its optimal weight 1.0718 pass 1e150;
        # Gauss-Seidel's second entry cancels to 0 exactly.  The matrix is
        # consistently ordered and symmetrisable, so SOR is recommended.
        a = SparseMatrix.from_rows([[1.0, 2.0**-172], [2.0**170, 1.0]])
        b = Vector((2.0**490, 2.0**660))
        profile = classify(a)
        assert profile.recommendation == Method.sor(profile.omega_star)
        assert 0.0 < profile.rho_jacobi < 1.0 and 0.0 < profile.rho_sor < 1.0
        config = SolverConfig(method=Method.gauss_seidel(), eta=1e-3)
        report = solve(a, b, config, profile)
        assert report.converged
        assert report.iterations_run == report.predicted_iterations == 336
        assert report.predicted_counts == {"gauss-seidel": 336}
        for method in (Method.jacobi(), profile.recommendation):
            with pytest.raises(DivergenceError, match=r"^iterate diverged at iteration 1$"):
                solve(a, b, SolverConfig(method=method, eta=1e-3), profile)

    def test_sor_radius_used_only_when_weights_match(self):
        profile = fake_profile(rho_s=0.5, sor_omega=1.5)
        report = solve(SEC21, SEC21_B, SolverConfig(method=Method.sor(1.2), eta=1e-6), profile)
        assert report.predicted_iterations is None
        report = solve(SEC21, SEC21_B, SolverConfig(method=Method.sor(1.5), eta=1e-6), profile)
        assert report.predicted_iterations is not None

    @pytest.mark.parametrize("omega", [0.8, 1.2, 1.9])
    def test_any_sor_weight_predicted_when_profile_has_optimal_weight(self, omega):
        a = tridiag(10)
        b = Vector(tuple(float(i % 3 - 1) for i in range(10)))
        profile = classify(a)
        assert profile.omega_star is not None and omega != profile.sor_omega
        report = solve(a, b, SolverConfig(method=Method.sor(omega), eta=1e-6), profile)
        assert report.converged
        assert report.predicted_iterations is not None
        assert report.iterations_run >= report.predicted_iterations

    def test_divergence_raises_with_iteration_index(self):
        a = SparseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]])
        config = SolverConfig(method=Method.jacobi(), eta=1e-3, max_iterations=10000)
        with pytest.raises(DivergenceError, match=r"diverged at iteration \d+"):
            solve(a, Vector((1.0, 1.0)), config)

    def test_large_sum_with_every_entry_in_bound_does_not_raise(self):
        # The magnitudes sum to 1.8e150, past the bound, but no entry is.
        b = Vector((9e149, 9e149))
        config = SolverConfig(method=Method.jacobi(), eta=1e-3)
        report = solve(identity(2), b, config)
        assert report.converged and report.iterations_run == 1
        assert report.solution == b

    def test_nan_in_last_entry_raises_at_its_iteration(self):
        # Iteration 1 gives (1e10, 1e10, 0); in iteration 2 the last row
        # adds +inf and -inf, so only the last entry turns NaN.
        a = SparseMatrix.from_rows(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1e300, 1e300, 1.0]]
        )
        config = SolverConfig(method=Method.jacobi(), eta=1e-3, max_iterations=10)
        with pytest.raises(DivergenceError, match=r"diverged at iteration 2$"):
            solve(a, Vector((1e10, 1e10, 0.0)), config)

    def test_max_iterations_reports_not_converged(self):
        config = SolverConfig(method=Method.jacobi(), eta=1e-15, max_iterations=5)
        report = solve(SEC21, SEC21_B, config)
        assert not report.converged
        assert report.iterations_run == 5
        assert report.final_residual_norm >= 1e-15

    def test_history_stride_records_every_sth_iteration_plus_final(self):
        config = SolverConfig(
            method=Method.jacobi(), eta=1e-15, max_iterations=10, history_stride=4
        )
        report = solve(SEC21, SEC21_B, config)
        assert [k for k, _ in report.residual_history] == [4, 8, 10]

    def test_history_iterations_strictly_increasing_and_end_at_final(self):
        report = solve(SEC21, SEC21_B, SolverConfig(method=Method.gauss_seidel(), eta=1e-9))
        ks = [k for k, _ in report.residual_history]
        assert ks == sorted(set(ks))
        assert ks[-1] == report.iterations_run
        assert report.residual_history[-1][1] == report.final_residual_norm

    def test_initial_guess_is_used(self):
        x_direct = solve_direct(SEC21, SEC21_B)
        config = SolverConfig(method=Method.gauss_seidel(), eta=1e-10, initial_guess=x_direct)
        report = solve(SEC21, SEC21_B, config)
        assert report.iterations_run == 1

    def test_initial_guess_length_checked(self):
        config = SolverConfig(method=Method.jacobi(), initial_guess=Vector.zeros(2))
        with pytest.raises(ValueError, match="initial guess has 2 entries"):
            solve(SEC21, SEC21_B, config)

    def test_zero_diagonal_rejected(self):
        a = SparseMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ZeroDiagonalError, match="row 0"):
            solve(a, Vector((1.0, 1.0)), SolverConfig(method=Method.jacobi()))

    def test_deterministic_bit_identical_reports(self):
        config = SolverConfig(method=Method.sor(1.3), eta=1e-9)
        first = solve(SEC21, SEC21_B, config)
        second = solve(SEC21, SEC21_B, config)
        assert vec_bits(first.solution) == vec_bits(second.solution)
        assert first.residual_history == second.residual_history
        assert first.iterations_run == second.iterations_run
        assert first.wall_time >= 0.0


def band_matrix(diag, lower, upper, extra=()):
    """CSR storing ``lower[i]`` at (i, i - 1), ``diag[i]`` at (i, i) and
    ``upper[i]`` at (i, i + 1), a None value leaving the entry unstored, plus
    the (i, j, value) triples of ``extra``."""
    n = len(diag)
    entries = {(i, i): diag[i] for i in range(n)}
    for i in range(n):
        if i > 0 and lower[i] is not None:
            entries[i, i - 1] = lower[i]
        if i < n - 1 and upper[i] is not None:
            entries[i, i + 1] = upper[i]
    entries.update({(i, j): v for i, j, v in extra})
    offsets, cols, vals = [0], [], []
    for i in range(n):
        for j in sorted(j for r, j in entries if r == i):
            cols.append(j)
            vals.append(entries[i, j])
        offsets.append(len(vals))
    return SparseMatrix(n, n, tuple(offsets), tuple(cols), tuple(vals))


# Signed zeros; magnitudes whose products overflow to inf or NaN; values
# at and just past the divergence bound; and factors that pass the bound
# a few sweeps into the stretch.
rare_entries = st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e150, -1.5e150, 1e10, -3e9])
rare_diagonal = st.sampled_from([1e200, -1e-200])


@st.composite
def tridiagonal_systems(draw):
    """(d, rows, band, b, x0): a tridiagonal system storing its whole band.

    Off-diagonals are at most 0.6 of their row's diagonal, so sweeps stay
    finite, or in half the draws up to 1e3, 1e6 or 1e12 times it, so they
    pass the divergence bound within the stretch.  Then up to three
    entries are overwritten from ``rare_entries`` or ``rare_diagonal``.
    In a third of the draws b and
    x0 hold only signed zeros, so every iterate is a signed zero whose
    sign depends on each operation and its order; b_0 and b_(n-1) are
    often -0.0.
    """
    n = draw(st.integers(1, 40))
    diag = draw(st.lists(nonzero_diagonal, min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.6, 0.6, 0.6, 1e3, 1e6, 1e12]))
    ratios = st.lists(st.floats(-scale, scale), min_size=n, max_size=n)
    lower = [di * r for di, r in zip(diag, draw(ratios))]
    upper = [di * r for di, r in zip(diag, draw(ratios))]
    zeros = draw(st.integers(0, 2)) == 0
    values = st.sampled_from([0.0, -0.0]) if zeros else st.floats(-100.0, 100.0)
    b = draw(st.lists(values, min_size=n, max_size=n))
    x0 = draw(st.lists(values, min_size=n, max_size=n))
    ends = st.one_of(st.just(-0.0), values)
    b[0], b[-1] = draw(ends), draw(ends)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([diag, lower, upper, b, x0]))
        rare = rare_diagonal if target is diag else rare_entries
        target[draw(st.integers(0, n - 1))] = draw(rare)
    split = split_dlu(band_matrix(diag, lower, upper))
    d, rows = _kernel_rows(split)
    return d, rows, split.band, b, x0


def hexes(xs):
    """Bit patterns as ``float.hex``: -0.0 differs from 0.0, every NaN is 'nan'."""
    return [float(v).hex() for v in xs]


def one_sweep_at_a_time(d, rows, b, x1, last, method, stride):
    """The wavefront's contract, by repeated ``_sweep`` calls: sweeps 2 ..
    ``last`` from x1, yielding multiples of ``stride`` and ``last``."""
    step = _sweep_fn(d, rows, method, Vector(tuple(b)))
    xs = x1
    for k in range(2, last + 1):
        xs = step(xs)
        _check_iterate(xs, k)
        if k % stride == 0 or k == last:
            yield k, xs


def outcome(iterates):
    """Every (k, bit patterns) yielded, then the divergence message if any."""
    got = []
    try:
        for k, xs in iterates:
            got.append((k, hexes(xs)))
    except DivergenceError as exc:
        got.append(str(exc))
    return got


def report_fields(report):
    return (
        hexes(report.solution.entries),
        report.iterations_run,
        report.predicted_iterations,
        float(report.final_residual_norm).hex(),
        [(k, float(r).hex()) for k, r in report.residual_history],
        report.converged,
    )


def both_paths(monkeypatch, a, b, config, profile):
    """``solve`` with the wavefront at every size, then never."""
    got = []
    for rows in (1, 10**9):
        monkeypatch.setattr(stationary_solvers, "_PIPELINE_MIN_ROWS", rows)
        try:
            got.append(report_fields(solve(a, b, config, profile)))
        except DivergenceError as exc:
            got.append(str(exc))
    return got


class TestWavefront:
    """The deferred stretch of a tridiagonal system, run as one wavefront,
    against ``_sweep`` one sweep at a time, bit for bit."""

    @given(
        tridiagonal_systems(),
        methods,
        st.integers(2, 61),
        st.one_of(st.integers(1, 8), st.integers(9, 70)),
    )
    def test_matches_one_sweep_at_a_time(self, system, method, last, stride):
        d, rows, (lower, upper, exact), b, x0 = system
        assert exact
        x1 = _sweep_fn(d, rows, method, Vector(tuple(b)))(x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = outcome(one_sweep_at_a_time(d, rows, b, x1, last, method, stride))
            got = outcome(_pipelined(d, lower, upper, b, x1, last, method, stride))
        assert got == want

    @pytest.mark.parametrize("method", [Method.jacobi(), Method.sor(1.5)])
    @pytest.mark.parametrize(
        "b,raises",
        [
            # Squares summing past 1e300, every entry within the bound.
            ([9e149] * 40, False),
            ([1e150] * 40, False),
            # One entry just past the bound, with a small sum of squares.
            ([1.0] * 20 + [-1.5e150] + [1.0] * 19, True),
        ],
    )
    def test_divergence_check_exact_at_the_bound(self, method, b, raises):
        n = len(b)
        split = split_dlu(band_matrix([1.0] * n, [0.0] * n, [0.0] * n))
        d, rows = _kernel_rows(split)
        want = outcome(one_sweep_at_a_time(d, rows, b, b, 9, method, 4))
        assert isinstance(want[-1], str) == raises
        lower, upper, _ = split.band
        assert outcome(_pipelined(d, lower, upper, b, b, 9, method, 4)) == want

    def test_band_requires_both_neighbours_in_column_order(self):
        full = band_matrix([4.0] * 4, [-1.0] * 4, [-1.0] * 4)
        assert split_dlu(full).band == (
            (0.0, 1.0, 1.0, 1.0),
            (1.0, 1.0, 1.0, 0.0),
            True,
        )
        gap = band_matrix([4.0] * 4, [-1.0, -1.0, None, -1.0], [-1.0] * 4)
        wide = band_matrix([4.0] * 4, [-1.0] * 4, [-1.0] * 4, extra=[(3, 0, 0.0)])
        for a in (gap, wide):
            assert not split_dlu(a).band[-1]

    @pytest.mark.parametrize("exits", [16, 129, 200, 300])
    @pytest.mark.parametrize("stride", [1, 64])
    def test_solve_same_on_both_paths_for_rings(self, monkeypatch, exits, stride):
        rng = random.Random(exits)
        a, b = ring_system([rng.uniform(-1.0, 1.0) for _ in range(exits - 1)] + [0.0])
        red = reduce(a, b)
        profile = classify(red.normal_matrix)
        for method in (
            Method.jacobi(),
            Method.gauss_seidel(),
            Method.sor(profile.omega_star),
            Method.sor(1.2),
        ):
            config = SolverConfig(
                method=method, eta=1e-6, max_iterations=400, history_stride=stride
            )
            got = both_paths(monkeypatch, red.normal_matrix, red.normal_rhs, config, profile)
            assert got[0] == got[1]

    def test_solve_same_on_both_paths_after_a_failed_first_check(self, monkeypatch):
        # A radius far below the true one predicts too few sweeps, so the
        # first check fails and the sweeps after it run one at a time.
        a = tridiag(150)
        b = Vector(tuple(float(i % 5 - 2) for i in range(150)))
        config = SolverConfig(method=Method.gauss_seidel(), eta=1e-6, max_iterations=90)
        got = both_paths(monkeypatch, a, b, config, fake_profile(rho_g=0.5))
        assert got[0] == got[1]
        _, iterations, predicted, _, _, converged = got[0]
        assert predicted < iterations == 90 and not converged

    @pytest.mark.parametrize(
        "method", [Method.jacobi(), Method.gauss_seidel(), Method.sor(1.5)]
    )
    @pytest.mark.parametrize("stride", [1, 64])
    def test_divergence_inside_the_stretch_same_on_both_paths(
        self, monkeypatch, method, stride
    ):
        n = 200
        a = band_matrix([1.0] * n, [-1.0] * n, [-1.05] * n)
        b = Vector(tuple(float(i % 3 - 1) for i in range(n)))
        profile = fake_profile(rho_j=0.9995, rho_g=0.9995, rho_s=0.9995, sor_omega=method.omega)
        config = SolverConfig(method=method, eta=1e-6, max_iterations=5000, history_stride=stride)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = both_paths(monkeypatch, a, b, config, profile)
        assert got[0] == got[1]
        assert re.fullmatch(r"iterate diverged at iteration \d+", got[0])

    @pytest.mark.parametrize(
        "method", [Method.jacobi(), Method.gauss_seidel(), Method.sor(1.3)]
    )
    def test_off_band_patterns_fall_back_bit_for_bit(self, monkeypatch, method):
        # Row 70 misses its i - 1 neighbour and has b_70 = -0.0; a +0.0
        # stand-in coefficient would add +0.0 and lose the sign.  The stored
        # zero at (5, 90) times an inf would be NaN where the band has none.
        n = 140
        lower = [-1.0] * n
        lower[70] = None
        b = [float(i % 4 - 1) for i in range(n)]
        b[70] = -0.0
        gap = band_matrix([3.0] * n, lower, [-1.0] * n)
        wide = band_matrix([3.0] * n, [-1.0] * n, [-1.0] * n, extra=[(5, 90, 0.0)])
        profile = fake_profile(rho_j=0.6, rho_g=0.4, rho_s=0.4, sor_omega=method.omega)
        config = SolverConfig(method=method, eta=1e-12, max_iterations=300, history_stride=7)
        for a in (gap, wide):
            assert not split_dlu(a).band[-1]
            got = both_paths(monkeypatch, a, Vector(tuple(b)), config, profile)
            assert got[0] == got[1]

    def test_stride_one_holds_half_the_band_of_iterates_at_most(self):
        # Sweeps in flight span (n - 1) / 2 + 1 sweeps, so capturing every
        # sweep holds about n^2 / 2 floats (4.2 MB at 1023 unknowns), not
        # the whole stretch: here 400 iterates would take 816 kB.
        n, last = 255, 400
        split = split_dlu(tridiag(n))
        d, _ = _kernel_rows(split)
        lower, upper, _ = split.band
        x1 = [1.0] * n
        tracemalloc.start()
        try:
            for _ in _pipelined(d, lower, upper, [0.0] * n, x1, last, Method.gauss_seidel(), 1):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (n // 2 + 1) + 100_000


class TestContractionEnvelope:
    """Sampled residuals shrink at least like the estimated radius."""

    @pytest.mark.parametrize(
        "n,method_name", [(10, "jacobi"), (10, "gauss-seidel"), (31, "sor")]
    )
    def test_windowed_decay_bounded_by_radius(self, n, method_name):
        a = tridiag(n)
        b = Vector(tuple(1.0 if i % 2 == 0 else -1.0 for i in range(n)))
        profile = classify(a)
        if method_name == "jacobi":
            method, rho = Method.jacobi(), profile.rho_jacobi
        elif method_name == "gauss-seidel":
            method, rho = Method.gauss_seidel(), profile.rho_gauss_seidel
        else:
            method, rho = Method.sor(profile.sor_omega), profile.rho_sor
        config = SolverConfig(method=method, eta=1e-10, max_iterations=20000)
        report = solve(a, b, config, profile)
        assert report.converged
        history = dict(report.residual_history)
        window = 50
        checked = 0
        # Slack 5 absorbs the polynomial transient of the defective SOR
        # spectrum at the optimal weight; measured worst factor is 3.9.
        for k in sorted(history):
            if k >= 20 and k + window in history and history[k] > 1e-11:
                assert history[k + window] <= 5.0 * (rho**window) * history[k]
                checked += 1
        assert checked > 0
