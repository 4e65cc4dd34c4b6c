"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single line with the measured values so a -v -s run
reads as a checklist.  Tolerances match the stated requirements; the
property criteria run 200 cases each under the ci hypothesis profile.
"""

import math
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FIXTURES, dense_entries, from_flat, ring_matrix, ring_system, to_rows
from conftest import tridiag, vec_bits
from oracles import eliminate, solve_direct
from ringsolve import (
    DivergenceError,
    Method,
    NoConvergentMethodError,
    SolverConfig,
    SparseMatrix,
    Vector,
    assemble,
    classify,
    gauss_seidel_sweep,
    generate_ring,
    inf_norm,
    iteration_matrix,
    jacobi_sweep,
    matvec,
    optimal_omega,
    parse_aadt,
    parse_network,
    reconstruct,
    reduce,
    select_method,
    solve,
    solve_traffic,
    sor_sweep,
    spectral_radius,
    split_dlu,
)

SEC21 = SparseMatrix.from_rows([[5.0, -2.0, 3.0], [-3.0, 9.0, 1.0], [-2.0, -1.0, -7.0]])
SEC21_B = Vector((-1.0, 2.0, 3.0))


def fixture_ring():
    return generate_ring(parse_aadt((FIXTURES / "aadt_synthetic.csv").read_text()))


def test_criterion_1_benchmark_radii():
    started = time.perf_counter()
    network = fixture_ring()
    a, b = assemble(network)
    red = reduce(a, b)
    assert red.normal_matrix.rows == 31
    profile = classify(red.normal_matrix)
    elapsed = time.perf_counter() - started

    reference = {"jacobi": 0.9952, "gauss-seidel": 0.9904, "sor": 0.8215}
    assert abs(profile.rho_jacobi - reference["jacobi"]) <= 5e-4
    assert abs(profile.rho_gauss_seidel - reference["gauss-seidel"]) <= 5e-4
    assert abs(profile.rho_sor - reference["sor"]) <= 5e-4
    analytic_j = math.cos(math.pi / 32.0)
    assert abs(profile.rho_jacobi - analytic_j) <= 5e-4
    assert abs(profile.rho_gauss_seidel - analytic_j**2) <= 5e-4
    assert abs(profile.rho_sor - (profile.omega_star - 1.0)) <= 5e-4
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: rho_j={profile.rho_jacobi:.6f} "
        f"rho_gs={profile.rho_gauss_seidel:.6f} rho_sor={profile.rho_sor:.6f} "
        f"elapsed={elapsed:.2f}s"
    )


def test_criterion_2_optimal_omega():
    omega = optimal_omega(0.995185)
    assert abs(omega - 1.821465) <= 1e-5

    red = reduce(*assemble(fixture_ring()))
    profile = classify(red.normal_matrix)
    t_star = iteration_matrix(red.normal_matrix, Method.sor(profile.omega_star)).T
    measured = spectral_radius(t_star).rho
    gap = abs(measured - (profile.omega_star - 1.0))
    assert gap <= 5e-4
    print(
        f"criterion 2 PASS: optimal_omega(0.995185)={omega:.7f} "
        f"measured rho(T_omega*)={measured:.6f} gap={gap:.2e}"
    )


def test_criterion_3_iteration_count_ratios():
    started = time.perf_counter()
    red = reduce(*assemble(fixture_ring()))
    profile = classify(red.normal_matrix)
    config = SolverConfig(eta=0.001, history_stride=64)
    counts = {}
    for method in (
        Method.jacobi(),
        Method.gauss_seidel(),
        Method.sor(profile.sor_omega),
    ):
        report = solve(
            red.normal_matrix,
            red.normal_rhs,
            SolverConfig(
                method=method,
                eta=config.eta,
                history_stride=config.history_stride,
            ),
            profile,
        )
        assert report.converged
        assert report.predicted_iterations is not None
        drift = abs(report.iterations_run - report.predicted_iterations)
        assert drift <= 0.25 * report.predicted_iterations
        counts[method.tag] = report.iterations_run
    elapsed = time.perf_counter() - started

    assert counts["sor"] < counts["gauss-seidel"] < counts["jacobi"]
    ratio_js = counts["jacobi"] / counts["sor"]
    ratio_jg = counts["jacobi"] / counts["gauss-seidel"]
    assert 30.0 <= ratio_js <= 50.0
    assert 1.8 <= ratio_jg <= 2.8
    assert elapsed < 10.0
    print(
        f"criterion 3 PASS: k_j={counts['jacobi']} k_gs={counts['gauss-seidel']} "
        f"k_sor={counts['sor']} j/sor={ratio_js:.2f} j/gs={ratio_jg:.2f} "
        f"elapsed={elapsed:.2f}s"
    )


def test_criterion_4_worked_elimination_and_methods():
    scaled_rows, rhs = eliminate(SEC21, SEC21_B, pivot=False)
    # The reference triangle carries rows 1 and 2 multiplied by the pivot 5
    # (fraction-free elimination); scale ours to match before comparing.
    scaled_rhs = list(rhs.entries)
    for i in (1, 2):
        scaled_rows[i] = [5.0 * v for v in scaled_rows[i]]
        scaled_rhs[i] *= 5.0
    want_rows = [[5.0, -2.0, 3.0], [0.0, 39.0, 14.0], [0.0, 0.0, -335.0 / 13.0]]
    want_rhs = [-1.0, 7.0, 190.0 / 13.0]
    for i in range(3):
        for j in range(3):
            assert abs(scaled_rows[i][j] - want_rows[i][j]) <= 1e-12 * max(
                1.0, abs(want_rows[i][j])
            )
        assert abs(scaled_rhs[i] - want_rhs[i]) <= 1e-12 * max(1.0, abs(want_rhs[i]))

    exact = solve_direct(SEC21, SEC21_B)
    errors = {}
    for method in (Method.jacobi(), Method.gauss_seidel(), Method.sor(1.1)):
        report = solve(
            SEC21, SEC21_B, SolverConfig(method=method, eta=1e-8, max_iterations=10000)
        )
        assert report.converged
        err = max(abs(u - v) for u, v in zip(report.solution.entries, exact.entries))
        assert err < 1e-6
        errors[method.tag] = err
    print(
        "criterion 4 PASS: triangle matched; inf-errors "
        + " ".join(f"{tag}={err:.2e}" for tag, err in errors.items())
    )


def test_criterion_5_six_junction_network():
    network = parse_network((FIXTURES / "fig1.network").read_text())
    a, b = assemble(network)
    assert to_rows(a) == [
        [1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
        [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    assert b.entries == (100.0, -50.0, 120.0, -150.0, 80.0, -100.0)
    assert sum(b.entries) == 0.0

    flows, report, _ = solve_traffic(network, SolverConfig(eta=1e-9))
    assert report.converged
    balances = matvec(a, flows.flows)
    worst = max(abs(u - v) for u, v in zip(balances.entries, b.entries))
    assert worst <= 1e-6
    print(f"criterion 5 PASS: junction equations exact, worst balance error {worst:.2e}")


finite = st.floats(allow_nan=False, allow_infinity=False)
small = st.floats(min_value=-10.0, max_value=10.0)


def dominant_matrix(draw_rows, bump):
    rows = [list(r) for r in draw_rows]
    n = len(rows)
    for i in range(n):
        off = sum(abs(v) for j, v in enumerate(rows[i]) if j != i)
        sign = -1.0 if rows[i][i] < 0.0 else 1.0
        rows[i][i] = sign * (off + 1.0 + bump)
    return SparseMatrix.from_rows(rows)


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(finite, min_size=n * n, max_size=n * n)
    )
)
def test_criterion_6a_splitting_round_trip(cells):
    n = int(math.isqrt(len(cells)))
    a = from_flat(n, n, cells)
    split = split_dlu(a)
    rebuilt = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rebuilt[i][i] = split.diag[i]
    for i in range(n):
        for j, v in split.strict_lower.row_items(i):
            rebuilt[i][j] = -v
        for j, v in split.strict_upper.row_items(i):
            rebuilt[i][j] = -v
    flat = [v for row in rebuilt for v in row]
    assert vec_bits(flat) == vec_bits(cells)


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n),
        )
    ),
    st.floats(min_value=0.05, max_value=1.95),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_criterion_6b_sweep_matches_iteration_matrix(data, omega, bump):
    rows, x_list, b_list = data
    a = dominant_matrix(rows, bump)
    x = Vector(tuple(x_list))
    b = Vector(tuple(b_list))
    split = split_dlu(a)
    for method, sweep in (
        (Method.jacobi(), lambda: jacobi_sweep(split, x, b)),
        (Method.gauss_seidel(), lambda: gauss_seidel_sweep(split, x, b)),
        (Method.sor(omega), lambda: sor_sweep(split, x, b, omega)),
    ):
        im = iteration_matrix(a, method, b)
        mapped = [t + c for t, c in zip(matvec(im.T, x).entries, im.c.entries)]
        swept = sweep()
        assert max(abs(u - v) for u, v in zip(mapped, swept.entries)) <= 1e-11


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n),
        )
    ),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_criterion_6c_sor_at_weight_one_is_gauss_seidel(data, bump):
    rows, x_list, b_list = data
    a = dominant_matrix(rows, bump)
    split = split_dlu(a)
    x = Vector(tuple(x_list))
    b = Vector(tuple(b_list))
    # Exact per-entry equality; the blend's 0.0 * x_old term may flip the
    # sign of an exactly-zero result, which == deliberately ignores.
    relaxed = sor_sweep(split, x, b, 1.0)
    plain = gauss_seidel_sweep(split, x, b)
    assert all(u == v for u, v in zip(relaxed.entries, plain.entries))


@given(
    st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=n, max_size=n
        )
    ),
    st.floats(min_value=-1e3, max_value=1e3),
)
def test_criterion_6d_ring_null_space_shift_invariance(x_list, shift):
    n = len(x_list)
    a = ring_matrix(n)
    base = matvec(a, Vector(tuple(x_list)))
    shifted = matvec(a, Vector(tuple(v + shift for v in x_list)))
    assert max(abs(u - v) for u, v in zip(base.entries, shifted.entries)) <= 1e-10


@given(
    st.integers(min_value=3, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=-500.0, max_value=500.0), min_size=n, max_size=n
            ),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
)
def test_criterion_6e_row_sign_invariant_reduction(data):
    externals, flips = data
    a, b = ring_system(externals)
    red = reduce(a, b)
    rows = to_rows(a)
    flipped_rows = [
        [-v for v in row] if flip else row for row, flip in zip(rows, flips)
    ]
    flipped_b = tuple(-v if flip else v for v, flip in zip(b.entries, flips))
    red_flipped = reduce(SparseMatrix.from_rows(flipped_rows), Vector(flipped_b))
    assert vec_bits(dense_entries(red_flipped.normal_matrix)) == vec_bits(
        dense_entries(red.normal_matrix)
    )
    assert vec_bits(red_flipped.normal_rhs) == vec_bits(red.normal_rhs)


@given(st.integers(min_value=3, max_value=31))
@example(5)
@example(10)
@example(31)
def test_criterion_6f_estimator_matches_tridiagonal_law(n):
    t = iteration_matrix(tridiag(n), Method.jacobi()).T
    est = spectral_radius(t)
    assert est.converged
    assert abs(est.rho - math.cos(math.pi / (n + 1))) <= 1e-4


def test_criterion_7_divergence_handling():
    a = SparseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NoConvergentMethodError, match="no convergent stationary method"):
        select_method(classify(a))

    config = SolverConfig(method=Method.jacobi(), eta=1e-3, max_iterations=10000)
    outcome = None
    try:
        report = solve(a, Vector((1.0, 1.0)), config)
    except DivergenceError as exc:
        assert "diverged" in str(exc)
        outcome = f"raised: {exc}"
    else:
        assert not report.converged
        outcome = f"converged=no after {report.iterations_run} iterations"
    print(f"criterion 7 PASS: selection refused; forced jacobi {outcome}")
