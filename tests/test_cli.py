"""Command-line behavior: output layout, exit codes, and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ringsolve import SolverConfig, cli, parse_network, parse_segments, solve_direct
from ringsolve import matrix_core, parse_matrix, parse_vector, stationary_solvers, write_vector


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pairs(out: str) -> dict:
    """Label/value lines before the solution block or trailing CSV."""
    got = {}
    for line in out.splitlines():
        if not line or line == "solution" or line.startswith(" "):
            break
        parts = line.split(None, 1)
        if len(parts) == 2:
            got[parts[0]] = parts[1]
    return got


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def sec21(fixtures_dir):
    return str(fixtures_dir / "sec21.mat"), str(fixtures_dir / "sec21.rhs")


@pytest.fixture
def convdiff5(fixtures_dir):
    return str(fixtures_dir / "convdiff5.mat"), str(fixtures_dir / "convdiff5.rhs")


@pytest.fixture
def poisson10(fixtures_dir):
    return str(fixtures_dir / "poisson10.mat"), str(fixtures_dir / "poisson10.rhs")


class TestAnalyze:
    def test_text_profile(self, capsys, sec21):
        code, out, err = run(capsys, "analyze", sec21[0])
        assert code == 0 and err == ""
        got = pairs(out)
        assert got["rows"] == "3"
        assert got["cols"] == "3"
        assert got["symmetric"] == "no"
        assert got["strictly_dominant"] == "no"
        assert got["weakly_dominant"] == "yes"
        assert got["tridiagonal"] == "no"
        assert got["positive_definite"] == "no"
        assert got["zero_diagonal"] == "no"
        assert abs(float(got["rho_jacobi"]) - 0.62207) < 1e-3
        assert got["sor_omega"] == "1.500000"
        assert got["omega_star"] == "-"
        assert got["recommendation"] == "gauss-seidel"

    def test_labels_are_aligned(self, capsys, sec21):
        _, out, _ = run(capsys, "analyze", sec21[0])
        for line in out.splitlines():
            assert line[:19].rstrip() == line.split(None, 1)[0]

    def test_json_profile(self, capsys, sec21):
        code, out, err = run(capsys, "analyze", sec21[0], "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert list(payload) == [
            "rows",
            "cols",
            "is_symmetric",
            "is_strictly_diag_dominant",
            "is_weakly_diag_dominant",
            "is_tridiagonal",
            "is_positive_definite",
            "has_zero_diagonal",
            "rho",
            "sor_omega",
            "omega_star",
            "recommendation",
            "radii_converged",
        ]
        assert list(payload["rho"]) == ["jacobi", "gauss_seidel", "sor"]
        assert payload["recommendation"] == "gauss-seidel"
        assert payload["omega_star"] is None
        assert abs(payload["rho"]["jacobi"] - 0.62207) < 1e-3

    def test_json_nulls_for_zero_diagonal(self, capsys, tmp_path):
        path = tmp_path / "zd.mat"
        path.write_text("dense 2 2\n0 1\n1 1\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["has_zero_diagonal"] is True
        assert payload["rho"]["jacobi"] is None
        assert payload["recommendation"] == "none convergent"

    def test_json_flags_unsettled_radii(self, capsys, tmp_path):
        # Jacobi matrix [[0, I], [S, 0]] with S a Jordan block: power
        # iteration on its defective dominant eigenvalues never settles.
        path = tmp_path / "defective.mat"
        path.write_text("dense 4 4\n1 0 -1 0\n0 1 0 -1\n-0.25 -1 1 0\n0 -0.25 0 1\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert json.loads(out)["radii_converged"] is False
        code, out, _ = run(capsys, "analyze", str(path))
        assert "radii_converged" not in out

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", str(tmp_path / "nope.mat"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_matrix_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("dense 2 2\n1 2\n3\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "error: line 3: expected 2 values, found 1" in err


class TestSolve:
    def test_auto_solves_and_reports(self, capsys, sec21, fixtures_dir):
        code, out, err = run(capsys, "solve", *sec21, "--eta", "1e-8")
        assert code == 0 and err == ""
        got = pairs(out)
        assert got["method"] == "gauss-seidel"
        assert "smallest spectral radius estimate" in got["rationale"]
        assert got["converged"] == "yes"
        assert int(got["iterations"]) >= 1
        assert int(got["predicted"]) >= 1
        assert float(got["final_residual"]) < 1e-8
        assert got["eta"] == "1.000000e-08"
        a = parse_matrix((fixtures_dir / "sec21.mat").read_text())
        b = parse_vector((fixtures_dir / "sec21.rhs").read_text())
        want = solve_direct(a, b)
        solution = [
            float(line.strip())
            for line in out.splitlines()[out.splitlines().index("solution") + 1 :]
        ]
        assert max(abs(u - v) for u, v in zip(solution, want.entries)) < 1e-6

    def test_forced_sor_without_omega_uses_profiled_weight(self, capsys, sec21):
        code, out, _ = run(capsys, "solve", *sec21, "--method", "sor")
        assert code == 0
        assert pairs(out)["omega"] == "1.5"

    def test_forced_sor_with_omega(self, capsys, sec21):
        code, out, _ = run(capsys, "solve", *sec21, "--method", "sor", "--omega", "1.1")
        assert code == 0
        got = pairs(out)
        assert got["method"] == "sor"
        assert float(got["omega"]) == 1.1
        assert "rationale" not in got

    def test_omega_out_of_range(self, capsys, sec21):
        code, _, err = run(capsys, "solve", *sec21, "--method", "sor", "--omega", "2.5")
        assert code == 1
        assert "0 < omega < 2" in err

    def test_omega_without_sor(self, capsys, sec21):
        code, _, err = run(capsys, "solve", *sec21, "--omega", "1.1")
        assert code == 1
        assert "--omega requires --method sor" in err

    def test_initial_guess_file(self, capsys, sec21, fixtures_dir, tmp_path):
        a = parse_matrix((fixtures_dir / "sec21.mat").read_text())
        b = parse_vector((fixtures_dir / "sec21.rhs").read_text())
        guess = tmp_path / "x0.vec"
        guess.write_text(write_vector(solve_direct(a, b)))
        code, out, _ = run(capsys, "solve", *sec21, "--x0", str(guess))
        assert code == 0
        assert pairs(out)["iterations"] == "1"

    def test_history_file(self, capsys, sec21, tmp_path):
        history = tmp_path / "history.csv"
        code, out, _ = run(capsys, "solve", *sec21, "--history", str(history))
        assert code == 0
        lines = history.read_text().splitlines()
        assert lines[0] == "iteration,residual_norm"
        assert len(lines) - 1 == int(pairs(out)["iterations"])
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert last < first
        assert lines[-1].split(",")[0] == pairs(out)["iterations"]

    def test_residuals_only_where_checked_without_history(
        self, capsys, sec21, tmp_path, monkeypatch
    ):
        calls = []
        norm = stationary_solvers._residual_norm

        def counted(*args):
            calls.append(args)
            return norm(*args)

        monkeypatch.setattr(stationary_solvers, "_residual_norm", counted)
        _, plain, _ = run(capsys, "solve", *sec21)
        checks = len(calls)
        calls.clear()
        _, logged, _ = run(capsys, "solve", *sec21, "--history", str(tmp_path / "h.csv"))
        assert plain == logged
        got = pairs(plain)
        assert checks == int(got["iterations"]) - int(got["predicted"]) + 1
        assert len(calls) == int(got["iterations"])

    def test_timing_flag_controls_wall_time_line(self, capsys, sec21):
        _, out_plain, _ = run(capsys, "solve", *sec21)
        _, out_timed, _ = run(capsys, "solve", *sec21, "--timing")
        assert "wall_time" not in pairs(out_plain)
        assert pairs(out_timed)["wall_time"].endswith("s")

    def test_deterministic_output(self, capsys, sec21):
        _, first, _ = run(capsys, "solve", *sec21, "--eta", "1e-9")
        _, second, _ = run(capsys, "solve", *sec21, "--eta", "1e-9")
        assert first == second

    def test_non_convergence_exits_2(self, capsys, sec21):
        code, out, err = run(
            capsys, "solve", *sec21, "--eta", "1e-15", "--max-iter", "3"
        )
        assert code == 2
        got = pairs(out)
        assert got["converged"] == "no"
        assert got["iterations"] == "3"
        assert "error: did not converge within 3 iterations" in err

    def test_rhs_dimension_mismatch(self, capsys, sec21, tmp_path):
        rhs = tmp_path / "short.rhs"
        rhs.write_text("1\n2\n")
        code, _, err = run(capsys, "solve", sec21[0], str(rhs))
        assert code == 1
        assert "matrix has 3 rows but rhs has 2 entries" in err

    def test_non_square_matrix(self, capsys, tmp_path, sec21):
        path = tmp_path / "rect.mat"
        path.write_text("dense 2 3\n1 2 3\n4 5 6\n")
        code, _, err = run(capsys, "solve", str(path), sec21[1])
        assert code == 1
        assert "expected square" in err

    def test_divergent_forced_method_exits_2(self, capsys, tmp_path):
        mat = tmp_path / "hard.mat"
        mat.write_text("dense 2 2\n1 2\n2 1\n")
        rhs = tmp_path / "hard.rhs"
        rhs.write_text("1\n1\n")
        code, _, err = run(
            capsys, "solve", str(mat), str(rhs), "--method", "jacobi"
        )
        assert code == 2
        assert "diverged at iteration" in err

    def test_no_convergent_method_exits_2(self, capsys, tmp_path):
        mat = tmp_path / "hard.mat"
        mat.write_text("dense 2 2\n1 2\n2 1\n")
        rhs = tmp_path / "hard.rhs"
        rhs.write_text("1\n1\n")
        code, _, err = run(capsys, "solve", str(mat), str(rhs))
        assert code == 2
        assert "no convergent stationary method" in err

    def test_zero_diagonal_forced_method_exits_2(self, capsys, tmp_path):
        mat = tmp_path / "zd.mat"
        mat.write_text("dense 2 2\n0 1\n1 1\n")
        rhs = tmp_path / "zd.rhs"
        rhs.write_text("1\n1\n")
        code, _, err = run(
            capsys, "solve", str(mat), str(rhs), "--method", "gauss-seidel"
        )
        assert code == 2
        assert "zero diagonal entry at row 0" in err


class TestTrafficSolve:
    def test_aadt_route_prints_profile_and_csv(self, capsys, fixtures_dir):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        code, out, err = run(capsys, "traffic", "solve", "--aadt", aadt)
        assert code == 0 and err == ""
        got = pairs(out)
        assert got["method"] == "sor"
        assert got["converged"] == "yes"
        assert float(got["omega"]) == pytest.approx(float(got["omega_star"]))
        blank = out.index("\n\n")
        csv_text = out[blank + 2 :]
        rows = parse_segments(csv_text)
        assert len(rows) == 32
        assert rows[0][1] == "1" and rows[0][2] == "32"

    def test_out_file_replaces_stdout_csv(self, capsys, fixtures_dir, tmp_path):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        out_path = tmp_path / "segments.csv"
        code, out, _ = run(
            capsys, "traffic", "solve", "--aadt", aadt, "--out", str(out_path)
        )
        assert code == 0
        assert f"segments written to {out_path}" in out
        assert "segment,from_exit,to_exit,flow" not in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 33
        assert lines[0] == "segment,from_exit,to_exit,flow"

    def test_network_file_route(self, capsys, fixtures_dir):
        network = str(fixtures_dir / "fig1.network")
        code, out, err = run(capsys, "traffic", "solve", network, "--eta", "1e-9")
        assert code == 0 and err == ""
        rows = parse_segments(out[out.index("\n\n") + 2 :])
        flows = [v for _, _, _, v in rows]
        want = [150.0, 50.0, 100.0, -20.0, 130.0, 50.0]
        assert max(abs(a - b) for a, b in zip(flows, want)) < 1e-6

    def test_close_exit(self, capsys, fixtures_dir):
        network = str(fixtures_dir / "fig1.network")
        code, out, err = run(
            capsys, "traffic", "solve", network, "--close-exit", "B"
        )
        assert code == 0
        rows = parse_segments(out[out.index("\n\n") + 2 :])
        assert [(r[1], r[2]) for r in rows] == [
            ("A", "F"),
            ("C", "A"),
            ("D", "C"),
            ("E", "D"),
            ("F", "E"),
        ]
        # Closing B drops its -50 external, so the totals no longer balance.
        assert "external flows do not balance" in err

    def test_network_and_aadt_together(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "traffic",
            "solve",
            str(fixtures_dir / "fig1.network"),
            "--aadt",
            str(fixtures_dir / "aadt_synthetic.csv"),
        )
        assert code == 1
        assert "provide exactly one of <network> or --aadt" in err

    def test_neither_network_nor_aadt(self, capsys):
        code, _, err = run(capsys, "traffic", "solve")
        assert code == 1
        assert "provide exactly one of <network> or --aadt" in err

    def test_imbalance_warning(self, capsys, tmp_path):
        path = tmp_path / "drift.network"
        path.write_text(
            "node A 10\nnode B 0\nnode C -5\nbranch A C\nbranch B A\nbranch C B\n"
        )
        code, out, err = run(capsys, "traffic", "solve", str(path))
        assert code == 0
        assert "warning: external flows do not balance" in err
        assert pairs(out)["converged"] == "yes"

    def test_forced_jacobi_is_slower_than_auto_sor(self, capsys, fixtures_dir):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        _, out_auto, _ = run(capsys, "traffic", "solve", "--aadt", aadt)
        _, out_jacobi, _ = run(
            capsys, "traffic", "solve", "--aadt", aadt, "--method", "jacobi"
        )
        assert pairs(out_jacobi)["method"] == "jacobi"
        assert int(pairs(out_jacobi)["iterations"]) > int(pairs(out_auto)["iterations"])

    def test_forced_weight_gets_a_prediction(self, capsys, fixtures_dir):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        code, out, _ = run(
            capsys, "traffic", "solve", "--aadt", aadt, "--method", "sor", "--omega", "1.9"
        )
        got = pairs(out)
        assert code == 0 and got["converged"] == "yes"
        assert got["omega"] != got["omega_star"]
        assert got["predicted"] == got["iterations"]

    def test_deterministic_output(self, capsys, fixtures_dir):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        _, first, _ = run(capsys, "traffic", "solve", "--aadt", aadt)
        _, second, _ = run(capsys, "traffic", "solve", "--aadt", aadt)
        assert first == second

    @pytest.mark.parametrize("method", ["auto", "sor"])
    def test_disjoint_rings_exit_2_without_segments(self, capsys, fixtures_dir, tmp_path, method):
        # A bare '--method sor' classifies the reduced system before the solve.
        out_path = tmp_path / "segments.csv"
        network = str(fixtures_dir / "two_rings.network")
        code, out, err = run(
            capsys, "traffic", "solve", network, "--method", method, "--out", str(out_path)
        )
        assert code == 2 and out == ""
        assert err == "error: network is not one ring: its branches form several disjoint cycles\n"
        assert not out_path.exists()

    def test_non_square_network_exits_1(self, capsys, tmp_path):
        path = tmp_path / "extra.network"
        path.write_text("node A 1\nnode B -1\nbranch A B\nbranch B A\nbranch A B\n")
        code, _, err = run(capsys, "traffic", "solve", str(path))
        assert code == 1
        assert "expected square" in err

    def test_non_convergence_exits_2(self, capsys, fixtures_dir):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        code, out, err = run(
            capsys, "traffic", "solve", "--aadt", aadt, "--eta", "1e-12", "--max-iter", "5"
        )
        assert code == 2
        assert pairs(out)["converged"] == "no"
        assert "did not converge within 5 iterations" in err


class TestOneSplitPerRequest:
    """``classify`` and ``solve`` read the split that the CSR matrix keeps."""

    @pytest.mark.parametrize("name", ["sec21", "convdiff5"])
    def test_solve_derives_the_split_once(self, capsys, monkeypatch, fixtures_dir, name):
        calls = []
        split_dlu = matrix_core.split_dlu

        def counting(a):
            calls.append(a)
            return split_dlu(a)

        monkeypatch.setattr(matrix_core, "split_dlu", counting)
        mat, rhs = (str(fixtures_dir / f"{name}.{ext}") for ext in ("mat", "rhs"))
        code, _, _ = run(capsys, "solve", mat, rhs)
        assert code == 0 and len(calls) == 1


class TestTrafficGenerate:
    def test_generates_parseable_ring(self, capsys, fixtures_dir, tmp_path):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        out_path = tmp_path / "ring.network"
        code, out, err = run(
            capsys, "traffic", "generate", "--exits", "32", "--aadt", aadt,
            "--out", str(out_path),
        )
        assert code == 0 and err == ""
        assert f"wrote ring network with 32 exits to {out_path}" in out
        network = parse_network(out_path.read_text())
        assert len(network.nodes) == 32
        assert network.is_ring()

    def test_generated_network_solves_like_aadt_route(self, capsys, fixtures_dir, tmp_path):
        aadt = str(fixtures_dir / "aadt_synthetic.csv")
        out_path = tmp_path / "ring.network"
        run(capsys, "traffic", "generate", "--exits", "32", "--aadt", aadt,
            "--out", str(out_path))
        _, via_network, _ = run(capsys, "traffic", "solve", str(out_path))
        _, via_aadt, _ = run(capsys, "traffic", "solve", "--aadt", aadt)
        assert via_network == via_aadt

    def test_exit_count_mismatch(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys, "traffic", "generate", "--exits", "31",
            "--aadt", str(fixtures_dir / "aadt_synthetic.csv"),
            "--out", str(tmp_path / "ring.network"),
        )
        assert code == 1
        assert "--exits 31 does not match the 32 exits in the AADT file" in err

    def test_exits_flag_required(self, capsys, fixtures_dir, tmp_path):
        code, _, _ = run(
            capsys, "traffic", "generate",
            "--aadt", str(fixtures_dir / "aadt_synthetic.csv"),
            "--out", str(tmp_path / "ring.network"),
        )
        assert code == 1


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "solve", "--help")
        assert code == 0
        assert "--method" in out

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_module_entry_point(self, fixtures_dir):
        result = subprocess.run(
            [sys.executable, "-m", "ringsolve", "analyze", str(fixtures_dir / "sec21.mat")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "recommendation" in result.stdout
        assert "gauss-seidel" in result.stdout


class TestGoldenOutput:
    """Plain output pinned byte for byte.

    The files under ``tests/golden`` were written by the dense-storage
    implementation that the CSR core replaced, and the forced-method ones
    by the three separate sweep loops that the one sweep kernel replaced;
    neither storage nor the kernel may change a single printed digit.  The
    ``convdiff5`` files, a nonsymmetric grid whose radii are all measured
    by power iteration, were written by the column-by-column substitution
    that the row-wise ``_iteration_array`` replaced.  The ``poisson10``
    files, a symmetric positive definite grid that is not tridiagonal, were
    written by the dense Cholesky loop that the envelope factorization
    replaced.  The ``ring256`` and ``tri200`` files, tridiagonal systems
    with at least 128 unknowns, were written when every sweep ran in the
    Python kernel; they pin the wavefront that now runs the deferred
    sweeps.  The forced-method ring runs stop at ``--max-iter`` and print
    the last iterate of the whole stretch; ``tri200`` records a residual
    on every sweep of it.
    """

    def test_solve_and_history(self, capsys, sec21, tmp_path):
        history = tmp_path / "history.csv"
        code, out, err = run(capsys, "solve", *sec21, "--history", str(history))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "sec21_solve.out").read_text()
        assert history.read_text() == (GOLDEN / "sec21_history.csv").read_text()

    def test_analyze_json(self, capsys, sec21):
        code, out, err = run(capsys, "analyze", "--json", sec21[0])
        assert code == 0 and err == ""
        assert out == (GOLDEN / "sec21_analyze.json").read_text()

    def test_general_matrix_analyze_json(self, capsys, convdiff5):
        code, out, err = run(capsys, "analyze", "--json", convdiff5[0])
        assert code == 0 and err == ""
        assert out == (GOLDEN / "convdiff5_analyze.json").read_text()

    def test_general_matrix_solve_and_history(self, capsys, convdiff5, tmp_path):
        history = tmp_path / "history.csv"
        code, out, err = run(capsys, "solve", *convdiff5, "--history", str(history))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "convdiff5_solve.out").read_text()
        assert history.read_text() == (GOLDEN / "convdiff5_history.csv").read_text()

    def test_traffic_solve_network(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "traffic", "solve", str(fixtures_dir / "fig1.network"))
        assert code == 0
        assert out == (GOLDEN / "fig1_traffic_solve.out").read_text()

    def test_traffic_solve_aadt(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "traffic", "solve", "--aadt", str(fixtures_dir / "aadt_synthetic.csv")
        )
        assert code == 0
        assert out == (GOLDEN / "aadt_traffic_solve.out").read_text()

    def test_forced_jacobi_and_history(self, capsys, sec21, tmp_path):
        history = tmp_path / "history.csv"
        code, out, err = run(
            capsys, "solve", *sec21, "--method", "jacobi", "--history", str(history)
        )
        assert code == 0 and err == ""
        assert out == (GOLDEN / "sec21_jacobi_solve.out").read_text()
        assert history.read_text() == (GOLDEN / "sec21_jacobi_history.csv").read_text()

    def test_forced_sor_weight(self, capsys, sec21):
        code, out, err = run(capsys, "solve", *sec21, "--method", "sor", "--omega", "1.1")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "sec21_sor_solve.out").read_text()

    def test_traffic_solve_network_gauss_seidel(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "traffic",
            "solve",
            str(fixtures_dir / "fig1.network"),
            "--method",
            "gauss-seidel",
        )
        assert code == 0
        assert out == (GOLDEN / "fig1_gs_traffic_solve.out").read_text()

    def test_traffic_solve_aadt_forced_sor(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "traffic",
            "solve",
            "--aadt",
            str(fixtures_dir / "aadt_synthetic.csv"),
            "--method",
            "sor",
            "--omega",
            "1.9",
        )
        assert code == 0
        assert out == (GOLDEN / "aadt_sor_traffic_solve.out").read_text()

    def test_symmetric_grid_analyze_json(self, capsys, poisson10):
        code, out, err = run(capsys, "analyze", "--json", poisson10[0])
        assert code == 0 and err == ""
        assert out == (GOLDEN / "poisson10_analyze.json").read_text()

    def test_symmetric_grid_solve_and_history(self, capsys, poisson10, tmp_path):
        history = tmp_path / "history.csv"
        code, out, err = run(
            capsys, "solve", *poisson10, "--eta", "1e-8", "--history", str(history)
        )
        assert code == 0 and err == ""
        assert out == (GOLDEN / "poisson10_solve.out").read_text()
        assert history.read_text() == (GOLDEN / "poisson10_history.csv").read_text()

    def test_large_ring_traffic_solve(self, capsys, fixtures_dir):
        code, out, err = run(
            capsys, "traffic", "solve", "--aadt", str(fixtures_dir / "ring256.csv")
        )
        assert code == 0 and err == ""
        assert out == (GOLDEN / "ring256_traffic_solve.out").read_text()

    @pytest.mark.parametrize(
        "golden,args",
        [
            ("ring256_gs_traffic_solve.out", ["--method", "gauss-seidel", "--max-iter", "700"]),
            ("ring256_jacobi_traffic_solve.out", ["--method", "jacobi", "--max-iter", "400"]),
            (
                "ring256_sor_traffic_solve.out",
                ["--method", "sor", "--omega", "1.2", "--max-iter", "900"],
            ),
        ],
    )
    def test_large_ring_forced_methods_stop_at_max_iter(
        self, capsys, fixtures_dir, golden, args
    ):
        code, out, err = run(
            capsys, "traffic", "solve", "--aadt", str(fixtures_dir / "ring256.csv"), *args
        )
        assert code == 2 and "did not converge" in err
        assert out == (GOLDEN / golden).read_text()

    def test_large_tridiagonal_solve_and_history(self, capsys, fixtures_dir, tmp_path):
        history = tmp_path / "history.csv"
        matrix, rhs = fixtures_dir / "tri200.mat", fixtures_dir / "tri200.rhs"
        code, out, err = run(capsys, "solve", str(matrix), str(rhs), "--history", str(history))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "tri200_solve.out").read_text()
        assert history.read_text() == (GOLDEN / "tri200_history.csv").read_text()
