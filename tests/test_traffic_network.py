"""Network model, ring assembly, reduction, and the traffic pipeline."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import identity, ring_matrix, ring_system, to_rows, vec_bits
from oracles import solve_direct
from ringsolve import (
    Branch,
    FlowNetwork,
    Method,
    Node,
    ReductionError,
    RingSpec,
    SolverConfig,
    SparseMatrix,
    Vector,
    assemble,
    classify,
    close_exits,
    generate_ring,
    matvec,
    norm2,
    parse_aadt,
    parse_network,
    reconstruct,
    reduce,
    select_method,
    solve,
    solve_traffic,
)
from ringsolve import matrix_core, stationary_solvers

FIG1_EXTERNALS = (100.0, -50.0, 120.0, -150.0, 80.0, -100.0)
FIG1_FLOWS = (150.0, 50.0, 100.0, -20.0, 130.0, 50.0)


def ring_network(externals):
    n = len(externals)
    spec = RingSpec(n, tuple((max(v, 0.0), max(-v, 0.0)) for v in externals))
    return generate_ring(spec)


class TestNode:
    def test_fields(self):
        node = Node("12", -3.5)
        assert node.node_id == "12"
        assert node.external_net_inflow == -3.5

    @pytest.mark.parametrize("bad_id", ["", 7, None])
    def test_id_must_be_nonempty_string(self, bad_id):
        with pytest.raises(ValueError, match="non-empty string"):
            Node(bad_id, 0.0)

    def test_inflow_must_be_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            Node("1", math.nan)


class TestBranch:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="branch 3 is a self-loop at 'B'"):
            Branch(3, "B", "B")


class TestFlowNetwork:
    def test_duplicate_node_id(self):
        with pytest.raises(ValueError, match="duplicate node id 'A'"):
            FlowNetwork(
                (Node("A", 0.0), Node("A", 1.0), Node("B", 0.0)),
                (Branch(0, "A", "B"),),
            )

    def test_branch_ids_must_match_positions(self):
        with pytest.raises(ValueError, match="match their positions"):
            FlowNetwork(
                (Node("A", 0.0), Node("B", 0.0)),
                (Branch(1, "A", "B"),),
            )

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="branch 0 references unknown node 'C'"):
            FlowNetwork((Node("A", 0.0), Node("B", 0.0)), (Branch(0, "A", "C"),))

    def test_isolated_node(self):
        with pytest.raises(ValueError, match="node 'C' is isolated"):
            FlowNetwork(
                (Node("A", 0.0), Node("B", 0.0), Node("C", 0.0)),
                (Branch(0, "A", "B"),),
            )

    def test_empty_network(self):
        with pytest.raises(ValueError, match="no nodes"):
            FlowNetwork((), ())

    def test_node_index(self):
        network = ring_network([0.0, 0.0, 0.0])
        assert network.node_index("1") == 0
        assert network.node_index("3") == 2
        with pytest.raises(KeyError):
            network.node_index("9")


class TestIsRing:
    def test_generated_ring(self):
        assert ring_network([1.0, -1.0, 0.0, 0.0]).is_ring()

    def test_chain_is_not_a_ring(self):
        network = FlowNetwork(
            (Node("A", 0.0), Node("B", 0.0), Node("C", 0.0)),
            (Branch(0, "A", "B"), Branch(1, "B", "C")),
        )
        assert not network.is_ring()

    def test_two_disjoint_cycles_are_not_a_ring(self):
        nodes = tuple(Node(name, 0.0) for name in "ABCDEF")
        branches = (
            Branch(0, "A", "B"),
            Branch(1, "B", "C"),
            Branch(2, "C", "A"),
            Branch(3, "D", "E"),
            Branch(4, "E", "F"),
            Branch(5, "F", "D"),
        )
        assert not FlowNetwork(nodes, branches).is_ring()

    def test_repeated_source_is_not_a_ring(self):
        network = FlowNetwork(
            (Node("A", 0.0), Node("B", 0.0), Node("C", 0.0)),
            (Branch(0, "A", "B"), Branch(1, "B", "A"), Branch(2, "B", "C")),
        )
        assert not network.is_ring()


class TestRingSpec:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 3 exits"):
            RingSpec(2, ((1.0, 1.0), (1.0, 1.0)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3 exit records, got 2"):
            RingSpec(3, ((1.0, 1.0), (1.0, 1.0)))

    def test_negative_count_names_exit_and_direction(self):
        with pytest.raises(ValueError, match="outflow AADT of exit 2"):
            RingSpec(3, ((1.0, 1.0), (1.0, -2.0), (1.0, 1.0)))

    def test_non_finite_count(self):
        with pytest.raises(ValueError, match="inflow AADT of exit 1"):
            RingSpec(3, ((math.inf, 1.0), (1.0, 1.0), (1.0, 1.0)))


class TestGenerateRing:
    def test_nodes_named_one_through_n_with_net_inflow(self):
        spec = RingSpec(3, ((30.0, 10.0), (5.0, 25.0), (10.0, 10.0)))
        network = generate_ring(spec)
        assert [node.node_id for node in network.nodes] == ["1", "2", "3"]
        assert [node.external_net_inflow for node in network.nodes] == [20.0, -20.0, 0.0]

    def test_branches_descend_with_wraparound(self):
        network = generate_ring(RingSpec(6, ((0.0, 0.0),) * 6))
        got = [(b.branch_id, b.from_node, b.to_node) for b in network.branches]
        assert got == [
            (0, "1", "6"),
            (1, "2", "1"),
            (2, "3", "2"),
            (3, "4", "3"),
            (4, "5", "4"),
            (5, "6", "5"),
        ]

    def test_assembles_to_circulant_pattern(self):
        a, b = ring_system([7.0, -1.0, -2.0, -4.0])
        assert to_rows(a) == [
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
        assert b.entries == (7.0, -1.0, -2.0, -4.0)

    @pytest.mark.parametrize("n", [3, 4, 7, 32])
    def test_ones_vector_spans_null_space(self, n):
        a = ring_matrix(n)
        assert matvec(a, Vector((1.0,) * n)).entries == (0.0,) * n


class TestAssemble:
    def test_rows_are_sign_normalized_to_own_branch(self):
        # Branch i enters node i here, so every raw row starts at -1 on the
        # diagonal and must come out flipped.
        network = FlowNetwork(
            (Node("a", 5.0), Node("b", -3.0), Node("c", -2.0)),
            (Branch(0, "b", "a"), Branch(1, "c", "b"), Branch(2, "a", "c")),
        )
        a, b = assemble(network)
        assert to_rows(a) == [
            [1.0, 0.0, -1.0],
            [-1.0, 1.0, 0.0],
            [0.0, -1.0, 1.0],
        ]
        assert b.entries == (-5.0, 3.0, 2.0)

    def test_row_with_positive_own_coefficient_is_not_flipped(self):
        # Node a's row sees branch 0 entering (-1 at its own index): flip.
        # Node b's row sees branch 1 leaving (+1 at its own index): keep.
        network = FlowNetwork(
            (Node("a", 1.0), Node("b", -1.0)),
            (Branch(0, "b", "a"), Branch(1, "b", "a")),
        )
        a, b = assemble(network)
        assert to_rows(a) == [[1.0, 1.0], [1.0, 1.0]]
        assert b.entries == (-1.0, -1.0)

    def test_columns_sum_to_zero(self):
        a, _ = ring_system([1.0, 2.0, -3.0, 0.0, 0.0])
        rows = to_rows(a)
        for j in range(5):
            assert sum(rows[i][j] for i in range(5)) == 0.0


class TestReduce:
    def test_large_ring_normal_matrix_stays_sparse(self):
        red = reduce(*ring_system([0.0] * 1024))
        assert isinstance(red.normal_matrix, SparseMatrix)
        assert len(red.normal_matrix.values) == 3 * 1023 - 2

    def test_ring4_reduction_is_exact(self):
        a, b = ring_system([100.0, -50.0, 120.0, -170.0])
        red = reduce(a, b)
        assert red.dropped_column == 3
        assert red.a_tilde.rows == 4 and red.a_tilde.cols == 3
        assert to_rows(red.a_tilde) == [
            [1.0, -1.0, 0.0],
            [0.0, 1.0, -1.0],
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
        ]
        assert to_rows(red.normal_matrix) == [
            [2.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 2.0],
        ]
        assert red.normal_rhs.entries == (270.0, -150.0, 170.0)

    @pytest.mark.parametrize("n", [3, 5, 17, 40])
    def test_normal_matrix_is_exact_laplacian(self, n):
        red = reduce(*ring_system([0.0] * n))
        rows = to_rows(red.normal_matrix)
        for i in range(n - 1):
            for j in range(n - 1):
                want = 2.0 if i == j else (-1.0 if abs(i - j) == 1 else 0.0)
                assert rows[i][j] == want

    def test_unbalanced_matrix_rejected(self):
        with pytest.raises(
            ReductionError, match="matrix is not circulant-balanced; reduction inapplicable"
        ):
            reduce(identity(3), Vector.zeros(3))

    def test_rhs_length_checked(self):
        a = ring_matrix(3)
        with pytest.raises(ValueError, match="3 rows but b has 2 entries"):
            reduce(a, Vector.zeros(2))

    def test_tiny_system_rejected(self):
        with pytest.raises(ValueError, match="1x1"):
            reduce(SparseMatrix.from_rows([[0.0]]), Vector.zeros(1))

    def test_disjoint_cycles_rejected(self, fixtures_dir):
        network = parse_network((fixtures_dir / "two_rings.network").read_text())
        with pytest.raises(ReductionError) as err:
            reduce(*assemble(network))
        assert str(err.value) == (
            "network is not one ring: its branches form several disjoint cycles"
        )

    def test_balanced_zero_system_rejected(self):
        zero = SparseMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ReductionError, match="several disjoint cycles"):
            reduce(zero, Vector.zeros(2))

    @given(
        st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_only_one_cycle_reduces_property(self, sizes, rnd):
        # Disjoint cycles of the given sizes, with nodes and branches in a
        # random order and random externals.
        names = [f"n{i}" for i in range(sum(sizes))]
        rnd.shuffle(names)
        cycles, at = [], 0
        for size in sizes:
            cycles.append(names[at : at + size])
            at += size
        arcs = [(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]
        rnd.shuffle(arcs)
        branches = tuple(Branch(i, u, v) for i, (u, v) in enumerate(arcs))
        nodes = tuple(Node(name, float(rnd.randint(-9, 9))) for name in sorted(names))
        a, b = assemble(FlowNetwork(nodes, branches))
        if len(sizes) == 1:
            red = reduce(a, b)
            assert red.normal_matrix.rows == len(names) - 1
        else:
            with pytest.raises(ReductionError, match="several disjoint cycles"):
                reduce(a, b)

    @given(st.lists(st.integers(min_value=-500, max_value=500), min_size=3, max_size=12))
    def test_normal_rhs_is_transpose_times_b_property(self, externals):
        a, b = ring_system([float(v) for v in externals])
        red = reduce(a, b)
        cols = to_rows(red.a_tilde)
        n = len(externals)
        for j in range(n - 1):
            want = sum(cols[i][j] * b[i] for i in range(n))
            assert red.normal_rhs[j] == want


class TestReconstruct:
    def test_zero_vector(self):
        full, c = reconstruct(Vector.zeros(3))
        assert full.entries == (0.0, 0.0, 0.0, 0.0)
        assert c == 0.0

    def test_odd_count_uses_middle_entry(self):
        full, c = reconstruct(Vector((1.0, 2.0, 3.0)))
        assert c == 2.0
        assert full.entries == (3.0, 4.0, 5.0, 2.0)

    def test_even_count_uses_midpoint(self):
        full, c = reconstruct(Vector((1.0, 2.0, 3.0, 4.0)))
        assert c == 2.5
        assert full.entries == (3.5, 4.5, 5.5, 6.5, 2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty reduced solution"):
            reconstruct(Vector(()))

    def test_reconstruction_solves_the_full_ring(self):
        a, b = ring_system([100.0, -50.0, 120.0, -170.0])
        red = reduce(a, b)
        full, c = reconstruct(solve_direct(red.normal_matrix, red.normal_rhs))
        assert full[3] == c
        assert norm2(Vector(tuple(r - v for r, v in zip(matvec(a, full).entries, b.entries)))) < 1e-10

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=9))
    def test_shift_moves_every_entry_by_the_same_constant_property(self, entries):
        reduced = Vector(tuple(entries))
        full, c = reconstruct(reduced)
        assert len(full) == len(reduced) + 1
        assert full[len(reduced)] == c
        for i, v in enumerate(reduced.entries):
            assert full[i] == v + c


class TestCloseExits:
    def test_empty_closure_returns_same_object(self):
        network = ring_network([1.0, -1.0, 0.0])
        assert close_exits(network, []) is network

    def test_close_one_exit_of_four(self):
        closed = close_exits(ring_network([0.0, 0.0, 0.0, 0.0]), ["2"])
        assert [node.node_id for node in closed.nodes] == ["1", "3", "4"]
        got = [(b.branch_id, b.from_node, b.to_node) for b in closed.branches]
        assert got == [(0, "1", "4"), (1, "3", "1"), (2, "4", "3")]
        assert closed.is_ring()

    def test_closed_network_assembles_to_ring_pattern(self):
        closed = close_exits(ring_network([5.0, 0.0, -3.0, -2.0]), ["2"])
        a, b = assemble(closed)
        assert to_rows(a) == [
            [1.0, -1.0, 0.0],
            [0.0, 1.0, -1.0],
            [-1.0, 0.0, 1.0],
        ]
        assert b.entries == (5.0, -3.0, -2.0)

    def test_integer_ids_and_duplicates_are_normalized(self):
        network = ring_network([0.0] * 5)
        a = close_exits(network, ["2", 2, "2"])
        b = close_exits(network, ["2"])
        assert a == b

    def test_unknown_exit(self):
        with pytest.raises(ValueError, match="cannot close unknown exit '9'"):
            close_exits(ring_network([0.0] * 4), ["9"])

    def test_requires_ring(self):
        network = FlowNetwork(
            (Node("A", 0.0), Node("B", 0.0), Node("C", 0.0)),
            (Branch(0, "A", "B"), Branch(1, "B", "C")),
        )
        with pytest.raises(ValueError, match="exit closure requires a ring network"):
            close_exits(network, ["A"])

    def test_must_leave_at_least_three(self):
        with pytest.raises(ValueError, match="closing 2 exits would leave 2 nodes"):
            close_exits(ring_network([0.0] * 4), ["1", "3"])

    def test_closing_balanced_exit_preserves_balance(self):
        network = ring_network([40.0, 0.0, -15.0, -25.0, 0.0])
        closed = close_exits(network, ["2"])
        _, b = assemble(closed)
        assert sum(b.entries) == 0.0
        flows, report, _ = solve_traffic(closed, SolverConfig(eta=1e-9))
        assert report.converged
        assert not flows.imbalance_warning
        assert flows.residual_norm <= 1e-6


class TestSolveTraffic:
    def test_six_exit_worked_example(self):
        network = ring_network(FIG1_EXTERNALS)
        flows, report, profile = solve_traffic(network, SolverConfig(eta=1e-9))
        assert report.converged
        assert not flows.imbalance_warning
        assert max(abs(a - b) for a, b in zip(flows.flows.entries, FIG1_FLOWS)) < 1e-6
        assert abs(flows.shift_constant - 50.0) < 1e-6
        assert flows.residual_norm <= 1e-6
        assert profile.is_positive_definite and profile.is_tridiagonal

    def test_flows_satisfy_junction_conservation(self):
        network = ring_network(FIG1_EXTERNALS)
        a, b = assemble(network)
        flows, _, _ = solve_traffic(network, SolverConfig(eta=1e-9))
        drift = matvec(a, flows.flows)
        assert max(abs(d - v) for d, v in zip(drift.entries, b.entries)) < 1e-6

    def test_auto_selection_prefers_sor_on_ring_normals(self):
        network = ring_network(FIG1_EXTERNALS)
        _, report, profile = solve_traffic(network, SolverConfig(eta=1e-6))
        assert isinstance(profile.recommendation, Method)
        assert profile.recommendation.tag == "sor"
        assert profile.omega_star is not None
        assert set(report.predicted_counts) == {"jacobi", "gauss-seidel", "sor"}
        assert report.predicted_iterations == report.predicted_counts["sor"]

    def test_forced_method_is_used(self):
        network = ring_network(FIG1_EXTERNALS)
        _, rep_j, _ = solve_traffic(network, SolverConfig(method=Method.jacobi(), eta=1e-6))
        _, rep_g, _ = solve_traffic(
            network, SolverConfig(method=Method.gauss_seidel(), eta=1e-6)
        )
        assert rep_j.predicted_iterations == rep_j.predicted_counts["jacobi"]
        assert rep_g.predicted_counts == rep_j.predicted_counts
        assert rep_g.iterations_run < rep_j.iterations_run

    def test_forced_sor_weight_keeps_the_counts_at_the_profiled_weight(self):
        network = ring_network(FIG1_EXTERNALS)
        config = SolverConfig(method=Method.sor(1.2), eta=1e-6)
        _, report, profile = solve_traffic(network, config)
        assert profile.sor_omega == profile.omega_star != 1.2
        # "sor" is counted at sor_omega; the run's own count is at 1.2.
        assert report.predicted_counts == {"jacobi": 158, "gauss-seidel": 76, "sor": 20}
        assert report.predicted_iterations == 45

    def test_plain_solve_reports_the_pipeline_counts(self, fixtures_dir):
        network = generate_ring(parse_aadt((fixtures_dir / "aadt_synthetic.csv").read_text()))
        config = SolverConfig(eta=1e-3)
        _, report, _ = solve_traffic(network, config)
        red = reduce(*assemble(network))
        profile = classify(red.normal_matrix)
        plain = solve(
            red.normal_matrix,
            red.normal_rhs,
            replace(config, method=select_method(profile)[0]),
            profile,
        )
        assert plain.predicted_counts == report.predicted_counts
        assert plain.predicted_iterations == report.predicted_iterations

    def test_one_split_and_one_first_sweep_per_counted_method(self, monkeypatch):
        # A 32-exit ring reduces to 31 unknowns, below the wavefront
        # threshold, so every sweep, first sweeps included, is one kernel call.
        externals = [float((7 * i) % 11 - 5) for i in range(31)]
        network = ring_network(externals + [-sum(externals)])
        splits, sweeps = [], []

        def counting_split(a):
            splits.append(a)
            return split_dlu(a)

        def counting_sweep(*args):
            sweeps.append(args)
            return kernel(*args)

        kernel = stationary_solvers._sweep
        split_dlu = matrix_core.split_dlu
        monkeypatch.setattr(matrix_core, "split_dlu", counting_split)
        monkeypatch.setattr(stationary_solvers, "_sweep", counting_sweep)
        _, report, _ = solve_traffic(network, SolverConfig(eta=1e-6))
        assert report.converged and len(report.predicted_counts) == 3
        assert len(splits) == 1
        assert len(sweeps) == report.iterations_run + len(report.predicted_counts) - 1

    @pytest.mark.parametrize(
        "fixture, eta, counts",
        [
            ("fig1.network", 1e-3, {"jacobi": 110, "gauss-seidel": 52, "sor": 13}),
            ("fig1.network", 1e-8, {"jacobi": 190, "gauss-seidel": 92, "sor": 24}),
            ("aadt_synthetic.csv", 1e-3, {"jacobi": 5110, "gauss-seidel": 2471, "sor": 111}),
            ("aadt_synthetic.csv", 1e-8, {"jacobi": 7495, "gauss-seidel": 3664, "sor": 169}),
        ],
    )
    def test_predicted_counts_are_pinned(self, fixtures_dir, fixture, eta, counts):
        text = (fixtures_dir / fixture).read_text()
        if fixture.endswith(".network"):
            network = parse_network(text)
        else:
            network = generate_ring(parse_aadt(text))
        _, report, _ = solve_traffic(network, SolverConfig(eta=eta))
        assert report.predicted_counts == counts
        assert report.predicted_iterations == counts["sor"]

    def test_disjoint_cycles_are_rejected(self, fixtures_dir):
        network = parse_network((fixtures_dir / "two_rings.network").read_text())
        assert not network.is_ring()
        with pytest.raises(ReductionError, match="^network is not one ring: "):
            solve_traffic(network, SolverConfig())

    def test_reduction_errors_come_before_the_ring_check(self):
        nodes = (Node("A", 1.0), Node("B", 0.0), Node("C", -1.0))
        fan = (Branch(0, "A", "B"), Branch(1, "A", "C"), Branch(2, "B", "C"))
        with pytest.raises(ReductionError, match="not circulant-balanced"):
            solve_traffic(FlowNetwork(nodes, fan), SolverConfig())
        with pytest.raises(ValueError, match="expected square"):
            solve_traffic(FlowNetwork(nodes, fan[:2]), SolverConfig())

    def test_unbalanced_externals_warn_and_fit_least_squares(self):
        network = ring_network([10.0, 0.0, 0.0])
        flows, report, _ = solve_traffic(network, SolverConfig(eta=1e-9))
        assert flows.imbalance_warning
        assert report.converged
        # The ring's column space is the sum-zero subspace, so the best fit
        # leaves exactly the mean drift at every junction.
        assert abs(flows.residual_norm - 10.0 / math.sqrt(3.0)) < 1e-6

    def test_deterministic(self):
        network = ring_network(FIG1_EXTERNALS)
        first = solve_traffic(network, SolverConfig(eta=1e-9))
        second = solve_traffic(network, SolverConfig(eta=1e-9))
        assert vec_bits(first[0].flows) == vec_bits(second[0].flows)
        assert first[0].shift_constant == second[0].shift_constant
        assert first[1].iterations_run == second[1].iterations_run
