"""Text formats: parsing, writing, and bit-exact round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_entries, from_flat, to_rows, vec_bits
from oracles import csr_from_dense
from ringsolve import (
    ParseError,
    SegmentFlows,
    SparseMatrix,
    Vector,
    generate_ring,
    parse_aadt,
    parse_matrix,
    parse_network,
    parse_segments,
    parse_vector,
    write_aadt,
    write_matrix,
    write_network,
    write_segments,
    write_vector,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestParseErrorType:
    def test_message_and_attributes(self):
        err = ParseError(7, "boom")
        assert str(err) == "line 7: boom"
        assert err.line_no == 7
        assert isinstance(err, ValueError)


class TestParseMatrixDense:
    def test_happy_path(self):
        m = parse_matrix("dense 2 3\n1 2 3\n4 5 -6.5\n")
        assert isinstance(m, SparseMatrix)
        assert to_rows(m) == [[1.0, 2.0, 3.0], [4.0, 5.0, -6.5]]

    def test_comments_and_blanks_keep_physical_numbering(self):
        text = "# heading\n\ndense 2 2\n1 2\n\n# middle\n3 4\n"
        m = parse_matrix(text)
        assert to_rows(m) == [[1.0, 2.0], [3.0, 4.0]]

    def test_short_row_reports_physical_line(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("dense 2 2\n1 2\n3\n")
        assert str(err.value) == "line 3: expected 2 values, found 1"
        assert err.value.line_no == 3

    def test_short_row_after_comments_counts_raw_lines(self):
        text = "# one\n# two\ndense 2 2\n1 2\n3 4 5\n"
        with pytest.raises(ParseError, match="line 5: expected 2 values, found 3"):
            parse_matrix(text)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="expected a matrix header"):
            parse_matrix("# nothing here\n")

    def test_bad_header_arity(self):
        with pytest.raises(ParseError, match="expected 'dense R C'"):
            parse_matrix("dense 2\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="expected 'dense' or 'sparse' header, got 'full'"):
            parse_matrix("full 2 2\n")

    def test_non_positive_dimensions(self):
        with pytest.raises(ParseError, match="dimensions must be positive"):
            parse_matrix("dense 0 2\n")

    def test_non_integer_dimension(self):
        with pytest.raises(ParseError, match="invalid row count 'x'"):
            parse_matrix("dense x 2\n")

    def test_missing_rows_reported_at_eof(self):
        with pytest.raises(ParseError, match="line 3: expected 2 matrix rows, found 1"):
            parse_matrix("dense 2 2\n1 2")

    def test_extra_data_line(self):
        with pytest.raises(ParseError, match="line 4: unexpected extra data line"):
            parse_matrix("dense 2 2\n1 2\n3 4\n5 6\n")

    def test_invalid_decimal(self):
        with pytest.raises(ParseError, match="line 2: invalid decimal 'two'"):
            parse_matrix("dense 1 2\n1 two\n")

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(ParseError, match=f"non-finite value '{token}'"):
            parse_matrix(f"dense 1 1\n{token}\n")


class TestParseMatrixSparse:
    def test_happy_path(self):
        m = parse_matrix("sparse 2 3 3\n0 0 1.5\n0 2 -2\n1 1 4\n")
        assert isinstance(m, SparseMatrix)
        assert to_rows(m) == [[1.5, 0.0, -2.0], [0.0, 4.0, 0.0]]

    def test_zero_entries_allowed(self):
        m = parse_matrix("sparse 2 2 0\n")
        assert to_rows(m) == [[0.0, 0.0], [0.0, 0.0]]

    def test_duplicate_entry(self):
        with pytest.raises(ParseError, match=r"line 3: duplicate entry at \(0, 0\)"):
            parse_matrix("sparse 2 2 2\n0 0 1\n0 0 2\n")

    def test_unsorted_entries(self):
        with pytest.raises(ParseError, match=r"line 3: entries not sorted by \(row, col\)"):
            parse_matrix("sparse 2 2 2\n1 1 1\n0 0 2\n")

    def test_row_index_out_of_range(self):
        with pytest.raises(ParseError, match="row index 2 out of range for 2 rows"):
            parse_matrix("sparse 2 2 1\n2 0 1\n")

    def test_column_index_out_of_range(self):
        with pytest.raises(ParseError, match="column index 5 out of range for 2 columns"):
            parse_matrix("sparse 2 2 1\n0 5 1\n")

    def test_entry_arity(self):
        with pytest.raises(ParseError, match="line 2: expected 3 values, found 2"):
            parse_matrix("sparse 2 2 1\n0 0\n")

    def test_missing_entries_reported_at_eof(self):
        with pytest.raises(ParseError, match="expected 2 entries, found 1"):
            parse_matrix("sparse 2 2 2\n0 0 1\n")

    def test_extra_entry_line(self):
        with pytest.raises(ParseError, match="unexpected extra data line"):
            parse_matrix("sparse 2 2 1\n0 0 1\n1 1 2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="expected 'sparse R C NNZ'"):
            parse_matrix("sparse 2 2\n")


# Signed zeros, subnormals and ordinary finite values.
matrix_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, -2.5e-320]),
    finite_floats,
)


@st.composite
def dense_rows(draw):
    """Row lists of a 1 x 1 to 4 x 4 matrix."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(matrix_entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def csr_bits(m):
    return (m.rows, m.cols, m.row_offsets, m.col_indices, vec_bits(m.values))


class TestWriteMatrix:
    def test_dense_file_is_written_as_sparse(self):
        m = parse_matrix("dense 2 2\n1 0.5\n-0 0\n")
        assert write_matrix(m) == "sparse 2 2 3\n0 0 1\n0 1 0.5\n1 0 -0\n"

    def test_sparse_text(self):
        m = SparseMatrix.from_rows([[1.5, 0.0], [0.0, -0.0]])
        assert write_matrix(m) == "sparse 2 2 2\n0 0 1.5\n1 1 -0\n"

    def test_round_trip_preserves_negative_zero(self):
        m = SparseMatrix.from_rows([[-0.0, 1e-300], [12345.678901234567, -2.0]])
        back = parse_matrix(write_matrix(m))
        assert csr_bits(back) == csr_bits(m)

    def test_sparse_round_trip(self):
        m = SparseMatrix.from_rows([[0.0, -0.0], [3.5, 0.0]])
        back = parse_matrix(write_matrix(m))
        assert isinstance(back, SparseMatrix)
        assert back == m

    @given(st.lists(finite_floats, min_size=6, max_size=6))
    def test_round_trip_is_bit_exact_property(self, cells):
        m = from_flat(2, 3, cells)
        back = parse_matrix(write_matrix(m))
        assert vec_bits(dense_entries(back)) == vec_bits(dense_entries(m))

    @given(dense_rows())
    def test_dense_text_and_from_rows_match_the_conversion_oracle(self, rows):
        """A dense file and ``from_rows`` store exactly the entries that are
        not +0.0, as the old dense-to-CSR conversion did."""
        want = csr_from_dense(len(rows), len(rows[0]), [v for row in rows for v in row])
        text = f"dense {len(rows)} {len(rows[0])}\n" + "".join(
            " ".join(repr(v) for v in row) + "\n" for row in rows
        )
        parsed = parse_matrix(text)
        assert csr_bits(parsed) == csr_bits(want)
        assert csr_bits(SparseMatrix.from_rows(rows)) == csr_bits(want)
        assert csr_bits(parse_matrix(write_matrix(parsed))) == csr_bits(parsed)


class TestVectorFormat:
    def test_parse(self):
        v = parse_vector("# rhs\n1\n\n2.5\n-3e2\n")
        assert v.entries == (1.0, 2.5, -300.0)

    def test_too_many_values_on_line(self):
        with pytest.raises(ParseError, match="line 2: expected 1 value, found 2"):
            parse_vector("1\n2 3\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="expected at least one value"):
            parse_vector("# empty\n")

    def test_write_text(self):
        assert write_vector(Vector((1.0, -0.0, 0.25))) == "1\n-0\n0.25\n"

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_round_trip_is_bit_exact_property(self, entries):
        v = Vector(tuple(entries))
        assert vec_bits(parse_vector(write_vector(v))) == vec_bits(v)


class TestNetworkFormat:
    def test_fixture_parses_to_six_junction_ring(self, fixtures_dir):
        network = parse_network((fixtures_dir / "fig1.network").read_text())
        assert [n.node_id for n in network.nodes] == ["A", "B", "C", "D", "E", "F"]
        assert [n.external_net_inflow for n in network.nodes] == [
            100.0,
            -50.0,
            120.0,
            -150.0,
            80.0,
            -100.0,
        ]
        assert [(b.branch_id, b.from_node, b.to_node) for b in network.branches] == [
            (0, "A", "F"),
            (1, "B", "A"),
            (2, "C", "B"),
            (3, "D", "C"),
            (4, "E", "D"),
            (5, "F", "E"),
        ]
        assert network.is_ring()
        assert sum(n.external_net_inflow for n in network.nodes) == 0.0

    def test_round_trip(self, fixtures_dir):
        network = parse_network((fixtures_dir / "fig1.network").read_text())
        assert parse_network(write_network(network)) == network

    def test_unknown_node_in_branch(self):
        text = "node A 1\nnode B -1\nbranch A B\nbranch A Z\n"
        with pytest.raises(ParseError, match="line 4: unknown node 'Z'"):
            parse_network(text)

    def test_nodes_must_precede_branches(self):
        with pytest.raises(ParseError, match="line 1: unknown node 'A'"):
            parse_network("branch A B\nnode A 1\nnode B -1\n")

    def test_duplicate_node(self):
        with pytest.raises(ParseError, match="line 2: duplicate node id 'A'"):
            parse_network("node A 1\nnode A 2\n")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop branch at node 'A'"):
            parse_network("node A 1\nbranch A A\n")

    def test_unknown_record_type(self):
        with pytest.raises(ParseError, match="line 2: unknown record type 'edge'"):
            parse_network("node A 1\nedge A A\n")

    def test_node_arity(self):
        with pytest.raises(ParseError, match="expected 'node <id> <inflow>'"):
            parse_network("node A\n")

    def test_branch_arity(self):
        with pytest.raises(ParseError, match="expected 'branch <from> <to>'"):
            parse_network("node A 1\nbranch A\n")

    def test_no_nodes(self):
        with pytest.raises(ParseError, match="declares no nodes"):
            parse_network("# comment only\n")

    def test_isolated_node_blames_declaration_line(self):
        text = "node A 1\nnode B -1\nnode C 0\nbranch A B\nbranch B A\n"
        with pytest.raises(ParseError, match="line 3: node 'C' has no incident branch"):
            parse_network(text)

    def test_bad_inflow(self):
        with pytest.raises(ParseError, match="invalid decimal 'much'"):
            parse_network("node A much\n")

    @pytest.mark.parametrize("node_id", ["a b", "#x"])
    def test_write_rejects_unserializable_ids(self, node_id):
        from ringsolve import Branch, FlowNetwork, Node

        network = FlowNetwork(
            (Node(node_id, 1.0), Node("y", -1.0)),
            (Branch(0, node_id, "y"), Branch(1, "y", node_id)),
        )
        with pytest.raises(ValueError, match="cannot be serialized"):
            write_network(network)


class TestAadtFormat:
    def test_fixture_first_rows_and_size(self, fixtures_dir):
        spec = parse_aadt((fixtures_dir / "aadt_synthetic.csv").read_text())
        assert spec.n == 32
        assert spec.exits[0] == (52460.0, 51448.0)
        assert spec.exits[1] == (23426.0, 31368.0)
        assert spec.exits[2] == (27177.0, 32799.0)

    def test_fixture_round_trips_to_identical_text(self, fixtures_dir):
        text = (fixtures_dir / "aadt_synthetic.csv").read_text()
        assert write_aadt(parse_aadt(text)) == text

    def test_equal_inflow_outflow_gives_zero_external(self):
        spec = parse_aadt("exit,inflow,outflow\n1,10,5\n2,0,5\n3,30000,30000\n")
        network = generate_ring(spec)
        assert [n.external_net_inflow for n in network.nodes] == [5.0, -5.0, 0.0]

    def test_blank_lines_allowed(self):
        spec = parse_aadt("exit,inflow,outflow\n\n1,1,2\n2,3,4\n\n3,5,6\n")
        assert spec.n == 3

    def test_missing_header(self):
        with pytest.raises(ParseError, match="expected header 'exit,inflow,outflow'"):
            parse_aadt("1,10,20\n2,30,40\n3,50,60\n")

    def test_exit_numbers_must_be_sequential(self):
        with pytest.raises(ParseError, match="line 3: exit number must be 2, got 3"):
            parse_aadt("exit,inflow,outflow\n1,1,1\n3,1,1\n")

    def test_negative_value(self):
        with pytest.raises(ParseError, match="AADT values must be non-negative"):
            parse_aadt("exit,inflow,outflow\n1,-1,1\n")

    def test_field_count(self):
        with pytest.raises(ParseError, match="expected 3 fields, found 2"):
            parse_aadt("exit,inflow,outflow\n1,1\n")

    def test_too_few_exits(self):
        with pytest.raises(ParseError, match="expected at least 3 exits, found 2"):
            parse_aadt("exit,inflow,outflow\n1,1,1\n2,1,1\n")

    def test_bad_exit_number(self):
        with pytest.raises(ParseError, match="invalid exit number 'one'"):
            parse_aadt("exit,inflow,outflow\none,1,1\n")

    def test_round_trip(self):
        spec = parse_aadt("exit,inflow,outflow\n1,10.5,5\n2,0,5.25\n3,3,3\n")
        assert parse_aadt(write_aadt(spec)) == spec


class TestSegmentsFormat:
    def test_write_text(self):
        network = generate_ring(
            parse_aadt("exit,inflow,outflow\n1,5,0\n2,0,2.5\n3,0,2.5\n")
        )
        flows = SegmentFlows(Vector((5.0, -2.5, 0.0)), 0.0, 0.0)
        got = write_segments(network, flows)
        assert got == "segment,from_exit,to_exit,flow\n0,1,3,5\n1,2,1,-2.5\n2,3,2,0\n"

    def test_length_mismatch(self):
        network = generate_ring(
            parse_aadt("exit,inflow,outflow\n1,1,1\n2,1,1\n3,1,1\n")
        )
        with pytest.raises(ValueError, match="2 flows do not match 3 branches"):
            write_segments(network, SegmentFlows(Vector((1.0, 2.0)), 0.0, 0.0))

    def test_parse_round_trip(self):
        text = "segment,from_exit,to_exit,flow\n0,1,3,5\n1,2,1,-2.5\n2,3,2,-0\n"
        rows = parse_segments(text)
        assert rows == ((0, "1", "3", 5.0), (1, "2", "1", -2.5), (2, "3", "2", -0.0))
        assert vec_bits(v for _, _, _, v in rows) == vec_bits((5.0, -2.5, -0.0))

    def test_parse_header_required(self):
        with pytest.raises(ParseError, match="expected header 'segment,from_exit,to_exit,flow'"):
            parse_segments("0,1,3,5\n")

    def test_parse_field_count(self):
        with pytest.raises(ParseError, match="expected 4 fields, found 3"):
            parse_segments("segment,from_exit,to_exit,flow\n0,1,3\n")

    def test_parse_segment_order(self):
        with pytest.raises(ParseError, match="segment id must be 0, got 1"):
            parse_segments("segment,from_exit,to_exit,flow\n1,1,3,5\n")
