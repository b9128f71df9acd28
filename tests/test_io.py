"""File formats, reports, and instance generators."""

import random
from fractions import Fraction

import pytest

from tropcp import (
    Decomposition,
    PatternGraph,
    SymTropMatrix,
    TropScalar,
    TropVector,
    ParseError,
    is_completely_positive,
    is_normalized,
    parse_graph,
    parse_matrix,
    parse_vector,
    pattern_graph,
    render_graph,
    render_matrix,
    render_vector,
    generate_instance,
    random_cp_matrix,
)
from tropcp.cli import main
from tropcp.corpus import paw_graph
from tropcp.reports import embed_decomposition, load_decomposition, make_report
from tropcp.generators import random_pattern_graph


class TestMatrixFormat:
    def test_parse_shifted_example(self):
        A = parse_matrix("3\n0 1 2\n1 2 3\n2 3 4\n")
        assert A == SymTropMatrix.from_rows([[0, 1, 2], [1, 2, 3], [2, 3, 4]])

    def test_parse_one_by_one(self):
        assert parse_matrix("1\n0\n") == SymTropMatrix.zeros(1)

    def test_parse_halves(self):
        A = parse_matrix("2\n0 1/2\n1/2 0\n")
        assert A[0, 1] == Fraction(1, 2)

    def test_parse_decimal_exactly(self):
        A = parse_matrix("2\n0 0.5\n0.5 0\n")
        assert A[0, 1] == Fraction(1, 2)
        assert "1/2" in render_matrix(A)

    def test_parse_inf(self):
        A = parse_matrix("2\n0 inf\ninf 0\n")
        assert A[0, 1].is_inf

    def test_bad_token_has_location(self):
        with pytest.raises(ParseError, match="row 2, column 1"):
            parse_matrix("2\n0 1\nx 0\n")

    def test_asymmetry_has_location(self):
        with pytest.raises(ParseError, match=r"\(1,2\)"):
            parse_matrix("2\n0 1\n2 0\n")

    def test_repeated_bad_token_reports_its_first_location(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("3\n0 1 x\nx 0 x\n1 x 0\n")
        assert str(err.value) == "bad token 'x' at row 1, column 3"

    def test_mirrored_spellings_of_one_value_are_symmetric(self):
        A = parse_matrix("3\n0 1/2 2/4\n2/4 0 0.5\n0.5 1/2 0\n")
        half = Fraction(1, 2)
        assert A == SymTropMatrix.from_rows([[0, half, half], [half, 0, half], [half, half, 0]])
        assert render_matrix(A) == "3\n0 1/2 1/2\n1/2 0 1/2\n1/2 1/2 0\n"

    def test_asymmetry_between_spellings_names_both_values(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("2\n0 2/4\n0.6 0\n")
        assert str(err.value) == "asymmetric entries at (1,2) and (2,1): 1/2 != 3/5"

    @pytest.mark.parametrize("seed", range(12))
    def test_render_matches_the_rows_byte_for_byte(self, seed):
        rng = random.Random(seed)
        values = ["inf", "0", "3", "1/3", "-5/4", "2.25", "0.125", "7/2"]
        n = rng.randint(1, 9)
        A = SymTropMatrix.from_upper_func(n, lambda i, j: TropScalar(rng.choice(values)))
        rows = [" ".join(str(A[i, j]) for j in range(n)) for i in range(n)]
        assert render_matrix(A) == "\n".join([str(n)] + rows) + "\n"
        assert parse_matrix(render_matrix(A)) == A

    def test_wrong_row_count(self):
        with pytest.raises(ParseError, match="expected 3 rows"):
            parse_matrix("3\n0 1 2\n1 2 3\n")

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError, match="row 1 has 2"):
            parse_matrix("3\n0 1\n1 2 3\n2 3 4\n")

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        A = random_cp_matrix(5, seed)
        assert parse_matrix(render_matrix(A)) == A

    def test_round_trip_with_inf(self):
        G = random_pattern_graph(5, 3)
        A = generate_instance(G, 3, inf_probability=0.4)
        assert parse_matrix(render_matrix(A)) == A


# ASCII digit strings parse through int(), every other token through Fraction()
TOKENS = [
    *("0", "7", "007", "+3", "-0", "-12", "1_000", "1e3", "0.5", "3/6", "1/0", "x"),
    *("inf", "Inf", "\u221e", "\u0663", "\u00b2", "1" * 5000),  # infinity, Arabic 3, superscript 2
]


class TestTokens:
    @pytest.mark.parametrize("token", TOKENS, ids=lambda t: ascii(t)[1:-1][:12])
    def test_token_parses_as_fraction_does(self, token):
        # the reference is the parse before int() took plain digits
        try:
            expected = TropScalar("inf") if token == "inf" else TropScalar(Fraction(token))
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError) as err:
                parse_vector(token)
            assert str(err.value) == f"bad token {token!r} at position 1"
        else:
            assert parse_vector(token) == TropVector([expected])

    def test_exact_fraction_is_kept(self):
        x = Fraction(2, 6)
        assert TropScalar(x).finite is x


class TestGraphFormat:
    def test_render_parse(self):
        G = paw_graph()
        assert parse_graph(render_graph(G)) == G

    def test_parse_one_based(self):
        G = parse_graph("3 2\n1 2\n2 3\n")
        assert G.edges == frozenset({(0, 1), (1, 2)})

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("3\n")

    def test_out_of_range_edge(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("3 1\n1 4\n")

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("3 1\n2 2\n")

    @pytest.mark.parametrize("text", ["0 0\n", "-2 0\n"])
    def test_rejects_fewer_than_one_vertex(self, text):
        with pytest.raises(ParseError, match="vertex count"):
            parse_graph(text)

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 2 edge lines"):
            parse_graph("3 2\n1 2\n")


class TestVectors:
    def test_round_trip(self):
        v = TropVector([0, "inf", "1/2"])
        assert parse_vector(render_vector(v)) == v

    def test_empty_vector_rejected(self):
        with pytest.raises(ParseError, match="empty vector"):
            parse_vector(" \n")


# (file suffix, text, message) of each malformed matrix or graph file
MALFORMED_FILES = [
    (".tmat", "", "empty matrix file"),
    (".tmat", " \n\n", "empty matrix file"),
    (".tmat", "two\n0\n", "bad dimension line 'two'"),
    (".tmat", "0\n", "dimension must be >= 1, got 0"),
    (".tmat", "-2\n", "dimension must be >= 1, got -2"),
    (".tgraph", "", "empty graph file"),
    (".tgraph", "3\n", "expected 'n m' header, got '3'"),
    (".tgraph", "3 1 1\n1 2\n", "expected 'n m' header, got '3 1 1'"),
    (".tgraph", "3 one\n1 2\n", "bad header '3 one'"),
    (".tgraph", "3 1\n1 2 3\n", "edge line 1 is not 'i j': '1 2 3'"),
    (".tgraph", "3 1\n1\n", "edge line 1 is not 'i j': '1'"),
    (".tgraph", "3 1\n1 b\n", "bad endpoints on edge line 1: '1 b'"),
    (".tgraph", "3 -1\n", "edge count must be >= 0, got -1"),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("suffix, text, message", MALFORMED_FILES)
    def test_parse_error_names_the_fault(self, suffix, text, message):
        parse = parse_matrix if suffix == ".tmat" else parse_graph
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("suffix, text, message", MALFORMED_FILES)
    def test_cli_exits_two_naming_the_file(self, capsys, tmp_path, suffix, text, message):
        path = tmp_path / f"bad{suffix}"
        path.write_text(text)
        assert main(["check" if suffix == ".tmat" else "cc", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_cli_names_a_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bom.tmat"
        path.write_bytes(b"\xff\xfe2\n0 0\n0 0\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text: invalid start byte at offset 0\n"


class TestReports:
    def test_certificate_reverifies_on_load(self):
        target = SymTropMatrix.zeros(3)
        dec = Decomposition(target, [TropVector([0, 0, 0])])
        payload = embed_decomposition(dec)
        loaded = load_decomposition(payload)
        assert loaded.target == target
        assert loaded.rank == 1

    def test_tampered_certificate_rejected(self):
        target = SymTropMatrix.zeros(3)
        dec = Decomposition(target, [TropVector([0, 0, 0])])
        payload = embed_decomposition(dec)
        payload["factors"] = ["0 0 1"]
        with pytest.raises(ValueError):
            load_decomposition(payload)

    def test_report_shape(self):
        report = make_report("check", "digest", {"completely_positive": True})
        assert report["schema"] == "tropcp-report/1"
        assert report["flags"] == {"refuted": False, "undetermined": False}


class TestGenerators:
    @pytest.mark.parametrize("seed", range(8))
    def test_pattern_is_exact(self, seed):
        G = random_pattern_graph(5, seed, edge_probability=0.5)
        A = generate_instance(G, seed)
        assert pattern_graph(A) == G
        assert is_completely_positive(A)
        assert is_normalized(A)

    def test_deterministic_bytes(self):
        G = paw_graph()
        a = render_matrix(generate_instance(G, 42))
        b = render_matrix(generate_instance(G, 42))
        assert a == b
        c = render_matrix(generate_instance(G, 43))
        assert a != c

    def test_empty_pattern_instance(self):
        A = generate_instance(PatternGraph.empty(5), 7)
        assert not pattern_graph(A).edges
        assert is_completely_positive(A)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_numerator": 0},
            {"max_denominator": 0},
            {"inf_probability": -0.5},
            {"inf_probability": 1.5},
        ],
    )
    def test_out_of_range_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            generate_instance(paw_graph(), 1, **kwargs)

    def test_certain_inf_accepted(self):
        A = generate_instance(PatternGraph.empty(3), 1, inf_probability=1.0)
        assert all(A[i, j].is_inf for i in range(3) for j in range(3) if i != j)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_cp_matrix_is_cp(self, seed):
        assert is_completely_positive(random_cp_matrix(5, seed))
