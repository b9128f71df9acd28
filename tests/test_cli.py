"""End-to-end CLI behavior: subcommands, reports, exit codes."""

import json

import pytest

import tropcp.cli
from tropcp import SymTropMatrix, normalize, parse_matrix, verify_decomposition
from tropcp.cli import main
from tropcp.corpus import flat_3x3, paw_matrix, rank_six_5x5, star6_matrix
from tropcp.formats import render_graph, render_matrix
from tropcp.graphs import PatternGraph, cp_rank_upper_bound, min_cover_bound, pattern_graph
from tropcp.reports import load_decomposition


@pytest.fixture
def paw_file(tmp_path):
    path = tmp_path / "paw.tmat"
    path.write_text(render_matrix(paw_matrix(1, 2)))
    return str(path)


@pytest.fixture
def paw_graph_file(tmp_path):
    path = tmp_path / "paw.tgraph"
    G = PatternGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    path.write_text(render_graph(G))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCheck:
    def test_cp_matrix_exits_zero(self, capsys, paw_file):
        code, report = run_json(capsys, "check", paw_file)
        assert code == 0
        assert report["payload"]["completely_positive"] is True

    def test_non_cp_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.tmat"
        path.write_text("2\n0 -1\n-1 0\n")
        code, report = run_json(capsys, "check", str(path))
        assert code == 1
        assert report["payload"]["completely_positive"] is False

    def test_malformed_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.tmat"
        path.write_text("2\n0 1\n2 0\n")
        assert main(["check", str(path)]) == 2


class TestNormalize:
    def test_raw_output(self, capsys, tmp_path):
        path = tmp_path / "b.tmat"
        path.write_text("3\n0 1 1\n1 1 1\n1 1 1\n")
        code, out = run(capsys, "normalize", str(path), "--raw")
        assert code == 0
        assert out == "3\n0 1/2 1/2\n1/2 0 0\n1/2 0 0\n"

    def test_report_lists_shifts(self, capsys, tmp_path):
        path = tmp_path / "b.tmat"
        path.write_text("3\n0 1 1\n1 1 1\n1 1 1\n")
        code, report = run_json(capsys, "normalize", str(path))
        assert code == 0
        assert report["payload"]["shifts"] == {"1": "0", "2": "1/2", "3": "1/2"}


class TestGraphAndBound:
    def test_graph_diameter(self, capsys, paw_file):
        code, report = run_json(capsys, "graph", paw_file)
        assert code == 0
        assert report["payload"]["diameter"] == 2
        assert report["payload"]["edge_count"] == 4

    def test_bound_on_paw(self, capsys, paw_file):
        code, report = run_json(capsys, "bound", paw_file)
        assert code == 0
        assert report["payload"]["upper_bound"] == 2
        assert report["payload"]["cover"] == [[1, 2, 3], [4]]

    @pytest.mark.parametrize(
        "make",
        [
            paw_matrix,
            flat_3x3,
            rank_six_5x5,
            star6_matrix,
            lambda: SymTropMatrix.from_upper_func(3, lambda i, j: 0 if i == j else 1),
            lambda: SymTropMatrix.from_upper_func(5, lambda i, j: 0 if i == j else 1),
        ],
        ids=["paw", "flat", "rank_six", "star6", "empty3", "empty5"],
    )
    def test_bound_fields_match_the_library(self, capsys, tmp_path, make):
        A = make()
        path = tmp_path / "a.tmat"
        path.write_text(render_matrix(A))
        code, report = run_json(capsys, "bound", str(path))
        C, _ = normalize(A)
        cover, bound = min_cover_bound(pattern_graph(C))
        payload = report["payload"]
        assert code == 0
        assert payload["upper_bound"] == cp_rank_upper_bound(C)
        assert payload["cover_bound"] == bound
        assert payload["cover"] == [[v + 1 for v in c] for c in cover.cliques]
        assert payload["empty_pattern_exception"] == (cp_rank_upper_bound(C) != bound)


class TestDecomposeAndRank:
    def test_decompose_report_reverifies(self, capsys, paw_file):
        code, report = run_json(capsys, "decompose", paw_file)
        assert code == 0
        dec = load_decomposition(report["payload"]["decomposition"])
        assert verify_decomposition(dec)
        assert report["payload"]["factor_count"] == dec.rank

    def test_rank_with_certificate(self, capsys, tmp_path):
        path = tmp_path / "r6.tmat"
        path.write_text(render_matrix(rank_six_5x5()))
        code, report = run_json(capsys, "rank", str(path))
        assert code == 0
        assert report["payload"]["rank"] == 6
        assert report["payload"]["refuted"] == [5]
        assert report["payload"]["refuted_by"] == ["bound"]
        dec = load_decomposition(report["payload"]["decomposition"])
        assert dec.rank == 6
        assert report["stats"]["nodes"] > 0

    def test_threads_env_read_at_each_call(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "paw.tmat"
        path.write_text(render_matrix(paw_matrix(1, 2)))
        real = tropcp.cli.cp_rank_exact
        seen = []

        def recording(A, **kwargs):
            seen.append(kwargs["threads"])
            return real(A, **{**kwargs, "threads": 1})

        monkeypatch.setattr(tropcp.cli, "cp_rank_exact", recording)
        monkeypatch.delenv("TROPCP_THREADS", raising=False)
        assert run(capsys, "rank", str(path))[0] == 0
        monkeypatch.setenv("TROPCP_THREADS", "2")
        assert run(capsys, "rank", str(path))[0] == 0
        assert run(capsys, "rank", str(path), "--threads", "1")[0] == 0
        assert seen == [1, 2, 1]

    def test_rank_undetermined_exit_three(self, capsys, tmp_path):
        path = tmp_path / "r6.tmat"
        path.write_text(render_matrix(rank_six_5x5()))
        code, report = run_json(capsys, "rank", str(path), "--node-limit", "3")
        assert code == 3
        assert report["flags"]["undetermined"] is True

    def test_rank_non_cp_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.tmat"
        path.write_text("2\n0 -1\n-1 0\n")
        code, report = run_json(capsys, "rank", str(path))
        assert code == 1
        assert report["payload"]["rank"] == "inf"


class TestGraphCommands:
    def test_cc_paw(self, capsys, paw_graph_file):
        code, report = run_json(capsys, "cc", paw_graph_file)
        assert code == 0
        assert report["payload"]["edge_clique_cover_number"] == 2

    def test_witness_matrix(self, capsys, tmp_path):
        path = tmp_path / "p4.tgraph"
        path.write_text(render_graph(PatternGraph.path(4)))
        code, out = run(capsys, "witness", str(path), "1", "4", "--raw")
        assert code == 0
        W = parse_matrix(out)
        assert str(W[0, 3]) == "1"
        assert str(W[0, 2]) == "2"

    def test_witness_adjacent_pair_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p4.tgraph"
        path.write_text(render_graph(PatternGraph.path(4)))
        assert main(["witness", str(path), "1", "2"]) == 2


class TestGen:
    def test_reproducible_bytes(self, capsys, paw_graph_file):
        code1, out1 = run(capsys, "gen", paw_graph_file, "--seed", "11")
        code2, out2 = run(capsys, "gen", paw_graph_file, "--seed", "11")
        assert code1 == code2 == 0
        assert out1 == out2
        A = parse_matrix(out1)
        assert A.n == 4

    def test_out_file(self, capsys, paw_graph_file, tmp_path):
        target = tmp_path / "inst.tmat"
        assert main(["gen", paw_graph_file, "--seed", "1", "--out", str(target)]) == 0
        assert parse_matrix(target.read_text()).n == 4


class TestSelftest:
    def test_quick_corpus_passes(self, capsys):
        assert main(["selftest", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 13


class TestUsage:
    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/file.tmat"]) == 2

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
