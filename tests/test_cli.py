"""End-to-end CLI behavior: subcommands, reports, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

import tropcp.analysis
import tropcp.cli
import tropcp.reports
import tropcp.selftest
from tropcp import SymTropMatrix, normalize, parse_matrix, verify_decomposition
from tropcp.cli import main
from tropcp.corpus import flat_3x3, paw_matrix, rank_six_5x5, star6_matrix
from tropcp.formats import render_graph, render_matrix
from tropcp.graphs import PatternGraph, cp_rank_upper_bound, min_cover_bound, pattern_graph
from tropcp.reports import load_decomposition, matrix_digest


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

    def test_bound_cover_is_in_the_input_numbering(self, capsys, tmp_path):
        # row 2 has an infinite diagonal, so normalize drops it
        path = tmp_path / "a.tmat"
        path.write_text("3\n0 inf 1\ninf inf inf\n1 inf 0\n")
        code, report = run_json(capsys, "bound", str(path))
        assert code == 0
        assert report["payload"]["cover"] == [[1], [3]]


class TestDecomposeAndRank:
    def test_decompose_report_reverifies(self, capsys, paw_file):
        code, report = run_json(capsys, "decompose", paw_file)
        assert code == 0
        dec = load_decomposition(report["payload"]["decomposition"])
        assert verify_decomposition(dec)
        assert report["payload"]["factor_count"] == dec.rank

    @pytest.mark.parametrize(
        "matrix, blocks, tail_mode",
        [(paw_matrix(1, 2), [1, 0, 1, 0], "empty"), (rank_six_5x5(), [0, 0, 0, 6], "search")],
        ids=["paw", "rank_six"],
    )
    def test_decompose_report_names_blocks_and_tail_mode(
        self, capsys, tmp_path, matrix, blocks, tail_mode
    ):
        path = tmp_path / "m.tmat"
        path.write_text(render_matrix(matrix))
        code, report = run_json(capsys, "decompose", str(path))
        assert code == 0
        assert report["schema"] == "tropcp-report/1"
        payload = report["payload"]
        assert payload["blocks"] == blocks
        assert payload["tail_mode"] == tail_mode
        assert sum(payload["blocks"]) == payload["factor_count"]

    @pytest.mark.parametrize("command", ["decompose", "rank"])
    @pytest.mark.parametrize(
        "matrix",
        [rank_six_5x5(), SymTropMatrix.from_rows([["inf"] * 3, ["inf", 1, 2], ["inf", 2, 3]])],
        ids=["rank_six", "odd_inf_row"],
    )
    def test_input_digest_hashes_the_embedded_target(
        self, capsys, tmp_path, monkeypatch, command, matrix
    ):
        # the input is rendered once, as the decomposition's target
        path = tmp_path / "m.tmat"
        path.write_text(render_matrix(matrix))
        renders = []
        render = tropcp.reports.render_matrix
        monkeypatch.setattr(
            tropcp.reports, "render_matrix", lambda A: renders.append(A) or render(A)
        )
        code, report = run_json(capsys, command, str(path))
        assert code == 0
        target = report["payload"]["decomposition"]["target"]
        assert report["input_digest"] == hashlib.sha256(target.encode()).hexdigest()
        assert len(renders) == 1
        assert report["input_digest"] == matrix_digest(matrix)

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

    def test_threads_is_accepted_and_ignored(self, capsys, paw_file):
        reports = []
        for argv in ([], ["--threads", "1"], ["--threads", "2"]):
            code, report = run_json(capsys, "rank", paw_file, *argv)
            report["timing_s"] = report["stats"]["wall_time_s"] = None
            reports.append((code, report))
        assert reports[0][0] == 0
        assert reports[0] == reports[1] == reports[2]

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


class TestNotCompletelyPositive:
    @pytest.mark.parametrize("command", ["normalize", "bound", "decompose"])
    def test_exits_one_without_a_report(self, capsys, tmp_path, command):
        path = tmp_path / "bad.tmat"
        path.write_text("2\n0 -1\n-1 0\n")
        out = tmp_path / "report.json"
        assert main([command, str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input is not completely positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["normalize", "bound", "decompose"])
    @pytest.mark.parametrize("cp", [True, False], ids=["paw", "not_cp"])
    def test_one_cp_check_per_run(self, capsys, tmp_path, monkeypatch, command, cp):
        path = tmp_path / "a.tmat"
        path.write_text(render_matrix(paw_matrix(1, 2)) if cp else "2\n0 -1\n-1 0\n")
        # every CP check, `normalize`'s included, is one `_zero_diagonal` grid pass
        real = tropcp.analysis._zero_diagonal
        calls = []

        def counting(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr(tropcp.analysis, "_zero_diagonal", counting)
        assert run(capsys, command, str(path))[0] == (0 if cp else 1)
        assert len(calls) == 1


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

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-numerator", "0", "max numerator and denominator must be >= 1"),
            ("--max-denominator", "0", "got 6, 0 and 0.0"),
            ("--inf-probability", "1.5", "inf probability in [0, 1]"),
            ("--inf-probability", "-0.1", "got 6, 3 and -0.1"),
        ],
    )
    def test_out_of_range_numbers_exit_two(
        self, capsys, paw_graph_file, tmp_path, option, value, message
    ):
        target = tmp_path / "inst.tmat"
        argv = ["gen", paw_graph_file, "--seed", "1", "--out", str(target), option, value]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not target.exists()


class TestSelftest:
    def test_quick_corpus_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 13

    def test_out_file_gets_the_lines(self, capsys, tmp_path):
        target = tmp_path / "selftest.txt"
        assert main(["selftest", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        text = target.read_text()
        assert "FAIL" not in text
        assert text.count("PASS") == 13

    def test_failing_case_exits_one(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("expected failure")

        monkeypatch.setattr(tropcp.selftest, "CASES", [("broken", broken)])
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.startswith("FAIL broken (")


class TestUsage:
    @pytest.mark.parametrize("command", ["normalize", "bound", "decompose"])
    def test_all_inf_matrix_exits_two_without_a_report(self, capsys, tmp_path, command):
        path = tmp_path / "inf.tmat"
        path.write_text("2\ninf inf\ninf inf\n")
        out = tmp_path / "report.json"
        assert main([command, str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: every diagonal entry is infinite")
        assert not out.exists()

    def test_unwritable_out_exits_two(self, capsys, tmp_path, paw_file):
        out = tmp_path / "missing" / "report.json"
        assert main(["rank", paw_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}")

    def test_negative_max_r_exits_two(self, capsys, paw_file):
        assert main(["rank", paw_file, "--max-r", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: r_max must be >= 0")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--node-limit", "-1", "node_limit must be >= 0"),
            ("--timeout-s", "-1", "timeout_s must be >= 0"),
            ("--timeout-s", "nan", "timeout_s must be >= 0"),
        ],
    )
    def test_negative_or_nan_guards_exit_two(self, capsys, paw_file, flag, value, message):
        assert main(["rank", paw_file, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/file.tmat"]) == 2

    @pytest.mark.parametrize(
        "argv", [["cc"], ["gen", "--seed", "1"], ["witness", "--raw", "1", "2"]]
    )
    def test_graph_without_vertices_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.tgraph"
        path.write_text("0 0\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert "vertex count must be >= 1" in capsys.readouterr().err

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# Golden runs: every subcommand and error case, pinned byte for byte.  Each
# case runs in a fresh directory holding GOLDEN_FILES, with relative paths,
# so no message names a temporary directory.  Report times are blanked.
# Regenerate tests/cli_golden.json with `PYTHONPATH=src python tests/test_cli.py`.

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")

GOLDEN_FILES = {
    "paw.tmat": render_matrix(paw_matrix(1, 2)),
    "r6.tmat": render_matrix(rank_six_5x5()),
    "shift.tmat": "3\n0 1 1\n1 1 1\n1 1 1\n",
    "odd.tmat": "3\ninf inf inf\ninf 1 2\ninf 2 3\n",
    "notcp.tmat": "2\n0 -1\n-1 0\n",
    "inf.tmat": "2\ninf inf\ninf inf\n",
    "asym.tmat": "2\n0 1\n2 0\n",
    "paw.tgraph": render_graph(PatternGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])),
    "p4.tgraph": render_graph(PatternGraph.path(4)),
    "empty.tgraph": "0 0\n",
}

GOLDEN_CASES = [
    "check paw.tmat",
    "check notcp.tmat",
    "check inf.tmat",
    "normalize shift.tmat",
    "normalize shift.tmat --raw",
    "normalize shift.tmat --raw --out n.tmat",
    "graph paw.tmat",
    "graph paw.tmat --raw",
    "graph inf.tmat",
    "bound paw.tmat",
    "bound r6.tmat",
    "decompose paw.tmat",
    "decompose r6.tmat --out d.json",
    "rank r6.tmat",
    "rank r6.tmat --node-limit 3",
    "rank notcp.tmat",
    "rank inf.tmat",
    "rank paw.tmat --threads 2",
    # inputs that are not normalized: a shifted diagonal, and an inf row with odd diagonals
    "rank shift.tmat",
    "bound shift.tmat",
    "decompose shift.tmat",
    "rank odd.tmat",
    "bound odd.tmat",
    "decompose odd.tmat",
    "cc paw.tgraph",
    "witness p4.tgraph 1 4",
    "witness p4.tgraph 1 4 --raw",
    "gen paw.tgraph --seed 11",
    "gen paw.tgraph --seed 11 --report",
    "gen paw.tgraph --seed 1 --out g.tmat",
    "selftest",
    # errors
    "check missing.tmat",
    "cc missing.tgraph",
    "check asym.tmat",
    "rank asym.tmat",
    "cc paw.tmat",
    "normalize notcp.tmat",
    "bound notcp.tmat --out b.json",
    "decompose notcp.tmat",
    "normalize inf.tmat",
    "bound inf.tmat",
    "decompose inf.tmat --out d.json",
    "rank paw.tmat --out missing/r.json",
    "gen paw.tgraph --seed 1 --out missing/g.tmat",
    "rank paw.tmat --max-r -1",
    "rank paw.tmat --node-limit -1",
    "rank paw.tmat --timeout-s nan",
    "witness p4.tgraph 1 2",
    "witness p4.tgraph 1 9",
    "gen paw.tgraph --seed 1 --max-numerator 0",
    "gen paw.tgraph --seed 1 --inf-probability 1.5",
    "cc empty.tgraph",
    "witness empty.tgraph 1 2 --raw",
    "gen empty.tgraph --seed 1",
]


def _blank_times(text):
    text = re.sub(r'("(?:timing_s|wall_time_s)": )[-+.0-9e]+', r'\1"<time>"', text)
    return re.sub(r"\(\d+\.\d+s\)", "(…s)", text)


def golden_run(command, workdir):
    """Run `tropcp <command>` in workdir: its exit code, stdout, stderr and --out file."""
    for name, text in GOLDEN_FILES.items():
        (workdir / name).write_text(text)
    argv = command.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    target = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    return {
        "code": code,
        "stdout": _blank_times(out.getvalue()),
        "stderr": err.getvalue(),
        "out_file": _blank_times(target.read_text()) if target and target.exists() else None,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", GOLDEN_CASES)
def test_golden_run(golden, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert golden_run(command, tmp_path) == golden[command]


if __name__ == "__main__":
    results = {}
    for command in GOLDEN_CASES:
        with tempfile.TemporaryDirectory() as d:
            cwd = os.getcwd()
            os.chdir(d)
            try:
                results[command] = golden_run(command, Path(d))
            finally:
                os.chdir(cwd)
    text = json.dumps(results, indent=1, ensure_ascii=False) + "\n"
    GOLDEN_PATH.write_text(text, encoding="utf-8")
