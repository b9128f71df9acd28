"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Runs from the repository root.  The traced-run tests start the benchmark
twice per workload (a few minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import instances  # noqa: E402
from layers import COUNTERS, same_result  # noqa: E402

CATALOGUE = instances.load_catalogue()


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_selection_depends_only_on_the_seed(workload):
    first = instances.select(CATALOGUE, workload, 7)
    assert first == instances.select(CATALOGUE, workload, 7)
    assert first != instances.select(CATALOGUE, workload, 8)


@pytest.mark.parametrize("workload", ["rank-refute", "rank-par"])
def test_refute_instances_are_refutation_heavy(workload):
    lo, hi = instances.REFUTE_NODES
    for e in instances.select(CATALOGUE, workload, 0):
        x = e["expect"]
        assert e["family"] == "refute"
        assert x["rank"] > x["lower_bound"] and x["refuted"]
        assert lo <= x["nodes"] <= hi
        assert x["par_nodes"] <= instances.PAR_NODE_CAP


def test_corpus_verdicts_are_the_hand_derived_values():
    corpus = [e for e in CATALOGUE["entries"] if e["family"] == "corpus"]
    assert len(corpus) == 10
    for e in corpus:
        hand = e["expect"]["hand_value"]
        if isinstance(hand, int):
            assert e["expect"]["rank"] == hand
        else:
            assert e["expect"]["rank"] > int(hand[1:])


def _rank_report(rank, refuted):
    from tropcp.corpus import flat_3x3
    from tropcp.rank import cp_rank_exact
    from tropcp.reports import embed_decomposition

    _, cert = cp_rank_exact(flat_3x3())
    payload = {"status": "exact", "rank": rank, "refuted": refuted, "undetermined_at": None,
               "decomposition": embed_decomposition(cert.decomposition)}
    return {"payload": payload, "stats": {"nodes": 4, "skeletons": 1, "refuted_branches": 0}}


def test_checks_accept_a_right_rank_report_and_reject_wrong_ones():
    from tropcp.corpus import flat_3x3
    from tropcp.formats import render_matrix

    text = render_matrix(flat_3x3())
    expect = {"status": "exact", "exit": 0, "rank": 2}
    assert checks.check_rank(expect, 0, _rank_report(2, []), text) is None
    assert checks.check_rank(expect, 0, _rank_report(2, [1]), text) is None
    assert checks.check_rank(expect, 3, _rank_report(2, []), text) is not None
    assert checks.check_rank(expect, 0, None, text) is not None
    assert checks.check_rank(expect, 0, _rank_report(2, [0]), text) is not None
    assert checks.check_rank({**expect, "rank": 3}, 0, _rank_report(3, []), text) is not None
    other = "3\n0 1 1\n1 1 1\n1 1 2\n"
    assert checks.check_rank(expect, 0, _rank_report(2, []), other) is not None


def test_same_result_notices_a_different_result():
    a = _rank_report(2, [])
    b = json.loads(json.dumps(a))
    assert same_result("rank", a, b) is None
    b["payload"]["refuted"] = [1]
    assert same_result("rank", a, b) is not None
    b = json.loads(json.dumps(a))
    b["stats"]["nodes"] = 5
    assert same_result("rank", a, b) is not None


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_traced_runs_repeat_their_counters_and_reproduce_the_cli(workload):
    counters = []
    for _ in range(2):
        done = run_bench(workload, 3, 1)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        # a chain result that differs from the CLI's counts as a failure
        assert line["correct"] and line["failed"] == 0, done.stderr
        record = json.loads((ROOT / ".perfbench" / f"{workload}-seed3-trace1.json").read_text())
        counters.append(record["info"]["counters"])
        assert set(record["info"]["counters"]) == set(COUNTERS)
    assert counters[0] == counters[1]
    if workload.startswith("rank"):
        assert counters[0]["rank.nodes"] > 0


def test_fails_without_the_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("rank-mixed", 0, 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
