"""Rebuild catalogue.json: candidate inputs with pinned verdicts and counters.

    python3 perfbench/catalogue.py            # writes perfbench/catalogue.json

Takes about half an hour on two cores.  Every verdict is computed by the
library's serial exact search with the CLI's default guards; corpus
entries are also checked against their hand-derived values from
``tropcp/corpus.py`` and ``tropcp/selftest.py``.  The parallel node count
of each rank-refute candidate replays the skeleton fan-out of
``tropcp.rank._cp_rank_leq_parallel`` serially, through the module's
private search helpers, so it needs no worker processes; a replay stops at
PAR_REPLAY_CAP nodes and the entry records only that lower bound.

The costs that order entries for selection (``cost_s``, ``par_cost_s``)
are times of the very CLI operations a benchmark run makes, taken in
COST_ROUNDS interleaved rounds over all entries; each cost is the median
of its rounds, so a slow or fast spell of the machine shifts every entry
alike instead of reordering them.
"""

from __future__ import annotations

import json
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
from run import COMMANDS, OUT_DIR, cli_argv  # noqa: E402
from tropcp import cli  # noqa: E402
from tropcp import rank as rank_mod  # noqa: E402
from tropcp.formats import render_matrix  # noqa: E402
from tropcp.analysis import is_completely_positive, normalize  # noqa: E402
from tropcp.decompose import construct_decomposition_detailed  # noqa: E402
from tropcp.graphs import (  # noqa: E402
    PatternGraph,
    cp_rank_upper_bound,
    min_cover_bound,
    pattern_graph,
)

REFUTE_CANDIDATES = 600
SCREEN_NODE_LIMIT = instances.REFUTE_NODES[1] + 1
PAR_REPLAY_CAP = 30_000
COST_ROUNDS = 5

# Hand-derived CP-ranks (corpus.py docstrings and selftest.py cases).  The
# bowtie and P4 witnesses are only known to exceed their edge clique cover
# numbers (2 and 3); their pinned values are the search's and must exceed it.
CORPUS = [
    ({"kind": "corpus", "name": "rank_one_shifted_3x3"}, 1),
    ({"kind": "corpus", "name": "flat_3x3"}, 2),
    ({"kind": "corpus", "name": "paw_matrix"}, 2),
    ({"kind": "corpus", "name": "p3_matrix"}, 2),
    ({"kind": "corpus", "name": "rank_six_5x5"}, 6),
    ({"kind": "unit", "n": 3}, 3),
    ({"kind": "unit", "n": 4}, 4),
    ({"kind": "unit", "n": 5}, 5),
    ({"kind": "corpus", "name": "bowtie_witness_5x5"}, ">2"),
    ({"kind": "p4_witness"}, ">3"),
]


def rank_expect(A) -> dict:
    """Serial exact verdict and counters, as `tropcp rank F --threads 1` gets them."""
    if not all(v.is_inf for _, _, v in A.upper_entries()) and not is_completely_positive(A):
        return {"status": "not_cp", "exit": 1, "nodes": 0}
    value, cert = rank_mod.cp_rank_exact(A, node_limit=SCREEN_NODE_LIMIT)
    out = {
        "status": cert.status,
        "exit": 0,
        "rank": value,
        "refuted": list(cert.refuted),
        "nodes": cert.stats.nodes,
        "skeletons": cert.stats.skeletons,
        "refuted_branches": cert.stats.refuted_branches,
    }
    if cert.status == "exact" and value > 0:
        C, _ = normalize(A)
        out["lower_bound"] = rank_mod.rank_lower_bound(C)
    return out


def parallel_nodes(A, rank: int, lower_bound: int) -> int | None:
    """Nodes `cp_rank_exact(A, threads=2)` searches; None above PAR_REPLAY_CAP.

    Mirrors _cp_rank_leq_parallel: each r with more than one skeleton runs
    every skeleton to its end under node_limit // skeletons; an r with one
    skeleton falls back to the serial search.
    """
    C, _ = normalize(A)
    masks = pattern_graph(C).adjacency_masks()
    reqs = rank_mod._finite_offdiag_requirements(C)
    total = 0
    for r in range(lower_bound, rank + 1):
        skeletons = list(rank_mod._clique_partitions(masks, C.n, r))
        if len(skeletons) <= 1:
            total += rank_mod.cp_rank_leq(C, r).stats.nodes
            continue
        per_branch = max(1, rank_mod.DEFAULT_NODE_LIMIT // len(skeletons))
        for parts in skeletons:
            budget = rank_mod._Budget(min(per_branch, PAR_REPLAY_CAP - total + 1), 1e9)
            try:
                rank_mod._search_skeleton(
                    C, r, parts, reqs, budget, rank_mod.SearchStats()
                )
            except rank_mod._Guard:
                if budget.nodes > PAR_REPLAY_CAP - total:
                    return None
            total += budget.nodes
    return total


def refute_candidates():
    for s in range(REFUTE_CANDIDATES):
        n = (6, 7)[s % 2]
        p = (0.3, 0.5)[(s // 2) % 2]
        yield {"kind": "pattern", "n": n, "p": p, "graph_seed": s, "seed": 1000 + s}


def mixed_candidates():
    for n in (4, 5, 6):
        for s in range(40):
            yield "random-cp", {"kind": "random_cp", "n": n, "seed": 100 * n + s}
    for n in (5, 6):
        for s in range(60):
            yield "split", {
                "kind": "pattern", "n": n, "p": 0.3, "graph_seed": 200 * n + s,
                "seed": 2000 + 100 * n + s, "inf": 0.7,
            }
    for n in (4, 5):
        for s in range(30):
            yield "join", {
                "kind": "pattern", "n": n, "p": 0.4, "graph_seed": 300 * n + s,
                "seed": 3000 + 100 * n + s, "join": True,
            }
    for n in (4, 5):
        for s in range(30):
            yield "twin", {
                "kind": "pattern", "n": n, "p": 0.4, "graph_seed": 400 * n + s,
                "seed": 4000 + 100 * n + s, "twin": s % n,
            }
    for n in (4, 5, 6):
        yield "not-cp", {"kind": "random_cp", "n": n, "seed": 500 + n, "not_cp": True}
    yield "all-inf", {"kind": "all_inf", "n": 3}


def finite_graph_splits(A) -> bool:
    """Whether the graph of finite off-diagonal entries is disconnected."""
    edges = [(i, j) for i, j, v in A.upper_entries() if i != j and not v.is_inf]
    masks = PatternGraph(A.n, edges).adjacency_masks()
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(A.n):
            if masks[u] >> v & 1 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) < A.n


def decompose_candidates():
    for n in range(8, 14):
        for s in range(12):
            yield "dense", {"kind": "random_cp", "n": n, "seed": 100 * n + s}
            yield "sparse", {
                "kind": "pattern", "n": n, "p": (0.15, 0.2)[s % 2],
                "graph_seed": 600 * n + s, "seed": 6000 + 100 * n + s,
            }


def cost_keys(family: str) -> dict[str, str]:
    """Cost name -> the workload whose operations it times, for one family."""
    if family == "refute":
        return {"cost_s": "rank-refute", "par_cost_s": "rank-par"}
    if family in ("dense", "sparse"):
        return {"cost_s": "decompose"}
    if family in instances.MIXED_PER_FAMILY:
        return {"cost_s": "rank-mixed"}
    return {}


def time_costs(entries: list[dict], rounds: int = COST_ROUNDS) -> None:
    """Set each entry's costs: the median over `rounds` interleaved rounds.

    A cost is the summed wall time of the workload's CLI operations on the
    entry, called as a benchmark run calls them.  Each round visits every
    entry in a new order.
    """
    jobs = []
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="costs-", dir=OUT_DIR))
    try:
        for i, e in enumerate(entries):
            if e["family"] == "refute" and "cost_s" not in e["expect"]:
                continue  # left out of rank-refute and rank-par
            path = workdir / f"{i:04d}.tmat"
            path.write_text(render_matrix(instances.build_matrix(e["spec"])))
            for key, workload in cost_keys(e["family"]).items():
                jobs.append((e, key, [cli_argv(c, t, path, workdir / "out.json")
                                      for c, t in COMMANDS[workload]]))
        times: dict[tuple[int, str], list[float]] = {}
        rng = random.Random(0)
        for r in range(rounds):
            rng.shuffle(jobs)
            for e, key, argvs in jobs:
                t0 = time.perf_counter()
                for argv in argvs:
                    cli.main(argv)
                times.setdefault((id(e), key), []).append(time.perf_counter() - t0)
            print(f"cost round {r + 1}/{rounds} done", file=sys.stderr, flush=True)
        for e, key, _ in jobs:
            e["expect"][key] = round(statistics.median(times[id(e), key]), 5)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bound_and_decompose(A):
    """The work of `tropcp bound F` and `tropcp decompose F` after the CP check."""
    C, _ = normalize(A)
    cover, cover_bound = min_cover_bound(pattern_graph(C))
    dec, (plan, achieved, tail_mode) = construct_decomposition_detailed(C, cover)
    return cp_rank_upper_bound(C), cover_bound, dec, plan, achieved, tail_mode


def decompose_expect(A) -> dict:
    upper_bound, cover_bound, dec, plan, achieved, tail_mode = bound_and_decompose(A)
    return {
        "upper_bound": upper_bound,
        "cover_bound": cover_bound,
        "factors": dec.rank,
        "blocks": list(achieved),
        "singletons": plan.singleton_count,
        "tail_mode": tail_mode,
    }


def main() -> int:
    start = time.monotonic()
    entries: list[dict] = []
    left_out: list[dict] = []
    screened = {"refute": 0}

    for spec, hand in CORPUS:
        A = instances.build_matrix(spec)
        e = rank_expect(A)
        if isinstance(hand, int):
            if e["rank"] != hand:
                raise SystemExit(f"{spec}: search rank {e['rank']} != hand value {hand}")
        elif not e["rank"] > int(hand[1:]):
            raise SystemExit(f"{spec}: search rank {e['rank']} not {hand}")
        e["hand_value"] = hand
        entries.append({"family": "corpus", "spec": spec, "expect": e})

    for family, spec in mixed_candidates():
        A = instances.build_matrix(spec)
        if family == "split" and not finite_graph_splits(A):
            continue
        e = rank_expect(A)
        if e["status"] == "undetermined":
            continue
        entries.append({"family": family, "spec": spec, "expect": e})
    print(f"mixed done {time.monotonic() - start:.0f}s", file=sys.stderr, flush=True)

    for family, spec in decompose_candidates():
        A = instances.build_matrix(spec)
        entries.append({"family": family, "spec": spec, "expect": decompose_expect(A)})
    print(f"decompose done {time.monotonic() - start:.0f}s", file=sys.stderr, flush=True)

    for spec in refute_candidates():
        screened["refute"] += 1
        A = instances.build_matrix(spec)
        e = rank_expect(A)
        if e["status"] != "exact" or e["rank"] <= e["lower_bound"]:
            continue
        if e["nodes"] < instances.REFUTE_NODES[0]:
            continue
        e["par_nodes"] = parallel_nodes(A, e["rank"], e["lower_bound"])
        entries.append({"family": "refute", "spec": spec, "expect": e})
        if e["par_nodes"] is not None and e["par_nodes"] <= instances.PAR_NODE_CAP:
            e["cost_s"] = None  # timed below
        else:
            left_out.append(
                {
                    "spec": spec,
                    "nodes": e["nodes"],
                    "par_nodes": e["par_nodes"] or f">{PAR_REPLAY_CAP}",
                }
            )
        print(f"refute {spec['graph_seed']}: {e['nodes']} / {e['par_nodes']}",
              file=sys.stderr, flush=True)

    time_costs(entries)
    print(f"costs done {time.monotonic() - start:.0f}s", file=sys.stderr, flush=True)

    out = {
        "about": (
            "Pinned verdicts and serial search counters of every candidate input; "
            "rebuilt by perfbench/catalogue.py. Counters are those of the "
            "commit that built the file. cost_s and par_cost_s are medians of "
            f"{COST_ROUNDS} interleaved timings of the benchmark's CLI operations "
            "on the build machine (par_cost_s with --threads 2); they only order "
            "instances by cost for selection."
        ),
        "built_with": {
            "python": platform.python_version(),
            "screen_node_limit": SCREEN_NODE_LIMIT,
            "par_replay_cap": PAR_REPLAY_CAP,
            "refute_candidates_screened": screened["refute"],
            "cost_rounds": COST_ROUNDS,
            "build_s": round(time.monotonic() - start, 1),
        },
        "left_out_of_rank_par": left_out,
        "entries": entries,
    }
    instances.CATALOGUE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(entries)} entries in {time.monotonic() - start:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
