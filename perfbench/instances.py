"""Instance specs, the pinned catalogue, and per-seed workload selection.

Every benchmark input is described by a small JSON spec that names a
seeded generator from ``tropcp.generators`` (or a ``tropcp.corpus``
matrix) and its arguments, so an input is rebuilt bit for bit from its
spec.  ``catalogue.json`` lists the candidate specs of every workload with
the verdicts and deterministic search counters measured once by
``catalogue.py``; it is the pinned verdict table.  A run's ``--seed``
draws that run's instance set from the catalogue with ``select``.

Selection depends only on the catalogue, never on the program being
measured, so a parent commit and a change always run identical inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from tropcp import corpus
from tropcp.core import INF, SymTropMatrix, TropScalar
from tropcp.decompose import empty_pattern_01_decomposition
from tropcp.generators import generate_instance, random_cp_matrix, random_pattern_graph
from tropcp.graphs import PatternGraph, diameter_witness_matrix, join_vertex

CATALOGUE = Path(__file__).resolve().with_name("catalogue.json")

WORKLOADS = ("rank-refute", "rank-mixed", "decompose", "rank-par")

# Every workload draws its instances as a ladder: the eligible catalogue
# entries of a family are sorted by their recorded cost (cost_s, or
# par_cost_s for rank-par), `count` evenly spaced positions are marked on
# that order, and at each position the seed picks one of LADDER_WIDTH
# neighbours.  Every seed thus gets a different instance set whose cost
# profile (median, tail, total) is nearly the same, which keeps figures
# from different seeds comparable: the median and tail of a small set hang
# on single instances.
LADDER_WIDTH = 3

# rank-refute / rank-par: an instance is eligible when its CP-rank is above
# rank_lower_bound and its serial search needs REFUTE_NODES nodes.
# Instances whose parallel search (--threads 2) needs more than
# PAR_NODE_CAP nodes are left out of both workloads, so one rank-par pass
# stays short enough to repeat; catalogue.json lists them with their
# measured counts.
REFUTE_NODES = (200, 2500)
PAR_NODE_CAP = 12_000
REFUTE_COUNT = 12

# rank-mixed: generated instances whose serial search needs at most
# MIXED_NODE_CAP nodes, so most stop at the lower bound; the corpus, non-CP
# and all-inf entries are run under every seed.
MIXED_NODE_CAP = 100
MIXED_PER_FAMILY = {"random-cp": 12, "split": 8, "join": 8, "twin": 8}

# decompose: instances per family, drawn from its n = 8-13 candidates.
# The ladder orders an instance by the summed cost of its two operations,
# so neighbours may split that sum differently between bound and
# decompose; two neighbours per position instead of three keep the median
# operation of every seed's set closer in cost.
DECOMPOSE_PER_FAMILY = {"dense": 18, "sparse": 18}
DECOMPOSE_WIDTH = 2


def build_matrix(spec: dict) -> SymTropMatrix:
    """The input matrix a spec describes (deterministic)."""
    kind = spec["kind"]
    if kind == "pattern":
        G = random_pattern_graph(spec["n"], spec["graph_seed"], spec["p"])
        if spec.get("join"):
            G = join_vertex(G)
        A = generate_instance(G, spec["seed"], inf_probability=spec.get("inf", 0.0))
        twin = spec.get("twin")
        if twin is None:
            return A
        # vertex n copies row `twin`; A[twin, twin] = 0, so the copy is a
        # zero-twin of it
        src = list(range(A.n)) + [twin]
        return SymTropMatrix.from_upper_func(A.n + 1, lambda i, j: A[src[i], src[j]])
    if kind == "random_cp":
        A = random_cp_matrix(spec["n"], spec["seed"])
        if not spec.get("not_cp"):
            return A
        # one entry strictly below the mean of its diagonals breaks CP
        low = TropScalar((A[0, 0].finite + A[1, 1].finite) / 2 - Fraction(1, 2))
        return SymTropMatrix.from_upper_func(
            A.n, lambda i, j: low if (i, j) == (0, 1) else A[i, j]
        )
    if kind == "corpus":
        return getattr(corpus, spec["name"])()
    if kind == "unit":
        return empty_pattern_01_decomposition(spec["n"]).target
    if kind == "p4_witness":
        return diameter_witness_matrix(PatternGraph.path(4), 0, 3)
    if kind == "all_inf":
        return SymTropMatrix.filled(spec["n"], INF)
    raise ValueError(f"unknown spec kind {kind!r}")


def load_catalogue(path: Path = CATALOGUE) -> dict:
    return json.loads(path.read_text())


def _eligible_refute(entry: dict) -> bool:
    e = entry["expect"]
    return (
        e["rank"] > e["lower_bound"]
        and REFUTE_NODES[0] <= e["nodes"] <= REFUTE_NODES[1]
        and e.get("par_nodes") is not None
        and e["par_nodes"] <= PAR_NODE_CAP
    )


def _ladder(
    pool: list[dict], count: int, cost, rng: random.Random, width: int = LADDER_WIDTH
) -> list[dict]:
    """At each of `count` evenly spaced positions of the cost-sorted pool,
    one of the `width` entries there."""
    pool = sorted(pool, key=lambda e: (cost(e), json.dumps(e["spec"], sort_keys=True)))
    if len(pool) < count * width:
        raise ValueError(f"{len(pool)} eligible entries, {count} x {width} wanted")
    chosen = []
    for i in range(count):
        centre = (2 * i + 1) * len(pool) // (2 * count)
        start = min(max(0, centre - width // 2), len(pool) - width)
        chosen.append(rng.choice(pool[start : start + width]))
    return chosen


def select(catalogue: dict, workload: str, seed: int) -> list[dict]:
    """The catalogue entries one run of `workload` uses under `seed`.

    The same seed always gives the same list, in the same order.
    """
    entries = catalogue["entries"]
    cost = lambda e: e["expect"]["cost_s"]  # noqa: E731
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("rank-refute", "rank-par"):
        # Both draw from one pool, each on its own cost: serial and parallel
        # costs are poorly correlated, so one ladder would leave the other
        # workload's cost varying from seed to seed.
        pool = [e for e in entries if e["family"] == "refute" and _eligible_refute(e)]
        if workload == "rank-refute":
            chosen = _ladder(pool, REFUTE_COUNT, cost, rng)
        else:
            chosen = _ladder(pool, REFUTE_COUNT, lambda e: e["expect"]["par_cost_s"], rng)
    elif workload == "rank-mixed":
        chosen = [e for e in entries if e["family"] in ("corpus", "not-cp", "all-inf")]
        for family, count in MIXED_PER_FAMILY.items():
            pool = [
                e
                for e in entries
                if e["family"] == family and e["expect"]["nodes"] <= MIXED_NODE_CAP
            ]
            chosen += _ladder(pool, count, cost, rng)
    elif workload == "decompose":
        chosen = []
        for family, count in DECOMPOSE_PER_FAMILY.items():
            pool = [e for e in entries if e["family"] == family]
            chosen += _ladder(pool, count, cost, rng, DECOMPOSE_WIDTH)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(chosen)
    return chosen
