"""Seeded random instance generators for tests and the CLI."""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Rationalish, SymTropMatrix
from .graphs import CliqueCover, PatternGraph


def generate_instance(
    G: PatternGraph,
    seed: int,
    max_numerator: int = 6,
    max_denominator: int = 3,
    inf_probability: float = 0.0,
) -> SymTropMatrix:
    """A normalized CP matrix whose pattern graph is exactly G.

    Entries are zero on the diagonal and on edges; non-edges draw strictly
    positive rationals (or infinity, with the given probability) from a
    deterministic per-seed stream, so equal seeds give identical matrices.
    """
    if min(max_numerator, max_denominator) < 1 or not 0 <= inf_probability <= 1:
        raise ValueError(
            "max numerator and denominator must be >= 1 and inf probability in [0, 1], "
            f"got {max_numerator}, {max_denominator} and {inf_probability}"
        )
    rng = random.Random(seed)
    upper: list[Rationalish] = []  # row by row, as `SymTropMatrix` stores it
    for i in range(G.n):
        for j in range(i, G.n):
            if i == j or G.has_edge(i, j):
                upper.append(0)
            elif inf_probability and rng.random() < inf_probability:
                upper.append("inf")
            else:
                num = rng.randint(1, max_numerator)
                upper.append(Fraction(num, rng.randint(1, max_denominator)))
    return SymTropMatrix(G.n, upper)


def random_pattern_graph(n: int, seed: int, edge_probability: float = 0.4) -> PatternGraph:
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return PatternGraph(n, edges)


def random_cp_matrix(n: int, seed: int, max_value: int = 4) -> SymTropMatrix:
    """A random CP matrix that need not be normalized.

    Diagonal entries are arbitrary rationals; each off-diagonal entry is at
    least the average of its two diagonal entries, which is exactly the CP
    condition.  Slack zero is drawn with positive probability so normalized
    forms have edges.
    """
    rng = random.Random(seed)
    diag = [Fraction(rng.randint(-max_value, max_value)) for _ in range(n)]
    upper: list[Fraction] = []  # row by row, as `SymTropMatrix` stores it
    for i in range(n):
        upper.append(diag[i])
        for j in range(i + 1, n):
            slack = 0
            if rng.random() >= 0.4:
                slack = Fraction(rng.randint(1, 2 * max_value), rng.randint(1, 2))
            upper.append((diag[i] + diag[j]) / 2 + slack)
    return SymTropMatrix(n, upper)


def random_clique_cover(G: PatternGraph, seed: int) -> CliqueCover:
    """A random valid vertex clique cover (a partition into cliques) of G."""
    rng = random.Random(seed)
    remaining = set(range(G.n))
    parts = []
    while remaining:
        v = rng.choice(sorted(remaining))
        clique = [v]
        remaining.discard(v)
        candidates = sorted(remaining)
        rng.shuffle(candidates)
        for u in candidates:
            if all(G.has_edge(u, w) for w in clique) and rng.random() < 0.7:
                clique.append(u)
                remaining.discard(u)
        parts.append(clique)
    return CliqueCover(parts)
