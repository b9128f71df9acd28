"""Acceptance criteria: every bundled example at its stated budget.

Each criterion prints one PASS/FAIL line (run with -s to see them inline).
All value comparisons are exact; the budgets are wall-clock ceilings.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from tropcp import (
    CliqueCover,
    PatternGraph,
    SymTropMatrix,
    cover_bound,
    cp_rank_exact,
    cp_rank_leq,
    cp_rank_upper_bound,
    construct_decomposition,
    diameter,
    diameter_witness_matrix,
    distance,
    edge_clique_cover_number,
    empty_pattern_01_decomposition,
    extract_rank_one_factor,
    min_cover_bound,
    normalize,
    pattern_graph,
    rank_lower_bound,
    rank_one_product,
    verify_decomposition,
    zero_one_rank,
)
from tropcp.corpus import (
    bowtie_graph,
    bowtie_witness_5x5,
    flat_3x3,
    flat_3x3_normalized,
    paw_graph,
    paw_matrix,
    rank_one_shifted_3x3,
    rank_six_5x5,
    star6_matrix,
)
from tropcp.generators import (
    generate_instance,
    random_clique_cover,
    random_cp_matrix,
    random_pattern_graph,
)


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, (
            f"criterion {number} exceeded its budget: {elapsed:.1f}s >= {budget_s}s"
        )
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s): {description}")
        raise
    print(
        f"ACCEPTANCE {number} PASS ({elapsed:.2f}s, budget {budget_s:g}s): {description}"
    )


def test_criterion_1_rank_one_example_and_half_shift_example():
    with criterion(1, 1.0, "rank-one recovery, normalizations, rank two"):
        A = rank_one_shifted_3x3()
        rank_a, cert_a = cp_rank_exact(A)
        assert rank_a == 1
        b = extract_rank_one_factor(A)
        assert rank_one_product(b) == A
        assert cert_a.decomposition.rank == 1
        CA, _ = normalize(A)
        assert CA == SymTropMatrix.zeros(3)
        B = flat_3x3()
        CB, _ = normalize(B)
        assert CB == flat_3x3_normalized()
        rank_b, cert_b = cp_rank_exact(B)
        assert rank_b == 2
        assert verify_decomposition(cert_b.decomposition)


def test_criterion_2_paw_bounds_and_rank():
    with criterion(2, 5.0, "paw cover bounds 2 and 4, minimum 2, rank 2"):
        assert cover_bound(CliqueCover([(0, 1, 2), (3,)])) == 2
        assert cover_bound(CliqueCover([(0, 1), (2, 3)])) == 4
        _, best = min_cover_bound(paw_graph())
        assert best == 2
        rng = random.Random(20260810)
        for _ in range(3):
            a = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            b = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            rank, cert = cp_rank_exact(paw_matrix(a, b))
            assert rank == 2
            assert verify_decomposition(cert.decomposition)


def test_criterion_3_five_by_five_with_rank_six():
    with criterion(3, 300.0, "5x5 empty-pattern matrix: refuted at 5, exact 6"):
        A = rank_six_5x5()
        at5 = cp_rank_leq(A, 5)
        assert at5.refuted
        rank, cert = cp_rank_exact(A)
        assert rank == 6
        assert verify_decomposition(cert.decomposition)
        assert cert.refuted == (5,)


def test_criterion_4_zero_one_empty_pattern():
    with criterion(4, 60.0, "0/1 empty pattern: both ranks equal n for n=3,4,5"):
        for n in (3, 4, 5):
            dec = empty_pattern_01_decomposition(n)
            assert verify_decomposition(dec)
            A = dec.target
            assert zero_one_rank(A) == n
            rank, _ = cp_rank_exact(A)
            assert rank == n


def test_criterion_5_edge_clique_covers():
    cases = [
        ("paw", paw_graph(), 2),
        ("star6", PatternGraph.star(6), 5),
        ("bowtie", bowtie_graph(), 2),
        ("path3", PatternGraph.path(3), 2),
    ] + [(f"K{n}", PatternGraph.complete(n), 1) for n in range(2, 9)]
    for name, G, expected in cases:
        with criterion(5, 1.0, f"cc({name}) = {expected}"):
            cc, cover = edge_clique_cover_number(G)
            assert cc == expected
            assert cover.covers(G)


def test_criterion_6_bowtie_rank_exceeds_cc():
    with criterion(6, 300.0, "bowtie witness: exact rank strictly above cc = 2"):
        D = bowtie_witness_5x5()
        cc, _ = edge_clique_cover_number(pattern_graph(D))
        assert cc == 2
        rank, cert = cp_rank_exact(D)
        assert isinstance(rank, int) and rank > 2
        assert verify_decomposition(cert.decomposition)


def _canonical_edges(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(
            sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)
        )
        if best is None or key < best:
            best = key
    return best


def _connected_diameter3_graphs(max_n):
    """Every connected graph with diameter >= 3 on at most max_n vertices."""
    seen = set()
    out = []
    for n in range(2, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            G = PatternGraph(n, edges)
            d = diameter(G)
            if d == float("inf") or d < 3:
                continue
            key = (n, _canonical_edges(n, edges))
            if key not in seen:
                seen.add(key)
                out.append(G)
    return out


def test_criterion_7_diameter_three_witnesses():
    with criterion(7, 1800.0, "witness rank exceeds cc on every diam>=3 graph, n<=5"):
        graphs = _connected_diameter3_graphs(5)
        assert len(graphs) == 7  # 1 on four vertices, 6 on five
        for G in graphs:
            u, v = next(
                (a, b)
                for a in range(G.n)
                for b in range(a + 1, G.n)
                if distance(G, a, b) >= 3
            )
            W = diameter_witness_matrix(G, u, v)
            assert pattern_graph(W) == G
            cc, _ = edge_clique_cover_number(G)
            rank, cert = cp_rank_exact(W)
            assert isinstance(rank, int) and rank > cc
            assert verify_decomposition(cert.decomposition)


def test_criterion_8a_reconstruction_identity_1000():
    with criterion(8, 600.0, "suite (a): 1000 constructive decompositions verify"):
        count = 0
        seed = 0
        while count < 1000:
            seed += 1
            n = 2 + seed % 6  # dimensions 2..7
            G = random_pattern_graph(n, seed, edge_probability=0.35)
            A = generate_instance(G, seed + 10_000, max_numerator=5, max_denominator=2)
            cover = random_clique_cover(G, seed + 20_000)
            dec = construct_decomposition(A, cover)
            assert verify_decomposition(dec)
            assert dec.target == A
            count += 1


def test_criterion_8b_sandwich_200():
    with criterion(8, 600.0, "suite (b): cc <= exact rank <= cover bound, 200 runs"):
        for seed in range(200):
            n = 2 + seed % 3  # dimensions 2..4
            G = random_pattern_graph(n, seed, edge_probability=0.4)
            A = generate_instance(G, seed + 30_000, max_numerator=4, max_denominator=2)
            cc, _ = edge_clique_cover_number(G)
            rank, _ = cp_rank_exact(A)
            assert cc <= rank <= cp_rank_upper_bound(A)
            assert rank_lower_bound(A) <= rank


def test_criterion_8c_normalization_invariance_200():
    with criterion(8, 600.0, "suite (c): normalization idempotent, rank-invariant, 200 runs"):
        for seed in range(200):
            n = 2 + seed % 3
            A = random_cp_matrix(n, seed)
            C, record = normalize(A)
            again, rec2 = normalize(C)
            assert again == C
            assert all(s == 0 for _, s in rec2.shifts)
            assert record.restore_matrix(C) == A
            assert cp_rank_exact(A)[0] == cp_rank_exact(C)[0]


def test_criterion_8d_join_vertex_invariance_50():
    with criterion(8, 600.0, "suite (d): all-zero-coupled vertex keeps the rank, 50 runs"):
        for seed in range(50):
            n = 2 + seed % 3
            G = random_pattern_graph(n, seed, edge_probability=0.4)
            A = generate_instance(G, seed + 40_000, max_numerator=4, max_denominator=2)

            def extended(i, j, A=A):
                if i == A.n or j == A.n:
                    return 0
                return A[i, j]

            A2 = SymTropMatrix.from_upper_func(A.n + 1, extended)
            assert cp_rank_exact(A2)[0] == cp_rank_exact(A)[0]


def test_criterion_8e_bound_never_exceeds_generic_cap():
    with criterion(8, 600.0, "suite (e): cover bound <= max(n, n^2/4) everywhere"):
        for seed in range(100):
            n = 2 + seed % 6
            G = random_pattern_graph(n, seed, edge_probability=0.3)
            A = generate_instance(G, seed + 50_000)
            assert cp_rank_upper_bound(A) <= max(n, n * n // 4)


def test_criterion_9_star_extension_chain():
    with criterion(9, 1800.0, "6x6 star extension keeps rank 6 above cc = 5"):
        A = star6_matrix()
        G = pattern_graph(A)
        assert G.edges == frozenset((i, 5) for i in range(5))  # star, center last
        cc, _ = edge_clique_cover_number(G)
        assert cc == 5
        rank, cert = cp_rank_exact(A)
        assert rank == 6
        assert verify_decomposition(cert.decomposition)
        assert cert.refuted == (5,)
