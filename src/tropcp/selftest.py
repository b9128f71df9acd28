"""Built-in verification corpus: every bundled example with its known value.

Each case recomputes results from scratch and checks them against
independently known expected values; the runner prints one PASS/FAIL line
per case.  Exact arithmetic means every comparison is equality, never a
tolerance.
"""

from __future__ import annotations

import time
from typing import Callable

from . import corpus
from .analysis import (
    cp_rank_is_one,
    extract_rank_one_factor,
    is_completely_positive,
    normalize,
)
from .core import SymTropMatrix, TropVector, rank_one_product, verify_decomposition
from .decompose import empty_pattern_01_decomposition
from .generators import generate_instance
from .graphs import (
    CliqueCover,
    PatternGraph,
    cover_bound,
    cp_rank_upper_bound,
    diameter_witness_matrix,
    edge_clique_cover_number,
    min_cover_bound,
    pattern_graph,
)
from .rank import cp_rank_exact, cp_rank_leq, rank_lower_bound, zero_one_rank


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def case_rank_one_recovery() -> str:
    A = corpus.rank_one_shifted_3x3()
    _check(is_completely_positive(A), "matrix should be CP")
    _check(cp_rank_is_one(A), "matrix should have CP-rank one")
    b = extract_rank_one_factor(A)
    _check(b == TropVector([0, 1, 2]), f"factor {b} != [0, 1, 2]")
    _check(rank_one_product(b) == A, "factor fails to reconstruct the matrix")
    return "factor [0, 1, 2] recovered exactly"


def case_normalization() -> str:
    A = corpus.rank_one_shifted_3x3()
    C, record = normalize(A)
    _check(C == SymTropMatrix.zeros(3), "normalized form should be the zero matrix")
    _check(record.restore_matrix(C) == A, "record must invert the transform")
    B = corpus.flat_3x3()
    CB, rec_b = normalize(B)
    _check(CB == corpus.flat_3x3_normalized(), f"unexpected normalized form {CB}")
    _check(rec_b.restore_matrix(CB) == B, "record must invert the transform")
    return "zero matrix and half-integer shifts both exact"


def case_rank_two_flat() -> str:
    B = corpus.flat_3x3()
    rank, cert = cp_rank_exact(B)
    _check(rank == 2, f"rank {rank} != 2")
    _check(verify_decomposition(cert.decomposition), "certificate must verify")
    return "CP-rank 2 with verified certificate"


def case_paw_cover_bounds() -> str:
    g1 = CliqueCover([(0, 1, 2), (3,)])
    g2 = CliqueCover([(0, 1), (2, 3)])
    _check(cover_bound(g1) == 2, "triangle+singleton cover bound should be 2")
    _check(cover_bound(g2) == 4, "two-edge cover bound should be 4")
    cover, bound = min_cover_bound(corpus.paw_graph())
    _check(bound == 2, f"minimum bound {bound} != 2")
    _check(cover.cliques == ((0, 1, 2), (3,)), f"unexpected cover {cover.cliques}")
    return "bounds 2 and 4; minimum 2 at (triangle, singleton)"


def case_paw_rank() -> str:
    A = corpus.paw_matrix(1, 2)
    rank, cert = cp_rank_exact(A)
    _check(rank == 2, f"rank {rank} != 2")
    _check(cp_rank_upper_bound(A) == 2, "cover bound should give 2")
    return "CP-rank 2 matches the cover bound"


def case_edge_clique_covers() -> str:
    values = []
    for name, G, expected in [
        ("paw", corpus.paw_graph(), 2),
        ("star6", PatternGraph.star(6), 5),
        ("bowtie", corpus.bowtie_graph(), 2),
        ("path3", PatternGraph.path(3), 2),
    ]:
        cc, cover = edge_clique_cover_number(G)
        _check(cc == expected, f"cc({name}) = {cc} != {expected}")
        _check(cover.covers(G), f"cc certificate invalid for {name}")
        values.append(f"{name}={cc}")
    for n in range(2, 9):
        cc, _ = edge_clique_cover_number(PatternGraph.complete(n))
        _check(cc == 1, f"cc(K_{n}) = {cc} != 1")
    return ", ".join(values) + ", K_n=1 up to n=8"


def case_rank_six() -> str:
    A = corpus.rank_six_5x5()
    _check(rank_lower_bound(A) == 5, "combinatorial lower bound should be 5")
    at5 = cp_rank_leq(A, 5)
    _check(at5.refuted, f"rank 5 should be refuted, got {at5.status}")
    rank, cert = cp_rank_exact(A)
    _check(rank == 6, f"rank {rank} != 6")
    _check(verify_decomposition(cert.decomposition), "certificate must verify")
    _check(cp_rank_upper_bound(A) == 6, "cover bound should give 6")
    return f"refuted at 5 (search nodes: {at5.stats.nodes}), certified at 6"


def case_unit_empty_pattern() -> str:
    details = []
    for n in (3, 4, 5):
        dec = empty_pattern_01_decomposition(n)
        _check(verify_decomposition(dec), f"unit decomposition n={n} must verify")
        _check(dec.rank == n, f"unit decomposition n={n} should have n factors")
        _check(zero_one_rank(dec.target) == n, f"0/1 rank at n={n} should be {n}")
        rank, _ = cp_rank_exact(dec.target)
        _check(rank == n, f"search rank {rank} != {n} at n={n}")
        details.append(f"n={n}")
    return "0/1 empty pattern rank equals n for " + ", ".join(details)


def case_path_family() -> str:
    A = corpus.p3_matrix(5)
    rank, _ = cp_rank_exact(A)
    _check(rank == 2, f"rank {rank} != 2")
    cc, _ = edge_clique_cover_number(pattern_graph(A))
    _check(cc == 2, f"cc {cc} != 2")
    # every matrix with a 3-path pattern keeps rank 2; sample the family
    for seed in range(5):
        B = generate_instance(pattern_graph(A), seed)
        _check(cp_rank_exact(B)[0] == 2, f"path family seed {seed} rank != 2")
    return "path-pattern family: rank = cc = 2"


def case_paw_family() -> str:
    G = corpus.paw_graph()
    cc, _ = edge_clique_cover_number(G)
    _check(cc == 2, f"cc {cc} != 2")
    for seed in range(5):
        B = generate_instance(G, seed)
        _check(cp_rank_exact(B)[0] == 2, f"paw family seed {seed} rank != 2")
    return "paw-pattern family: rank = cc = 2"


def case_bowtie_separation() -> str:
    D = corpus.bowtie_witness_5x5()
    cc, _ = edge_clique_cover_number(pattern_graph(D))
    _check(cc == 2, f"cc {cc} != 2")
    at2 = cp_rank_leq(D, 2)
    _check(at2.refuted, f"rank 2 should be refuted, got {at2.status}")
    rank, cert = cp_rank_exact(D)
    _check(isinstance(rank, int) and rank > 2, f"rank {rank} not > 2")
    _check(verify_decomposition(cert.decomposition), "certificate must verify")
    return f"cc = 2 but exact CP-rank = {rank}"


def case_star6_extension() -> str:
    A = corpus.star6_matrix()
    G = pattern_graph(A)
    cc, _ = edge_clique_cover_number(G)
    _check(cc == 5, f"cc {cc} != 5")
    _check(rank_lower_bound(A) == 5, "lower bound should be 5")
    at6 = cp_rank_leq(A, 6)
    _check(at6.found, "a 6-factor certificate should exist")
    rank, _ = cp_rank_exact(A)
    _check(rank == 6, f"rank {rank} != 6")
    return "join-extended star keeps CP-rank 6 above cc = 5"


def case_p4_witness() -> str:
    G = PatternGraph.path(4)
    cc, _ = edge_clique_cover_number(G)
    _check(cc == 3, f"cc(P4) = {cc} != 3")
    W = diameter_witness_matrix(G, 0, 3)
    _check(pattern_graph(W) == G, "witness must preserve the pattern")
    rank, _ = cp_rank_exact(W)
    _check(isinstance(rank, int) and rank > cc, f"rank {rank} not > cc {cc}")
    return f"distance-3 witness has rank {rank} > cc = 3"


CASES: list[tuple[str, Callable[[], str]]] = [
    ("rank-one-recovery", case_rank_one_recovery),
    ("normalization", case_normalization),
    ("rank-two-flat", case_rank_two_flat),
    ("paw-cover-bounds", case_paw_cover_bounds),
    ("paw-rank", case_paw_rank),
    ("edge-clique-covers", case_edge_clique_covers),
    ("rank-six-empty-pattern", case_rank_six),
    ("unit-01-empty-pattern", case_unit_empty_pattern),
    ("path-family", case_path_family),
    ("paw-family", case_paw_family),
    ("bowtie-separation", case_bowtie_separation),
    ("star6-extension", case_star6_extension),
    ("p4-diameter-witness", case_p4_witness),
]


def run_selftest(write=print) -> int:
    """Run every corpus case; returns the number of failures."""
    failures = 0
    for name, fn in CASES:
        start = time.monotonic()
        try:
            detail = fn()
            elapsed = time.monotonic() - start
            write(f"PASS {name} ({elapsed:.2f}s): {detail}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            elapsed = time.monotonic() - start
            failures += 1
            write(f"FAIL {name} ({elapsed:.2f}s): {exc}")
    return failures
