"""Constructive rank-one decompositions from a vertex clique cover.

Given a normalized CP matrix and a clique cover of its pattern graph, the
cover is first reduced to a partition into k cliques of size >= 2 and l
singletons (`make_block_plan`).  The factors are read off that partition
in four blocks, each built on the matrix in its own coordinates (the
cliques need not occupy consecutive vertices):

  1. one all-zero-on-its-clique indicator per clique (intra-clique entries),
  2. per ordered clique pair (i < j) and vertex of clique j, a vector that
     copies that vertex's column over clique i (inter-clique entries),
  3. per clique and singleton, a vector copying the singleton's column over
     the clique (clique-to-singleton entries and singleton diagonals),
  4. a tail covering entries between singletons.

The tail has closed forms for two or three singletons (when a clique of
size >= 2 exists to supply singleton diagonals, and the involved entries
are finite); otherwise a per-pair construction plus a greedy merge pass is
always sound, and an exact search with a TAIL_SEARCH_NODES budget restores
the floor(l^2/4) factor count when the merge alone does not reach it.
Counts are whatever was actually achieved and the result is verified
exactly on construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .analysis import require_normalized
from .core import (
    INF,
    ZERO,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
    scaled_rows,
)
from .graphs import (
    CliqueCover,
    PatternGraph,
    is_small_empty_pattern,
    min_cover_bound,
    pattern_graph,
)

TAIL_EMPTY = "empty"
TAIL_CLOSED = "closed-form"
TAIL_PAIRS = "pairs"
TAIL_SEARCH = "search"

# node budget of the tail's exact search
TAIL_SEARCH_NODES = 200_000


def reduce_to_partition(cover: CliqueCover, n: int) -> CliqueCover:
    """Keep each vertex only in its canonically first clique.

    Shrinking a cover this way never increases its rank bound, and the
    block construction needs disjoint cliques.
    """
    seen: set[int] = set()
    parts = []
    for clique in cover.cliques:
        kept = tuple(v for v in clique if v not in seen)
        seen.update(kept)
        if kept:
            parts.append(kept)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"cover misses vertices {missing}")
    return CliqueCover(parts)


def make_block_plan(G: PatternGraph, cover: CliqueCover) -> CliqueCover:
    """The partition the blocks are built on, from a vertex clique cover of G.

    Its first ``k`` cliques are the parts of size >= 2 (largest first) and
    ``singles`` its singleton vertices, both in G's vertex numbering.
    """
    if not cover.covers(G):
        raise ValueError("not a valid vertex clique cover of the pattern graph")
    return reduce_to_partition(cover, G.n)


def clique_block(A: SymTropMatrix, plan: CliqueCover) -> list[list[TropScalar]]:
    """One indicator vector per clique: zero on the clique, infinite elsewhere."""
    out = []
    for clique in plan.cliques[: plan.k]:
        vec: list[TropScalar] = [INF] * A.n
        for t in clique:
            vec[t] = ZERO
        out.append(vec)
    return out


def _column_over(A: SymTropMatrix, p: int, over: Sequence[int]) -> list[TropScalar]:
    """Zero at p, p's column A[t, p] at each t in `over`, infinite elsewhere."""
    vec: list[TropScalar] = [INF] * A.n
    vec[p] = ZERO
    for t in over:
        vec[t] = A[t, p]
    return vec


def cross_block(A: SymTropMatrix, plan: CliqueCover) -> list[list[TropScalar]]:
    """Vectors matching A between distinct cliques.

    For cliques i < j and each vertex p of clique j: p's column over
    clique i, zero at p.
    """
    cliques = plan.cliques[: plan.k]
    return [
        _column_over(A, p, earlier)
        for i, earlier in enumerate(cliques)
        for later in cliques[i + 1 :]
        for p in later
    ]


def singleton_link_block(A: SymTropMatrix, plan: CliqueCover) -> list[list[TropScalar]]:
    """Vectors matching A between each clique and each singleton.

    Zero at the singleton (covering its diagonal), the singleton's column
    over the clique, infinite elsewhere.
    """
    singles = plan.singles
    return [_column_over(A, p, clique) for clique in plan.cliques[: plan.k] for p in singles]


def _dominates(C: list[list[Optional[int]]], vec: Sequence[Optional[int]]) -> bool:
    """No undercut: vec's outer product is >= C wherever vec is finite.

    C and vec are scaled to ints on one grid, with None for infinity.
    """
    finite = [(t, x) for t, x in enumerate(vec) if x is not None]
    for a, (s, xs) in enumerate(finite):
        row = C[s]
        for t, xt in finite[a:]:
            target = row[t]
            if target is None or xs + xt < target:
                return False
    return True


def _merge_pass(
    B: SymTropMatrix, vectors: list[list[TropScalar]]
) -> list[list[TropScalar]]:
    """Greedily fuse vector pairs while the fused vector still dominates B.

    Entrywise minimum keeps every entry the originals attained (it can only
    attain more), so domination is the only condition to recheck.  Each
    step fuses the first dominating pair (a, b), a < b, in scan order into
    position a and deletes b.

    A fused vector has only smaller or more finite entries than either
    original, so a pair that fails keeps failing once either of its
    vectors is fused further.  Every pair before (a, b) in scan order
    failed and still fails after the merge, so the next dominating pair
    is at (a, b) or later: the scan resumes there instead of restarting,
    and makes the same merges.  The work is on exact ints, on the grid
    `scaled_rows` puts B and the vectors on, and the results are mapped
    back to the input scalars on return.
    """
    C, vecs, _ = scaled_rows(B, vectors)
    # every merged value is one of the inputs
    scalars = {x: e for v, xs in zip(vectors, vecs) for e, x in zip(v, xs)}
    a = 0
    while a < len(vecs):
        b = a + 1
        while b < len(vecs):
            merged = [
                y if x is None else x if y is None or x <= y else y
                for x, y in zip(vecs[a], vecs[b])
            ]
            if _dominates(C, merged):
                vecs[a] = merged
                del vecs[b]
            else:
                b += 1
        a += 1
    return [[scalars[x] for x in v] for v in vecs]


def singleton_tail_block(
    A: SymTropMatrix,
    plan: CliqueCover,
    small_empty: bool,
) -> tuple[list[list[TropScalar]], str]:
    """Factors covering entries between singletons (block 4); the exact search
    aims at A.n factors when `small_empty` (`is_small_empty_pattern`), else floor(l^2/4)."""
    singles = plan.singles
    l = len(singles)
    k = plan.k

    finite_pairs = [
        (p, q)
        for a, p in enumerate(singles)
        for q in singles[a + 1 :]
        if not A[p, q].is_inf
    ]
    need_diagonals = k == 0

    if not finite_pairs and not need_diagonals:
        return [], TAIL_EMPTY

    if k >= 1 and l == 2 and len(finite_pairs) == 1:
        p, q = finite_pairs[0]
        return [_column_over(A, p, (q,))], TAIL_CLOSED

    if k >= 1 and l == 3 and len(finite_pairs) == 3:
        # roles: w free, (u, v) the maximal pair; ties pick the
        # lexicographically last vertex pair
        best = max(finite_pairs, key=lambda pq: (A[pq[0], pq[1]].finite, pq))
        u, v = best
        (w,) = [s for s in singles if s not in best]
        return [_column_over(A, w, (u,)), _column_over(A, v, (w, u))], TAIL_CLOSED

    # Per-pair fallback, always sound.
    vectors = [_column_over(A, p, (q,)) for p, q in finite_pairs]
    if need_diagonals:
        for s in singles:
            if not any(v[s] == ZERO for v in vectors):
                vectors.append(_column_over(A, s, ()))
    vectors = _merge_pass(A, vectors)
    mode = TAIL_PAIRS

    target = A.n if small_empty else (l * l) // 4
    if len(vectors) > target and l >= 2:
        found = _tail_exact_search(A, singles, target)
        if found is not None:
            vectors = found
            mode = TAIL_SEARCH
    return vectors, mode


def _tail_exact_search(
    A: SymTropMatrix, singles: Sequence[int], target: int
) -> Optional[list[list[TropScalar]]]:
    """Decompose the singleton principal submatrix with at most `target` factors.

    Uses the exact rank search with a TAIL_SEARCH_NODES budget; on success the factors
    are embedded back with infinity outside the singletons.
    """
    from .rank import cp_rank_leq

    sub = SymTropMatrix.from_upper_func(
        len(singles), lambda i, j: A[singles[i], singles[j]]
    )
    outcome = cp_rank_leq(sub, target, node_limit=TAIL_SEARCH_NODES, timeout_s=60.0)
    if not outcome.found:
        return None
    embedded = []
    for factor in outcome.decomposition.factors:
        vec: list[TropScalar] = [INF] * A.n
        for pos, s in enumerate(singles):
            vec[s] = factor[pos]
        embedded.append(vec)
    return embedded


def construct_decomposition(A: SymTropMatrix, cover: CliqueCover) -> Decomposition:
    """Build and verify the clique-cover decomposition of a normalized CP matrix."""
    dec, _ = construct_decomposition_detailed(A, cover)
    return dec


def construct_decomposition_detailed(
    A: SymTropMatrix, cover: CliqueCover
) -> tuple[Decomposition, tuple[CliqueCover, tuple[int, int, int, int], str]]:
    """As construct_decomposition, also reporting the partition, block counts, and tail mode."""
    require_normalized(A)
    G = pattern_graph(A)
    plan = make_block_plan(G, cover)
    b1 = clique_block(A, plan)
    b2 = cross_block(A, plan)
    b3 = singleton_link_block(A, plan)
    b4, tail_mode = singleton_tail_block(A, plan, is_small_empty_pattern(G))
    factors = [TropVector(v) for v in (*b1, *b2, *b3, *b4)]
    dec = Decomposition(A, factors)
    achieved = (len(b1), len(b2), len(b3), len(b4))
    return dec, (plan, achieved, tail_mode)


def empty_pattern_01_decomposition(n: int) -> Decomposition:
    """The n-factor decomposition of the 0/1 matrix with zero diagonal.

    Factor i is zero at position i and one elsewhere; no decomposition with
    fewer factors exists for this matrix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = SymTropMatrix.from_upper_func(n, lambda i, j: 0 if i == j else 1)
    factors = [TropVector([0 if j == i else 1 for j in range(n)]) for i in range(n)]
    return Decomposition(target, factors)


def decompose_cp(A: SymTropMatrix) -> Decomposition:
    """Convenience wrapper: normalize, decompose, and lift back to the input.

    Uses the cover minimizing the rank bound.  The input only needs to be
    CP, not normalized.
    """
    dec, _ = decompose_cp_detailed(A)
    return dec


def decompose_cp_detailed(
    A: SymTropMatrix,
) -> tuple[Decomposition, tuple[CliqueCover, tuple[int, int, int, int], str]]:
    """As decompose_cp, also reporting the partition, block counts, and tail mode.

    The partition is that of the normalized matrix, numbered as its rows:
    the input's rows with an infinite diagonal are gone.  Lifting keeps the
    factor count, so the counts sum to the rank; the lift is verified on A.
    """
    from .analysis import normalize

    C, record = normalize(A)
    cover, _ = min_cover_bound(pattern_graph(C))
    dec, details = construct_decomposition_detailed(C, cover)
    return Decomposition(A, record._lift(dec.factors)), details
