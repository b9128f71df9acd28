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
Counts are whatever was actually achieved.  All of it runs on the grid of
a prepared instance (`rank._Instance`): the blocks are read off D = 2 C,
twice its normalized grid rows, so each block vector is a doubled witness
that the instance lifts onto its input, as the exact rank search's are, and
the lifted factors are verified once, against the input.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import Decomposition, SymTropMatrix, TropVector
from .graphs import (
    CliqueCover,
    PatternGraph,
    is_small_empty_pattern,
    min_cover_bound,
    # unused here but kept: perfbench/layers.py patches it on this module to time spans
    pattern_graph,  # noqa
)
from .rank import SearchStats, _Budget, _Guard, _Instance, _prepared, _search, prepare_instance

# grid rows and vectors on them, None for inf
Rows = list[list[Optional[int]]]
Vector = list[Optional[int]]

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


def clique_block(D: Rows, plan: CliqueCover) -> list[Vector]:
    """One indicator vector per clique: zero on the clique, infinite elsewhere."""
    out = []
    for clique in plan.cliques[: plan.k]:
        vec: Vector = [None] * len(D)
        for t in clique:
            vec[t] = 0
        out.append(vec)
    return out


def _column_over(D: Rows, p: int, over: Sequence[int]) -> Vector:
    """Zero at p, p's column D[t][p] at each t in `over`, infinite elsewhere."""
    vec: Vector = [None] * len(D)
    vec[p] = 0
    for t in over:
        vec[t] = D[t][p]
    return vec


def cross_block(D: Rows, plan: CliqueCover) -> list[Vector]:
    """Vectors matching D between distinct cliques.

    For cliques i < j and each vertex p of clique j: p's column over
    clique i, zero at p.
    """
    cliques = plan.cliques[: plan.k]
    return [
        _column_over(D, p, earlier)
        for i, earlier in enumerate(cliques)
        for later in cliques[i + 1 :]
        for p in later
    ]


def singleton_link_block(D: Rows, plan: CliqueCover) -> list[Vector]:
    """Vectors matching D between each clique and each singleton.

    Zero at the singleton (covering its diagonal), the singleton's column
    over the clique, infinite elsewhere.
    """
    singles = plan.singles
    return [_column_over(D, p, clique) for clique in plan.cliques[: plan.k] for p in singles]


def _dominates(D: Rows, vec: Vector) -> bool:
    """No undercut: vec's outer product is >= D wherever vec is finite."""
    finite = [(t, x) for t, x in enumerate(vec) if x is not None]
    for a, (s, xs) in enumerate(finite):
        row = D[s]
        for t, xt in finite[a:]:
            target = row[t]
            if target is None or xs + xt < target:
                return False
    return True


def _merge_pass(D: Rows, vectors: list[Vector]) -> list[Vector]:
    """Greedily fuse vector pairs while the fused vector still dominates D.

    Entrywise minimum keeps every entry the originals attained (it can only
    attain more), so domination is the only condition to recheck.  Each
    step fuses the first dominating pair (a, b), a < b, in scan order into
    position a and deletes b.

    A fused vector has only smaller or more finite entries than either
    original, so a pair that fails keeps failing once either of its
    vectors is fused further.  Every pair before (a, b) in scan order
    failed and still fails after the merge, so the next dominating pair
    is at (a, b) or later: the scan resumes there instead of restarting,
    and makes the same merges.  D and the vectors are on one grid.
    """
    vecs = list(vectors)
    a = 0
    while a < len(vecs):
        b = a + 1
        while b < len(vecs):
            merged = [
                y if x is None else x if y is None or x <= y else y
                for x, y in zip(vecs[a], vecs[b])
            ]
            if _dominates(D, merged):
                vecs[a] = merged
                del vecs[b]
            else:
                b += 1
        a += 1
    return vecs


def singleton_tail_block(
    D: Rows,
    plan: CliqueCover,
    small_empty: bool,
) -> tuple[list[Vector], str]:
    """Factors covering entries between singletons (block 4); the exact search
    aims at len(D) factors when `small_empty` (`is_small_empty_pattern`), else floor(l^2/4)."""
    singles = plan.singles
    l = len(singles)
    k = plan.k

    finite_pairs = [
        (p, q)
        for a, p in enumerate(singles)
        for q in singles[a + 1 :]
        if D[p][q] is not None
    ]
    need_diagonals = k == 0

    if not finite_pairs and not need_diagonals:
        return [], TAIL_EMPTY

    if k >= 1 and l == 2 and len(finite_pairs) == 1:
        p, q = finite_pairs[0]
        return [_column_over(D, p, (q,))], TAIL_CLOSED

    if k >= 1 and l == 3 and len(finite_pairs) == 3:
        # roles: w free, (u, v) the maximal pair; ties pick the
        # lexicographically last vertex pair
        best = max(finite_pairs, key=lambda pq: (D[pq[0]][pq[1]], pq))
        u, v = best
        (w,) = [s for s in singles if s not in best]
        return [_column_over(D, w, (u,)), _column_over(D, v, (w, u))], TAIL_CLOSED

    # Per-pair fallback, always sound.
    vectors = [_column_over(D, p, (q,)) for p, q in finite_pairs]
    if need_diagonals:
        for s in singles:
            if not any(v[s] == 0 for v in vectors):
                vectors.append(_column_over(D, s, ()))
    vectors = _merge_pass(D, vectors)
    mode = TAIL_PAIRS

    target = len(D) if small_empty else (l * l) // 4
    if len(vectors) > target and l >= 2:
        found = _tail_exact_search(D, singles, target)
        if found is not None:
            vectors = found
            mode = TAIL_SEARCH
    return vectors, mode


def _tail_exact_search(D: Rows, singles: Sequence[int], target: int) -> Optional[list[Vector]]:
    """At most `target` factors of the singletons' principal submatrix, or None.

    Runs the exact rank search with a TAIL_SEARCH_NODES budget on C = D / 2
    with every entry off the singletons' rows and columns made infinite, so
    the submatrix holds all its finite entries.  Its witnesses, twice their
    coordinates on C's grid, are on D's grid and infinite off the singletons.
    """
    keep, m = set(singles), len(D)
    upper = [
        D[p][q] // 2 if p in keep and q in keep and D[p][q] is not None else None
        for p in range(m)
        for q in range(p, m)
    ]
    sub = _Instance(None, (upper, [(p, 0) for p in range(m)], 1))
    try:
        return _search(sub, target, _Budget(TAIL_SEARCH_NODES, 60.0), SearchStats())
    except _Guard:
        return None


def construct_decomposition(A: SymTropMatrix | _Instance, cover: CliqueCover) -> Decomposition:
    """Build and verify the clique-cover decomposition of a normalized CP matrix."""
    dec, _ = construct_decomposition_detailed(A, cover)
    return dec


def construct_decomposition_detailed(
    A: SymTropMatrix | _Instance, cover: CliqueCover
) -> tuple[Decomposition, tuple[CliqueCover, tuple[int, int, int, int], str]]:
    """As construct_decomposition, also reporting the partition, block counts, and tail mode.

    A is a normalized matrix or a prepared instance (`rank._Instance`); the
    partition numbers the rows of its grid C, and the factors target its input.
    """
    P = _prepared(A)
    plan = make_block_plan(P.G, cover)
    D = [[None if v is None else 2 * v for v in row] for row in P.C]
    b1 = clique_block(D, plan)
    b2 = cross_block(D, plan)
    b3 = singleton_link_block(D, plan)
    b4, tail_mode = singleton_tail_block(D, plan, is_small_empty_pattern(P.G))
    dec = Decomposition(P.A, [P.factor(x2) for x2 in (*b1, *b2, *b3, *b4)])
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
    """Decompose a CP matrix on the cover minimizing the rank bound.

    The input only needs to be CP, not normalized.
    """
    dec, _ = decompose_cp_detailed(A)
    return dec


def decompose_cp_detailed(
    A: SymTropMatrix,
) -> tuple[Decomposition, tuple[CliqueCover, tuple[int, int, int, int], str]]:
    """As decompose_cp, also reporting the partition, block counts, and tail mode.

    The input is prepared once (`rank.prepare_instance`, which raises
    `normalize`'s errors).  The partition is that of the normalized matrix,
    numbered as its rows: the input's rows with an infinite diagonal are
    gone.  Lifting keeps the factor count, so the counts sum to the rank.
    """
    P = prepare_instance(A)
    cover, _ = min_cover_bound(P.G)
    return construct_decomposition_detailed(P, cover)
