"""Independent brute-force oracles used to cross-check the fast paths.

These deliberately share no search organization with the library: the
cover-bound oracle enumerates every subset of cliques, and the rank oracle
enumerates whole candidate vectors over a half-integer lattice.  For
integer entries, any factor of a decomposition can be replaced by a
half-integral solution of its constraint system (all constraints are unit
or double coefficient sums with integer right-hand sides), and trimming
makes every finite coordinate at most the largest finite entry, so the
bounded lattice is exhaustive.

The reference implementations at the end are the library's earlier
versions of its integer kernels, on `TropScalar` and `Fraction` values
and without memos or incremental state; the kernels must agree with them
exactly.  `reference_solve_factor_system` is the Fourier-Motzkin solver
that built the exact-rank search's leaf witnesses before the integer
UTVPI kernel did.  The clique-partition references are three separate
recursions with their own clique lister.  `CliquePartitions` (with
`_cliques_containing` and `completion_bound`) is the partition walk that
`graphs.min_cover_bound` and `graphs.min_clique_cover_size` ran before
they searched size profiles and maximal cliques: it yields every
partition of the vertices into cliques, pruned by part-count and bound
limits, and `partition_min_cover_bound` and
`partition_min_clique_cover_size` are those two functions as they were
on it, kept verbatim, so the library's searches are checked against code
they do not call.  `reference_is_completely_positive`, `reference_normalize`,
`reference_restore_matrix` and `reference_lift_factor` are the analysis
layer's `TropScalar` versions, from before it moved onto the integer grid.
`skeleton_cp_rank_leq` is the exact-rank search before it assigned every
finite entry in one search: an outer walk over the zero-set skeletons of
`CliquePartitions` and, inside each, a DFS over the off-diagonal
entries in value order, on the library's factor kernel.  `dressed` turns
a normalized matrix into inputs that are not normalized, for comparing a
path that prepares its input with `normalize` and `lift_decomposition`.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from tropcp import (
    INF,
    CliqueCover,
    FactorConstraintSystem,
    NormalizationRecord,
    NotCompletelyPositiveError,
    PatternGraph,
    SymTropMatrix,
    TropScalar,
    TropVector,
    cover_bound,
    is_exact_decomposition,
    ordered_cover_bound,
)
from tropcp.analysis import require_normalized
from tropcp.core import Decomposition, scaled_rows
from tropcp.graphs import _colour_classes, max_clique, pattern_graph
from tropcp.rank import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIMEOUT_S,
    FOUND,
    REFUTED,
    UNDETERMINED,
    RankSearchOutcome,
    SearchStats,
    _Budget,
    _FactorBuild,
    _Guard,
)


def all_cliques(G: PatternGraph) -> list[tuple[int, ...]]:
    out = []
    for size in range(1, G.n + 1):
        for combo in itertools.combinations(range(G.n), size):
            if G.is_clique(combo):
                out.append(combo)
    return out


def brute_min_cover_bound(G: PatternGraph) -> int:
    """Minimum cover bound over ALL vertex clique covers (not just partitions)."""
    cliques = all_cliques(G)
    vertices = frozenset(range(G.n))
    best = None
    for size in range(1, len(cliques) + 1):
        for subset in itertools.combinations(cliques, size):
            if frozenset(v for c in subset for v in c) == vertices:
                value = cover_bound(CliqueCover(subset))
                if best is None or value < best:
                    best = value
        # no early exit: larger covers can still have smaller bounds
    assert best is not None
    return best


def brute_edge_clique_cover(G: PatternGraph) -> int:
    if not G.edges:
        return 0
    cliques = [c for c in all_cliques(G) if len(c) >= 2]
    edges = set(G.edges)
    for size in range(1, len(edges) + 1):
        for subset in itertools.combinations(cliques, size):
            covered = set()
            for c in subset:
                covered.update(
                    (c[i], c[j])
                    for i in range(len(c))
                    for j in range(i + 1, len(c))
                )
            if covered >= edges:
                return size
    return len(edges)


def brute_least_edge_clique_cover(G: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least minimum edge clique cover by maximal cliques.

    Subsets of the sorted maximal cliques are tried by size, and each size
    in lexicographic order, so the first cover found is the least one.
    """
    maximal = [
        c
        for c in all_cliques(G)
        if len(c) >= 2 and not any(G.is_clique(c + (v,)) for v in range(G.n) if v not in c)
    ]
    edges = set(G.edges)
    for size in range(len(maximal) + 1):
        for subset in itertools.combinations(sorted(maximal), size):
            if {e for c in subset for e in itertools.combinations(c, 2)} >= edges:
                return subset
    raise AssertionError("the maximal cliques always cover the edges")


def reference_cp_rank_is_one(A: SymTropMatrix) -> bool:
    """Rank one of a CP matrix by the quadruple characterization, O(n^4):
    A[i,j1] * A[k,j2] == A[k,j1] * A[i,j2] for all rows i < k, columns j1 < j2."""
    n = A.n
    return all(
        A[i, j1] * A[k, j2] == A[k, j1] * A[i, j2]
        for i, k in itertools.combinations(range(n), 2)
        for j1, j2 in itertools.combinations(range(n), 2)
    )


def _lattice(max_value: Fraction) -> list[TropScalar]:
    values: list[TropScalar] = []
    step = Fraction(1, 2)
    v = Fraction(0)
    while v <= max_value:
        values.append(TropScalar(v))
        v += step
    values.append(INF)
    return values


def brute_cp_rank(A: SymTropMatrix, r_cap: int) -> int | None:
    """Exact CP-rank by enumerating candidate factors over the 1/2-integer lattice.

    Only valid for normalized matrices with integer entries.  Returns None
    if no decomposition with at most r_cap factors exists over the lattice.
    """
    n = A.n
    finite_entries = [
        (i, j, v.finite) for i, j, v in A.upper_entries() if not v.is_inf
    ]
    max_value = max((val for _, _, val in finite_entries), default=Fraction(0))
    lattice = _lattice(max_value)

    def dominates(vec: tuple[TropScalar, ...]) -> bool:
        for i in range(n):
            if vec[i].is_inf:
                continue
            for j in range(i, n):
                if vec[j].is_inf:
                    continue
                target = A[i, j]
                if target.is_inf:
                    return False
                if vec[i].finite + vec[j].finite < target.finite:
                    return False
        return True

    def attained(vec: tuple[TropScalar, ...]) -> int:
        """Bitmask of the finite entries vec's outer product attains."""
        return sum(
            1 << k
            for k, (i, j, val) in enumerate(finite_entries)
            if not vec[i].is_inf
            and not vec[j].is_inf
            and vec[i].finite + vec[j].finite == val
        )

    # A candidate whose attained entries lie inside another's can be
    # swapped for that one in any decomposition, so only candidates with
    # maximal attained sets (one per set) are kept; the minimum cover
    # size does not change.
    by_set: dict[int, tuple[TropScalar, ...]] = {}
    for vec in itertools.product(lattice, repeat=n):
        if dominates(vec):
            by_set.setdefault(attained(vec), vec)
    maximal: list[int] = []
    for s in sorted(by_set, key=lambda s: -s.bit_count()):
        if not any(s & t == s for t in maximal):
            maximal.append(s)
    candidates = [by_set[s] for s in maximal]
    achieved_by = [
        [idx for idx, s in enumerate(maximal) if s >> k & 1]
        for k in range(len(finite_entries))
    ]

    order = sorted(range(len(finite_entries)), key=lambda k: len(achieved_by[k]))

    def search(pos: int, chosen: list[int], budget: int) -> bool:
        while pos < len(order):
            k = order[pos]
            i, j, val = finite_entries[k]
            ok = any(
                not candidates[c][i].is_inf
                and not candidates[c][j].is_inf
                and candidates[c][i].finite + candidates[c][j].finite == val
                for c in chosen
            )
            if not ok:
                break
            pos += 1
        else:
            return True
        if budget == 0:
            return False
        k = order[pos]
        for c in achieved_by[k]:
            if c in chosen:
                continue
            chosen.append(c)
            if search(pos + 1, chosen, budget - 1):
                return True
            chosen.pop()
        return False

    for r in range(1, r_cap + 1):
        chosen: list[int] = []
        if search(0, chosen, r):
            factors = [TropVector(candidates[c]) for c in chosen]
            assert is_exact_decomposition(A, factors), "oracle certificate invalid"
            return r
    return None


def reference_merge_pass(
    B: SymTropMatrix, vectors: list[list[TropScalar]]
) -> list[list[TropScalar]]:
    """The tail merge pass on TropScalar values, every pair retested each scan."""

    def dominates(vec: list[TropScalar]) -> bool:
        finite = [t for t, e in enumerate(vec) if not e.is_inf]
        for a in range(len(finite)):
            for b in range(a, len(finite)):
                s, t = finite[a], finite[b]
                target = B[s, t]
                if target.is_inf:
                    return False
                if vec[s].finite + vec[t].finite < target.finite:
                    return False
        return True

    vecs = [list(v) for v in vectors]
    changed = True
    while changed:
        changed = False
        for a in range(len(vecs)):
            for b in range(a + 1, len(vecs)):
                merged = [x + y for x, y in zip(vecs[a], vecs[b])]
                if dominates(merged):
                    vecs[a] = merged
                    del vecs[b]
                    changed = True
                    break
            if changed:
                break
    return vecs


def reference_cliques_containing(
    v: int, allowed: int, masks: list[int]
) -> list[tuple[int, ...]]:
    """Cliques within the `allowed` bitmask containing v as their lowest
    vertex, largest first, then lexicographically."""
    found: list[tuple[int, ...]] = []

    def grow(members: list[int], candidates: int) -> None:
        found.append(tuple(members))
        m = candidates
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            grow(members + [u], candidates & masks[u] & ~((1 << (u + 1)) - 1))

    grow([v], masks[v] & allowed & ~((1 << (v + 1)) - 1))
    return sorted(found, key=lambda c: (-len(c), c))


def reference_clique_partitions(
    G: PatternGraph, max_parts: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of G's vertices into at most max_parts cliques,
    canonically: lowest uncovered vertex first, then its cliques in
    `reference_cliques_containing` order."""
    masks = G.adjacency_masks()
    parts: list[tuple[int, ...]] = []

    def rec(uncovered: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if uncovered == 0:
            yield tuple(parts)
            return
        if len(parts) >= max_parts:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for clique in reference_cliques_containing(v, uncovered, masks):
            mask = 0
            for u in clique:
                mask |= 1 << u
            parts.append(clique)
            yield from rec(uncovered & ~mask)
            parts.pop()

    yield from rec((1 << G.n) - 1)


def reference_min_clique_cover_size(G: PatternGraph) -> int:
    """Fewest cliques covering the vertices, by a separate branch and bound."""
    masks = G.adjacency_masks()
    omega = max(len(c) for c in all_cliques(G))
    best = G.n  # all singletons always works

    def search(uncovered: int, used: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, used)
            return
        if used + -(-uncovered.bit_count() // omega) >= best:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for clique in reference_cliques_containing(v, uncovered, masks):
            mask = 0
            for u in clique:
                mask |= 1 << u
            search(uncovered & ~mask, used + 1)

    search((1 << G.n) - 1, 0)
    return best


def reference_min_cover_bound(G: PatternGraph) -> tuple[CliqueCover, int]:
    """The cover-bound search recomputing the partial bound at every node."""
    masks = G.adjacency_masks()
    omega = max(len(c) for c in all_cliques(G))
    full = (1 << G.n) - 1

    best_cover: list[tuple[int, ...]] | None = None
    best_bound: int | None = None

    def partial_bound(parts: list[tuple[int, ...]], remaining: int) -> int:
        sizes = sorted((len(p) for p in parts if len(p) >= 2), reverse=True)
        l = sum(1 for p in parts if len(p) == 1)
        base = ordered_cover_bound(sizes, l)
        if remaining:
            needed = -(-remaining.bit_count() // omega)
            if not parts:
                needed -= 1
            base += max(0, needed)
        return base

    def search(uncovered: int, parts: list[tuple[int, ...]]) -> None:
        nonlocal best_cover, best_bound
        if best_bound is not None and partial_bound(parts, uncovered) > best_bound:
            return
        if uncovered == 0:
            key = CliqueCover(parts).cliques
            bound = cover_bound(CliqueCover(parts))
            if (
                best_bound is None
                or bound < best_bound
                or (bound == best_bound and key < CliqueCover(best_cover).cliques)
            ):
                best_bound = bound
                best_cover = list(parts)
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for clique in reference_cliques_containing(v, uncovered, masks):
            mask = 0
            for u in clique:
                mask |= 1 << u
            parts.append(clique)
            search(uncovered & ~mask, parts)
            parts.pop()

    search(full, [])
    assert best_cover is not None and best_bound is not None
    return CliqueCover(best_cover), best_bound


def _cliques_containing(allowed: int, masks: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """(clique, bitmask) for each clique within `allowed` that holds its lowest vertex.

    Members are grown in increasing order, so each clique appears once and
    already sorted.  Returned largest first, then lexicographically.
    """
    v = (allowed & -allowed).bit_length() - 1
    found: list[tuple[tuple[int, ...], int]] = []

    def grow(members: tuple[int, ...], bits: int, candidates: int) -> None:
        found.append((members, bits))
        m = candidates
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            grow(members + (u,), bits | low, candidates & masks[u] & ~((low << 1) - 1))

    grow((v,), 1 << v, masks[v] & allowed & ~((2 << v) - 1))
    found.sort(key=lambda c: (-len(c[0]), c[0]))
    return found


def completion_bound(k: int, l: int, r: int, omega: int) -> int:
    """Least cover bound, less the sum_i (i-1) q_i so far, of a partition
    completing k parts of size >= 2 and l singletons with r more vertices
    in cliques of at most omega.  That sum adds the smaller size of each
    pair of parts of size >= 2, so a new one adds at least 2 per other one,
    old or new; `a` new ones leave at least r - a*omega singletons.  At
    r = 0 this is the partial partition's own bound less the sum."""
    return min(
        (k + a) * (1 + s) + 2 * k * a + a * (a - 1) + s * s // 4
        for a in range(r // 2 + 1 if omega > 1 else 1)
        for s in (l + max(0, r - a * omega),)
    )


class CliquePartitions:
    """Iterating yields `(parts, bound)` for each partition of G's vertices
    into cliques, with its cover bound, in canonical order: lowest
    uncovered vertex first, its cliques largest first, then lexicographic.
    It serves the two vertex-cover searches below, not the rank search.

    A child leaving `left` vertices uncovered, in cliques of at most
    omega' = min(omega, classes of `_colour_classes` of the rest), needs
    ceil(left / omega') more parts, and no completion of it has a bound
    below its sum_i (i-1) q_i plus `completion_bound`; it is skipped when
    the first is above `max_parts` or the second above `max_bound`.  While
    `max_bound` is above every bound, inner children skip the second.
    Callers may lower either limit between yields, and may only lower it;
    both are reread after each child entered.  A child whose subtree
    yielded nothing is not entered again in that iteration: its uncovered
    rest and its sizes >= 2 (which leave its singleton count) fix every
    bound and part count below it, so lower limits cannot let it yield.
    The sum is kept incrementally (sizes >= 2 sorted with `bisect`), each
    uncovered set's branch list is built once, and each completion bound
    once per (parts of size >= 2, singletons, vertices left, omega').
    """

    def __init__(self, G: PatternGraph, max_parts: int | None = None):
        self.full = (1 << G.n) - 1
        self.masks = G.masks
        self.omega = len(max_clique(G.masks))
        # ints, not inf: the limits are compared in the innermost loop
        self.max_parts = G.n if max_parts is None else max_parts
        self.max_bound = G.n * G.n
        self._branches: dict[int, list[tuple[tuple[int, ...], int, int, int, int, int]]] = {}
        self._completions: dict[tuple[int, int, int, int], int] = {}

    def __iter__(self) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
        masks, omega, branches = self.masks, self.omega, self._branches
        completions = self._completions
        unbounded = len(masks) ** 2  # no cover bound reaches n*n
        parts: list[tuple[int, ...]] = []
        sizes: list[int] = []  # sizes >= 2 of the parts, ascending
        dead: set[tuple[int, tuple[int, ...]]] = set()
        yields = 0

        def search(uncovered: int, weighted: int, l: int, depth: int):
            # weighted: sum_i (i-1) q_i over the sizes >= 2; l: singletons;
            # depth: the part count of each child
            nonlocal yields
            cliques = branches.get(uncovered)
            if cliques is None:
                # (clique, uncovered rest, parts the rest still needs, size,
                # vertices the rest holds, omega' of the rest: 1 when empty)
                cliques = branches[uncovered] = []
                left = uncovered.bit_count()
                for clique, mask in _cliques_containing(uncovered, masks):
                    rest, q = uncovered ^ mask, len(clique)
                    omega_rest = min(omega, len(_colour_classes(rest, masks))) or 1
                    need = -((q - left) // omega_rest)
                    cliques.append((clique, rest, need, q, left - q, omega_rest))
            k = len(sizes)
            slack, max_bound = self.max_parts - depth, self.max_bound
            for clique, rest, need, q, r, omega_rest in cliques:
                if need > slack:
                    continue
                if q == 1:
                    pos, kk, w, ll = -1, k, weighted, l + 1
                else:
                    # q goes after the sizes >= q in descending order; each
                    # smaller size moves one place down
                    pos = bisect.bisect_left(sizes, q)
                    kk, w, ll = k + 1, weighted + (k - pos) * q + sum(sizes[:pos]), l
                if not rest or max_bound < unbounded:
                    key = (kk, ll, r, omega_rest)
                    tail = completions.get(key)
                    if tail is None:
                        tail = completions[key] = completion_bound(*key)
                    bound = w + tail  # the child's own bound once r == 0
                    if bound > max_bound:
                        continue
                parts.append(clique)
                if not rest:
                    yields += 1
                    yield tuple(parts), bound
                else:
                    if pos >= 0:
                        sizes.insert(pos, q)
                    state = (rest, tuple(sizes))  # with the rest, the sizes fix ll
                    if state not in dead:
                        before = yields
                        yield from search(rest, w, ll, depth + 1)
                        if yields == before:
                            dead.add(state)
                    if pos >= 0:
                        del sizes[pos]
                parts.pop()
                slack, max_bound = self.max_parts - depth, self.max_bound

        return search(self.full, 0, 0, 1)


def partition_min_cover_bound(G: PatternGraph) -> tuple[CliqueCover, int]:
    """Exact minimum of the cover bound over all vertex clique covers.

    Any cover can be shrunk to a partition of the vertex set into cliques
    without increasing the bound, so this walks `CliquePartitions`,
    lowering `max_bound` to each bound found; no later partition exceeds
    it.  Ties break toward the canonically smallest clique list.  The n
    singletons have bound floor(n^2/4) and the smallest clique list of
    all, so they win every tie there: the search starts one below it and
    falls back to them when it finds nothing, as on every triangle-free
    pattern.
    """
    search = CliquePartitions(G)
    best, best_key = G.n * G.n // 4, tuple((v,) for v in range(G.n))
    search.max_bound = best - 1
    for parts, bound in search:
        key = tuple(sorted(parts, key=lambda c: (-len(c), c)))
        if bound < best or key < best_key:
            best_key, best, search.max_bound = key, bound, bound
    return CliqueCover(best_key), best


def partition_min_clique_cover_size(G: PatternGraph) -> int:
    """Minimum number of cliques covering all vertices (cardinality, not bound)."""
    search = CliquePartitions(G, max_parts=G.n - 1)  # n singletons always cover
    for parts, _ in search:
        search.max_parts = len(parts) - 1
    return search.max_parts + 1


class _Infeasible(Exception):
    pass


class _SignedUnionFind:
    """Tracks b_v = sign * x_root + offset relations induced by equalities."""

    def __init__(self, variables: Sequence[int]):
        self.parent = {v: v for v in variables}
        self.sign = {v: 1 for v in variables}
        self.offset = {v: Fraction(0) for v in variables}
        self.pin: dict[int, Fraction] = {}

    def find(self, v: int) -> tuple[int, int, Fraction]:
        if self.parent[v] == v:
            return v, self.sign[v], self.offset[v]
        root, s, o = self.find(self.parent[v])
        s_total = self.sign[v] * s
        o_total = self.sign[v] * o + self.offset[v]
        self.parent[v], self.sign[v], self.offset[v] = root, s_total, o_total
        return root, s_total, o_total

    def pin_root(self, root: int, value: Fraction) -> None:
        if root in self.pin:
            if self.pin[root] != value:
                raise _Infeasible
        else:
            self.pin[root] = value

    def add_equality(self, i: int, j: int, c: Fraction) -> None:
        ri, si, oi = self.find(i)
        rj, sj, oj = self.find(j)
        if ri == rj:
            coeff = si + sj
            if coeff == 0:
                if oi + oj != c:
                    raise _Infeasible
            else:
                self.pin_root(ri, (c - oi - oj) / coeff)
            return
        # express x_rj through x_ri and attach
        self.parent[rj] = ri
        self.sign[rj] = -si * sj
        self.offset[rj] = sj * (c - oi - oj)
        if rj in self.pin:
            pinned = self.pin.pop(rj)
            # pinned = sign[rj] * x_ri + offset[rj]
            self.pin_root(ri, (pinned - self.offset[rj]) * self.sign[rj])

    def value_expr(self, v: int) -> tuple[int | None, int, Fraction]:
        """(free_root or None, sign, offset); root None means b_v is pinned."""
        root, s, o = self.find(v)
        if root in self.pin:
            return None, 0, s * self.pin[root] + o
        return root, s, o


def _fm_solve(
    constraints: list[tuple[dict[int, Fraction], Fraction]],
    roots: list[int],
) -> dict[int, Fraction] | None:
    """Feasibility + witness for linear constraints sum(coef*x) >= rhs.

    Eliminates roots in order by Fourier-Motzkin, then back-substitutes,
    taking each variable at its lowest feasible value for determinism.
    Returns None when infeasible.
    """
    layers: list[tuple[int, list[tuple[dict[int, Fraction], Fraction]]]] = []
    current = constraints
    for x in roots:
        with_x = [c for c in current if c[0].get(x)]
        rest = [c for c in current if not c[0].get(x)]
        layers.append((x, with_x))
        lowers = [c for c in with_x if c[0][x] > 0]
        uppers = [c for c in with_x if c[0][x] < 0]
        for cl in lowers:
            for cu in uppers:
                a = cl[0][x]
                b = -cu[0][x]
                coeffs: dict[int, Fraction] = {}
                for k, v in cl[0].items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + b * v
                for k, v in cu[0].items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + a * v
                coeffs = {k: v for k, v in coeffs.items() if k != x and v != 0}
                rest.append((coeffs, b * cl[1] + a * cu[1]))
        current = rest
    for coeffs, rhs in current:
        if not coeffs and rhs > 0:
            return None
    values: dict[int, Fraction] = {}
    for x, with_x in reversed(layers):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for coeffs, rhs in with_x:
            cx = coeffs[x]
            rest_val = rhs
            for k, v in coeffs.items():
                if k != x:
                    rest_val -= v * values[k]
            bound = rest_val / cx
            if cx > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is not None:
            values[x] = lo
        elif hi is not None:
            values[x] = hi if hi < 0 else Fraction(0)
        else:
            values[x] = Fraction(0)
    return values


def reference_solve_factor_system(system: FactorConstraintSystem) -> TropVector | None:
    """The factor system solved by substitution and Fourier-Motzkin, or None.

    Equalities are substituted along signed union-find components; the
    free roots are eliminated in ascending order and back-substituted, each
    at its least feasible value (min(upper bound, 0) when it has none).
    The witness extends to infinity outside the support.
    """
    variables = sorted(system.support)
    uf = _SignedUnionFind(variables)
    try:
        for z in system.zeros:
            root, s, o = uf.find(z)
            uf.pin_root(root, (Fraction(0) - o) * s)
        for i, j, c in system.equalities:
            uf.add_equality(i, j, c)
    except _Infeasible:
        return None

    constraints: list[tuple[dict[int, Fraction], Fraction]] = []
    free_roots: set[int] = set()
    for i, j, rhs in system.inequalities:
        coeffs: dict[int, Fraction] = {}
        const = Fraction(0)
        for t in (i, j):
            root, s, o = uf.value_expr(t)
            const += o
            if root is not None:
                coeffs[root] = coeffs.get(root, Fraction(0)) + s
                free_roots.add(root)
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        if not coeffs:
            if const < rhs:
                return None
        else:
            constraints.append((coeffs, rhs - const))

    # equality-pinned components might violate inequalities only through the
    # constraints above; also collect any remaining free roots so they get
    # values during back-substitution
    for v in variables:
        root, _, _ = uf.value_expr(v)
        if root is not None:
            free_roots.add(root)

    values = _fm_solve(constraints, sorted(free_roots))
    if values is None:
        return None

    entries: list[TropScalar] = [INF] * system.n
    assignment: dict[int, Fraction] = {}
    for v in variables:
        root, s, o = uf.value_expr(v)
        assignment[v] = o if root is None else s * values[root] + o
        entries[v] = TropScalar(assignment[v])

    # exact safety recheck of the raw system
    for z in system.zeros:
        if assignment[z] != 0:
            return None
    for i, j, c in system.equalities:
        if assignment[i] + assignment[j] != c:
            return None
    for i, j, c in system.inequalities:
        if assignment[i] + assignment[j] < c:
            return None
    return TropVector(entries)


def reference_is_completely_positive(A: SymTropMatrix) -> bool:
    """The CP check on `TropScalar` arithmetic: 2 * A[i,j] >= A[i,i] + A[j,j]."""
    return not any(
        A[i, j] * A[i, j] < A[i, i] * A[j, j]
        for i in range(A.n)
        for j in range(i + 1, A.n)
    )


def reference_normalize(A: SymTropMatrix) -> tuple[SymTropMatrix, NormalizationRecord]:
    """`normalize` on `TropScalar` arithmetic: the same result and exceptions."""
    if not reference_is_completely_positive(A):
        raise NotCompletelyPositiveError("matrix is not completely positive")
    deleted = tuple(i for i in range(A.n) if A[i, i].is_inf)
    survivors = [i for i in range(A.n) if not A[i, i].is_inf]
    if not survivors:
        raise ValueError(
            "every diagonal entry is infinite; the normalized matrix would be empty"
        )
    half = {i: A[i, i].finite / 2 for i in survivors}

    def entry(p: int, q: int) -> TropScalar:
        a = A[survivors[p], survivors[q]]
        if a.is_inf:
            return INF
        return TropScalar(a.finite - half[survivors[p]] - half[survivors[q]])

    C = SymTropMatrix.from_upper_func(len(survivors), entry)
    return C, NormalizationRecord(A.n, deleted, tuple(half.items()))


def reference_restore_matrix(record: NormalizationRecord, C: SymTropMatrix) -> SymTropMatrix:
    """`record.restore_matrix(C)` on `TropScalar` arithmetic."""
    shift = dict(record.shifts)
    if C.n != len(shift):
        raise ValueError("normalized matrix does not match this record")
    pos = {orig: p for p, orig in enumerate(shift)}

    def entry(i: int, j: int) -> TropScalar:
        if i in pos and j in pos:
            v = C[pos[i], pos[j]]
            return INF if v.is_inf else TropScalar(v.finite + shift[i] + shift[j])
        return INF

    return SymTropMatrix.from_upper_func(record.n, entry)


def reference_lift_factor(record: NormalizationRecord, c: TropVector) -> TropVector:
    """`record.lift_factor(c)` on `TropScalar` arithmetic."""
    shift = dict(record.shifts)
    if len(c) != len(shift):
        raise ValueError("factor length does not match this record")
    entries: list[TropScalar] = [INF] * record.n
    for v, orig in zip(c, shift):
        entries[orig] = v if v.is_inf else TropScalar(v.finite + shift[orig])
    return TropVector(entries)


def witness_vector(x2: Sequence[Optional[int]], scale: int) -> TropVector:
    """A search witness, twice its coordinates on the grid of `scale` (None
    for inf), as the exact vector it stands for."""
    return TropVector(None if v is None else Fraction(v, 2 * scale) for v in x2)


def _finite_offdiag_requirements(C: list[list[Optional[int]]]) -> list[tuple[int, int, int]]:
    """The finite entries c = C[i][j] with i < j, as (i, j, c) in (c, i, j) order."""
    n = len(C)
    reqs = [(C[i][j], i, j) for i in range(n) for j in range(i + 1, n) if C[i][j] is not None]
    return [(i, j, c) for c, i, j in sorted(reqs)]


def _search_skeleton(
    C: list[list[Optional[int]]],
    scale: int,
    r: int,
    parts: Sequence[tuple[int, ...]],
    reqs: Sequence[tuple[int, int, int]],
    budget: _Budget,
    stats: SearchStats,
) -> Optional[list[TropVector]]:
    """DFS over requirement assignments for one zero-set skeleton.

    Factor k < len(parts) attains the diagonal zeros of parts[k].  Returns
    the factors, or None when this skeleton is exhausted; raises _Guard on
    budget exhaustion.
    """
    factors = []
    for p in parts:
        f = _FactorBuild(C)
        for z in p:
            if not f.push(z, z, 0):
                raise AssertionError("a part is a clique of zero entries")
        factors.append(f)
    factors += [_FactorBuild(C) for _ in range(r - len(parts))]
    n_fixed = len(parts)

    def rec(depth: int) -> Optional[list[TropVector]]:
        if depth == len(reqs):
            out = [f.witness() for f in factors if f.vars]
            assert all(w is not None for w in out)
            return [witness_vector(x2, scale) for x2 in out]
        i, j, c = reqs[depth]
        touched_spares = sum(1 for f in factors[n_fixed:] if f.vars)
        limit = min(r, n_fixed + touched_spares + 1)
        for f in factors[:limit]:
            budget.tick()
            if f.push(i, j, c):
                result = rec(depth + 1)
                if result is not None:
                    return result
            else:
                stats.refuted_branches += 1
            f.pop()
        return None

    return rec(0)


def skeleton_cp_rank_leq(
    A: SymTropMatrix,
    r: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> RankSearchOutcome:
    """`cp_rank_leq` by the skeleton walk: each partition of the vertices
    into at most r cliques of the pattern graph, in canonical order, fixes
    the factors holding the diagonal zeros, and the off-diagonal entries
    are searched under it; `stats.skeletons` counts the partitions tried."""
    require_normalized(A)
    if r < 1:
        raise ValueError("r must be >= 1")
    C, _, scale = scaled_rows(A)
    reqs = _finite_offdiag_requirements(C)
    budget = _Budget(node_limit, timeout_s)
    stats = SearchStats()
    start = time.monotonic()
    status, dec = REFUTED, None
    try:
        for parts, _ in CliquePartitions(pattern_graph(A), max_parts=r):
            stats.skeletons += 1
            vectors = _search_skeleton(C, scale, r, parts, reqs, budget, stats)
            if vectors is not None:
                status, dec = FOUND, Decomposition(A, vectors)
                break
    except _Guard:
        status = UNDETERMINED
    stats.nodes = budget.nodes
    stats.wall_time = time.monotonic() - start
    return RankSearchOutcome(status, r, dec, stats)


def dressed(C: SymTropMatrix, seed: int) -> SymTropMatrix:
    """C with each row shifted by a seeded half-integer s_i (a_ij + s_i + s_j,
    so an odd diagonal where C's is 0) and up to two all-inf rows inserted at
    seeded places; the normalized form of the result is that of C."""
    rng = random.Random(seed)
    n = C.n + rng.randrange(3)
    where = {p: k for k, p in enumerate(sorted(rng.sample(range(n), C.n)))}
    shift = [Fraction(rng.randrange(-7, 8), 2) for _ in range(C.n)]

    def entry(i, j):
        if i not in where or j not in where:
            return INF
        k, l = where[i], where[j]
        return C[k, l] * TropScalar(shift[k] + shift[l])

    return SymTropMatrix.from_upper_func(n, entry)
