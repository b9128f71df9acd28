"""Exact CP-rank of small tropical matrices by complete search.

Deciding whether a normalized CP matrix is a tropical sum of r rank-one
outer products reduces to a finite search: every finite entry must be
attained exactly by at least one summand, so each entry can be assigned a
designated "achiever" factor.  Given an assignment, a factor only needs
finite coordinates where its assigned entries touch it (infinity elsewhere
relaxes everything), and its coordinate values form a small exact rational
feasibility problem:

    b_i + b_j  = a_ij   for each assigned entry,
    b_s + b_t >= a_st   for every finite entry inside the support,
    b_t       >= 0      (diagonal domination; the diagonal is zero),
    b_z        = 0      on the factor's designated zero set.

Every constraint has two unit coefficients, so the system is a UTVPI
(octagon) system: it has a rational solution exactly when its doubled
difference-constraint graph has no negative cycle.  The search scales the
matrix by the lcm of its denominators once and decides each search node
with an incremental negative-cycle check on Python ints (`_Utvpi`).  Only
at a found leaf is each factor solved exactly, by substitution along
equality components followed by Fourier-Motzkin elimination
(`solve_factor_system`), which gives a deterministic witness.

Diagonal entries are assigned first as a "zero-set skeleton": a partition
of the vertices into cliques of the pattern graph, one part per factor
that holds zeros.  Branch and bound over skeletons and entry assignments
is complete, so a fully exhausted search is a proof of CP-rank > r;
resource-guard interruptions are reported as undetermined, never as
refutation.

The exact sweep starts at the larger of two lower bounds.
`rank_lower_bound` is combinatorial (edge and vertex clique covers of the
pattern graph).  `fooling_set_bound` counts pairwise conflicting entries:
two finite entries conflict when no single factor attains both, decided
in closed form on the system restricted to their (at most four)
coordinates.  Dropping the other coordinates only relaxes the system, so
a conflict found there is a conflict of the whole factor, and every r
below the bound is refuted without a search.  On the 412 CP instances
with a pinned rank in the benchmark catalogue the larger bound equals the
rank on 411, and the serial sweep over all of them takes 2.4 s instead of
7.2 s.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .analysis import (
    is_completely_positive,
    normalize,
    lift_decomposition,
    require_normalized,
)
from .core import (
    INF,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
)
from .graphs import (
    _cliques_containing,
    edge_clique_cover_number,
    min_clique_cover_size,
    pattern_graph,
)

FOUND = "found"
REFUTED = "refuted"
UNDETERMINED = "undetermined"

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIMEOUT_S = 300.0


# ---------------------------------------------------------------------------
# Per-factor feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorConstraintSystem:
    """Exact rational constraints on one factor's finite coordinates.

    Pairs may repeat a coordinate: (t, t, c) encodes 2*b_t >= c (or = c).
    Coordinates outside `support` are infinite and unconstrained.
    """

    n: int
    support: frozenset[int]
    zeros: frozenset[int]
    equalities: tuple[tuple[int, int, Fraction], ...]
    inequalities: tuple[tuple[int, int, Fraction], ...]


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

    def value_expr(self, v: int) -> tuple[Optional[int], int, Fraction]:
        """(free_root or None, sign, offset); root None means b_v is pinned."""
        root, s, o = self.find(v)
        if root in self.pin:
            return None, 0, s * self.pin[root] + o
        return root, s, o


def _fm_solve(
    constraints: list[tuple[dict[int, Fraction], Fraction]],
    roots: list[int],
) -> Optional[dict[int, Fraction]]:
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
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
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


def solve_factor_system(system: FactorConstraintSystem) -> Optional[TropVector]:
    """An exact solution of the factor system, or None when refuted.

    The witness extends to infinity outside the support and is deterministic
    (each eliminated variable takes its smallest feasible value).
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


class _Utvpi:
    """Incremental rational feasibility of x_i + x_j {>=, <=} c over ints.

    Variable t has two graph nodes, 2t standing for x_t and 2t + 1 for
    -x_t.  x_i + x_j >= c adds the edges 2i -> 2j+1 and 2j -> 2i+1 of
    weight -c; x_i + x_j <= c adds 2i+1 -> 2j and 2j+1 -> 2i of weight c
    (one edge when i == j).  The system is feasible over the rationals
    exactly when this graph has no negative cycle.  `dist` keeps potentials
    with dist[v] <= dist[u] + w on every edge while the system is feasible;
    each addition relaxes only from the tails of the new edges.  `mark` and
    `undo` roll back edges, variables and potentials along a DFS; after an
    infeasible addition only `undo` may follow.
    """

    __slots__ = ("dist", "out", "nvars", "_edges")

    def __init__(self, n: int):
        self.dist = [0] * (2 * n)
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
        self.nvars = 0
        self._edges: list[int] = []  # tail of every edge, in insertion order

    def mark(self) -> tuple[int, list[int], int]:
        return len(self._edges), self.dist[:], self.nvars

    def undo(self, mark: tuple[int, list[int], int]) -> None:
        n_edges, self.dist[:], self.nvars = mark
        out, edges = self.out, self._edges
        for u in reversed(edges[n_edges:]):
            out[u].pop()
        del edges[n_edges:]

    def add_var(self, t: int, lowers: Sequence[tuple[int, int]]) -> None:
        """New variable x_t with x_t + x_s >= c for each (s, c); s may be t.

        x_t has no upper bound yet, so this cannot make the system
        infeasible: potentials for a large enough x_t satisfy every new edge.
        """
        dist, out, edges = self.dist, self.out, self._edges
        plus, minus = 2 * t, 2 * t + 1
        high = max([dist[2 * s + 1] + c for s, c in lowers if s != t], default=0)
        low = 0
        for s, c in lowers:
            out[plus].append((2 * s + 1, -c))
            edges.append(plus)
            if s == t:
                low = min(low, high - c)
            else:
                low = min(low, dist[2 * s] - c)
                out[2 * s].append((minus, -c))
                edges.append(2 * s)
        dist[plus], dist[minus] = high, low
        self.nvars += 1

    def add_lower(self, i: int, j: int, c: int) -> bool:
        """Add x_i + x_j >= c; whether the system is still feasible."""
        return self._add(2 * i, 2 * j + 1, 2 * j, 2 * i + 1, -c)

    def add_upper(self, i: int, j: int, c: int) -> bool:
        """Add x_i + x_j <= c; whether the system is still feasible."""
        return self._add(2 * i + 1, 2 * j, 2 * j + 1, 2 * i, c)

    def _add(self, u1: int, v1: int, u2: int, v2: int, w: int) -> bool:
        dist, out, edges = self.dist, self.out, self._edges
        out[u1].append((v1, w))
        edges.append(u1)
        if u1 != u2:
            out[u2].append((v2, w))
            edges.append(u2)
        # Bellman-Ford from the current potentials, relaxing only out of
        # nodes that changed; with 2 * nvars nodes it settles within that
        # many rounds unless a negative cycle keeps it going.
        frontier: Iterable[int] = (u1, u2)
        for _ in range(2 * self.nvars):
            changed = set()
            for u in frontier:
                du = dist[u]
                for v, wt in out[u]:
                    if du + wt < dist[v]:
                        dist[v] = du + wt
                        changed.add(v)
            if not changed:
                return True
            frontier = changed
        return False


# ---------------------------------------------------------------------------
# Search bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class SearchStats:
    nodes: int = 0
    skeletons: int = 0
    refuted_branches: int = 0
    wall_time: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.skeletons += other.skeletons
        self.refuted_branches += other.refuted_branches
        self.wall_time += other.wall_time


@dataclass
class RankSearchOutcome:
    """Result of one cp_rank_leq(A, r) decision."""

    status: str  # found / refuted / undetermined
    r: int
    decomposition: Optional[Decomposition]
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


@dataclass
class RankCertificate:
    """Outcome of an exact rank computation.

    Either an exact rank with a verified decomposition and the list of
    completely refuted smaller values, or a marker that the matrix is not
    CP, or an honest "undetermined" report when a resource guard or the
    r cap interrupted the sweep.
    """

    status: str  # exact / not_cp / undetermined
    rank: Optional[int]
    decomposition: Optional[Decomposition]
    refuted: tuple[int, ...]
    undetermined_at: Optional[int]
    stats: SearchStats
    # for each refuted r: "bound" (below the fooling-set bound) or "search"
    refuted_by: tuple[str, ...] = ()


class _Guard(Exception):
    pass


class _Budget:
    def __init__(self, node_limit: int, timeout_s: float):
        self.node_limit = node_limit
        self.deadline = time.monotonic() + timeout_s
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _Guard
        if self.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise _Guard


def _finite_offdiag_requirements(A: SymTropMatrix) -> list[tuple[int, int, Fraction]]:
    reqs = [
        (v.finite, i, j)
        for i, j, v in A.upper_entries()
        if i != j and not v.is_inf
    ]
    reqs.sort()
    return [(i, j, val) for val, i, j in reqs]


def _clique_partitions(
    masks: list[int], n: int, max_parts: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1} into at most max_parts cliques, canonically."""
    parts: list[tuple[int, ...]] = []

    def rec(uncovered: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if uncovered == 0:
            yield tuple(parts)
            return
        if len(parts) >= max_parts:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for clique in _cliques_containing(v, uncovered, masks):
            mask = 0
            for u in clique:
                mask |= 1 << u
            parts.append(clique)
            yield from rec(uncovered & ~mask)
            parts.pop()

    yield from rec((1 << n) - 1)


class _FactorBuild:
    """Mutable factor state during the assignment search.

    `support` and `equalities` describe the factor system exactly (for the
    witness at a found leaf); `kernel` holds the same system on the scaled
    matrix `C` (ints, None for inf) and decides feasibility at every node.
    """

    __slots__ = ("zeros", "support", "equalities", "C", "kernel", "_undo")

    def __init__(self, zeros: frozenset[int], C: list[list[Optional[int]]]):
        self.zeros = zeros
        self.support: set[int] = set()
        self.equalities: list[tuple[int, int, Fraction]] = []
        self.C = C
        self.kernel = _Utvpi(len(C))
        self._undo: list[tuple[tuple[int, list[int], int], list[int]]] = []
        # b_z = 0: with the zero diagonal as its lower half; a zero set is a
        # clique of zero entries, so this never fails
        for z in sorted(zeros):
            self._add_coordinate(z)
            self.kernel.add_upper(z, z, 0)

    def touched(self) -> bool:
        return bool(self.support) or bool(self.equalities)

    def _add_coordinate(self, t: int) -> bool:
        """Make b_t finite; False when an inf entry pairs it with the support."""
        row = self.C[t]
        lowers = [(s, row[s]) for s in self.support]
        if any(c is None for _, c in lowers):
            return False
        lowers.append((t, row[t]))
        self.kernel.add_var(t, lowers)
        self.support.add(t)
        return True

    def push(self, i: int, j: int, value: Fraction, scaled: int) -> bool:
        """Let this factor achieve a_ij = value (scaled in C); whether it stays feasible."""
        added = [t for t in (i, j) if t not in self.support]
        self._undo.append((self.kernel.mark(), added))
        self.equalities.append((i, j, value))
        for t in added:
            if not self._add_coordinate(t):
                return False
        return self.kernel.add_upper(i, j, scaled)

    def pop(self) -> None:
        mark, added = self._undo.pop()
        self.kernel.undo(mark)
        self.equalities.pop()
        self.support.difference_update(added)


def _factor_system(A: SymTropMatrix, f: _FactorBuild) -> FactorConstraintSystem:
    """The factor's full exact system; its support holds finite entries only."""
    support = sorted(f.support)
    inequalities = [
        (s, t, A[s, t].finite) for a_idx, s in enumerate(support) for t in support[a_idx:]
    ]
    return FactorConstraintSystem(
        n=A.n,
        support=frozenset(support),
        zeros=f.zeros,
        equalities=tuple(f.equalities),
        inequalities=tuple(inequalities),
    )


def _scaled(A: SymTropMatrix) -> tuple[list[list[Optional[int]]], int]:
    """A's rows times the lcm of its denominators (ints, None for inf), and that lcm."""
    finite = [v.finite for _, _, v in A.upper_entries() if not v.is_inf]
    scale = math.lcm(1, *(v.denominator for v in finite))
    C = [[None if v.is_inf else int(v.finite * scale) for v in row] for row in A.rows()]
    return C, scale


def _search_skeleton(
    A: SymTropMatrix,
    r: int,
    parts: Sequence[tuple[int, ...]],
    reqs: Sequence[tuple[int, int, Fraction]],
    budget: _Budget,
    stats: SearchStats,
) -> Optional[list[TropVector]]:
    """DFS over requirement assignments for one zero-set skeleton.

    Returns the factors or None when this skeleton is exhausted.  Raises
    _Guard on budget exhaustion.
    """
    C, scale = _scaled(A)
    scaled = [int(value * scale) for _, _, value in reqs]
    factors = [_FactorBuild(frozenset(p), C) for p in parts]
    factors += [_FactorBuild(frozenset(), C) for _ in range(r - len(parts))]
    n_fixed = len(parts)

    def rec(depth: int) -> Optional[list[TropVector]]:
        if depth == len(reqs):
            out: list[TropVector] = []
            for f in factors:
                if not f.touched():
                    continue
                witness = solve_factor_system(_factor_system(A, f))
                if witness is None:
                    raise AssertionError("factor system feasible by the kernel but not by FM")
                out.append(witness)
            return out
        i, j, value = reqs[depth]
        touched_spares = sum(
            1 for f in factors[n_fixed:] if f.touched()
        )
        limit = min(r, n_fixed + touched_spares + 1)
        for f_idx in range(limit):
            f = factors[f_idx]
            budget.tick()
            if f.push(i, j, value, scaled[depth]):
                result = rec(depth + 1)
                if result is not None:
                    return result
            else:
                stats.refuted_branches += 1
            f.pop()
        return None

    return rec(0)


def cp_rank_leq(
    A: SymTropMatrix,
    r: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    threads: int = 1,
) -> RankSearchOutcome:
    """Decide whether a normalized CP matrix has CP-rank at most r.

    Returns a verified decomposition on success (padding factors that stay
    all-infinite are dropped), a complete refutation after exhausting every
    zero-set skeleton and assignment, or an undetermined report when the
    node limit or timeout was hit first.
    """
    require_normalized(A)
    if r < 1:
        raise ValueError("r must be >= 1")
    if threads > 1:
        return _cp_rank_leq_parallel(A, r, node_limit, timeout_s, threads)
    G = pattern_graph(A)
    masks = G.adjacency_masks()
    reqs = _finite_offdiag_requirements(A)
    budget = _Budget(node_limit, timeout_s)
    stats = SearchStats()
    start = time.monotonic()
    status, dec = REFUTED, None
    try:
        for parts in _clique_partitions(masks, A.n, r):
            stats.skeletons += 1
            vectors = _search_skeleton(A, r, parts, reqs, budget, stats)
            if vectors is not None:
                status, dec = FOUND, Decomposition(A, vectors)
                break
    except _Guard:
        status = UNDETERMINED
    stats.nodes = budget.nodes
    stats.wall_time = time.monotonic() - start
    return RankSearchOutcome(status, r, dec, stats)


def _skeleton_worker(args) -> tuple[int, str, Optional[list[list[str]]], SearchStats]:
    rows, r, parts, node_limit, deadline, index = args
    A = SymTropMatrix.from_rows(rows)
    reqs = _finite_offdiag_requirements(A)
    budget = _Budget(node_limit, deadline - time.monotonic())
    stats = SearchStats(skeletons=1)
    start = time.monotonic()
    try:
        vectors = _search_skeleton(A, r, parts, reqs, budget, stats)
        status = REFUTED if vectors is None else FOUND
    except _Guard:
        status, vectors = UNDETERMINED, None
    stats.nodes = budget.nodes
    stats.wall_time = time.monotonic() - start
    serial = None if vectors is None else [[str(e) for e in vec] for vec in vectors]
    return index, status, serial, stats


def _cp_rank_leq_parallel(
    A: SymTropMatrix, r: int, node_limit: int, timeout_s: float, threads: int
) -> RankSearchOutcome:
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return cp_rank_leq(A, r, node_limit, timeout_s, threads=1)

    G = pattern_graph(A)
    masks = G.adjacency_masks()
    skeletons = list(_clique_partitions(masks, A.n, r))
    if len(skeletons) <= 1:
        return cp_rank_leq(A, r, node_limit, timeout_s, threads=1)
    rows = [[str(e) for e in row] for row in A.rows()]
    per_branch_nodes = max(1, node_limit // max(1, len(skeletons)))
    # one deadline for the whole decision: each job gets what is left of it
    deadline = time.monotonic() + timeout_s
    jobs = [
        (rows, r, parts, per_branch_nodes, deadline, idx)
        for idx, parts in enumerate(skeletons)
    ]
    stats = SearchStats()
    start = time.monotonic()
    results: dict[int, tuple[str, Optional[list[list[str]]]]] = {}
    with ctx.Pool(processes=threads) as pool:
        for index, status, serial, branch_stats in pool.imap_unordered(
            _skeleton_worker, jobs
        ):
            stats.merge(branch_stats)
            results[index] = (status, serial)
    stats.wall_time = time.monotonic() - start
    # Deterministic reduction: the canonically first successful skeleton wins.
    for idx in sorted(results):
        status, serial = results[idx]
        if status == FOUND:
            factors = [TropVector(entries) for entries in serial]
            dec = Decomposition(A, factors)
            return RankSearchOutcome(FOUND, r, dec, stats)
    if any(status == UNDETERMINED for status, _ in results.values()):
        return RankSearchOutcome(UNDETERMINED, r, None, stats)
    return RankSearchOutcome(REFUTED, r, None, stats)


# ---------------------------------------------------------------------------
# Bounds and the exact rank sweep
# ---------------------------------------------------------------------------

def rank_lower_bound(A: SymTropMatrix) -> int:
    """Sound combinatorial lower bound for a normalized CP matrix.

    The max of the edge clique cover number of the pattern graph (the
    support's CP-rank) and the minimum cardinality of a vertex clique
    cover: every factor's zero coordinates form a clique, and every vertex
    needs a zero somewhere.
    """
    require_normalized(A)
    G = pattern_graph(A)
    cc, _ = edge_clique_cover_number(G)
    return max(cc, min_clique_cover_size(G), 1)


def _conflict(C: list[list[Optional[int]]], e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether no factor of the scaled normalized matrix C attains both entries.

    e and f are distinct finite entries (i <= j), the diagonal included.  A
    factor attaining a_ij and a_kl has b_i + b_j = a_ij, b_k + b_l = a_kl
    and b_s + b_t >= a_st for s, t in S = {i, j, k, l}, so every entry
    inside S is finite; the closed forms below decide that system.
    """
    (i, j), (k, l) = e, f
    if i == j and k == l:
        # b_i = b_k = 0 needs a_ik = 0
        return C[i][k] != 0
    if k == l:
        (i, j), (k, l) = (k, l), (i, j)
    if i == j:
        # b_i = 0; b_k = x with a_ik <= x <= a_kl - a_il
        if i == k or i == l:
            return False
        ik, il = C[i][k], C[i][l]
        return ik is None or il is None or ik + il > C[k][l]
    if i == k or i == l or j == k or j == l:
        # one shared vertex v: b_v = x >= 0, b_p = a_vp - x, b_q = a_vq - x;
        # b_p + b_q >= a_pq holds for some such x exactly when it does at x = 0
        v = i if i in (k, l) else j
        p, q = i + j - v, k + l - v
        pq = C[p][q]
        return pq is None or pq > C[v][p] + C[v][q]
    ik, il, jk, jl = C[i][k], C[i][l], C[j][k], C[j][l]
    if ik is None or il is None or jk is None or jl is None:
        return True
    # x = b_i in [0, a], y = b_k in [0, c], x + y in [ik, a + c - jl] and
    # x - y in [il - c, a - jk]; eliminating y leaves bounds on 2x
    a, c = C[i][j], C[k][l]
    p_lo, p_hi, q_lo, q_hi = ik, a + c - jl, il - c, a - jk
    if p_lo > p_hi or q_lo > q_hi:
        return True
    lo = max(0, 2 * q_lo, 2 * (p_lo - c), p_lo + q_lo)
    hi = min(2 * a, 2 * p_hi, 2 * (c + q_hi), p_hi + q_hi)
    return lo > hi


def _max_clique(adj: list[int]) -> list[int]:
    """A maximum clique of the graph with bitset rows adj, by branch and bound.

    Candidates are greedily coloured, and a branch closes when the clique
    so far plus the colours left cannot beat the best one found.
    """
    best: list[int] = []
    clique: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best
        order: list[tuple[int, int]] = []
        uncoloured, colour = cand, 0
        while uncoloured:
            colour += 1
            free = uncoloured
            while free:
                v = (free & -free).bit_length() - 1
                free &= ~adj[v] & ~(1 << v)
                uncoloured &= ~(1 << v)
                order.append((v, colour))
        for v, colour in reversed(order):
            if len(clique) + colour <= len(best):
                return
            clique.append(v)
            rest = cand & adj[v]
            if rest:
                expand(rest)
            elif len(clique) > len(best):
                best = clique[:]
            clique.pop()
            cand &= ~(1 << v)

    expand((1 << len(adj)) - 1)
    return sorted(best)


def fooling_set_bound(A: SymTropMatrix) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Fooling-set lower bound for a normalized CP matrix: (size, entries).

    Two finite entries conflict when no single factor attains both (see
    `_conflict`).  Each finite entry, diagonal included, is attained by
    some factor of a decomposition, and two conflicting entries never by
    the same one, so a set of pairwise conflicting entries needs that many
    factors.  Returns the largest such set, as 0-based (i, j) with i <= j,
    found by an exact maximum clique search on the conflict graph.  This
    is the tropical analogue of the fooling-set bound for Boolean and
    nonnegative rank.  It does not dominate `rank_lower_bound` (on the
    diagonal alone the conflict graph is the complement of the pattern
    graph), so `cp_rank_exact` takes the max of the two.
    """
    require_normalized(A)
    C, _ = _scaled(A)
    entries = [(i, j) for i in range(A.n) for j in range(i, A.n) if C[i][j] is not None]
    adj = [0] * len(entries)
    for a, e in enumerate(entries):
        for b in range(a + 1, len(entries)):
            if _conflict(C, e, entries[b]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    fooling = tuple(entries[v] for v in _max_clique(adj))
    return len(fooling), fooling


def default_rank_cap(n: int) -> int:
    """max(n, floor(n^2/4)): the known tight upper bound for tropical CP-rank."""
    return max(n, (n * n) // 4)


def cp_rank_exact(
    A: SymTropMatrix,
    r_max: Optional[int] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    threads: int = 1,
) -> tuple[Optional[int | float], RankCertificate]:
    """Smallest r admitting a verified r-factor decomposition.

    Normalization is applied internally (it preserves CP-rank) and the
    certificate is lifted back to the input matrix.  Returns (inf, cert)
    for a non-CP input.  When the sweep is interrupted by a resource guard
    or exceeds r_max, the result is an explicit undetermined report with
    the range already refuted; it is never a guess.  `refuted` runs from
    `rank_lower_bound`; `refuted_by` says for each r whether the
    fooling-set bound or a complete search refuted it.
    """
    stats = SearchStats()
    if all(v.is_inf for _, _, v in A.upper_entries()):
        dec = Decomposition(A, [])
        cert = RankCertificate("exact", 0, dec, (), None, stats)
        return 0, cert
    if not is_completely_positive(A):
        cert = RankCertificate("not_cp", None, None, (), None, stats)
        return float("inf"), cert
    C, record = normalize(A)
    if r_max is None:
        r_max = default_rank_cap(C.n)
    # every r below the fooling-set bound is refuted without a search
    lower = rank_lower_bound(C)
    fooling, _ = fooling_set_bound(C)
    refuted = list(range(lower, min(fooling, r_max + 1)))
    refuted_by = ["bound"] * len(refuted)
    r = lower + len(refuted)
    while r <= r_max:
        outcome = cp_rank_leq(
            C, r, node_limit=node_limit, timeout_s=timeout_s, threads=threads
        )
        stats.merge(outcome.stats)
        if outcome.found:
            lifted = lift_decomposition(outcome.decomposition, record)
            if lifted.target != A:
                raise AssertionError("lifted certificate does not match the input")
            cert = RankCertificate(
                "exact", r, lifted, tuple(refuted), None, stats, tuple(refuted_by)
            )
            return r, cert
        if outcome.refuted:
            refuted.append(r)
            refuted_by.append("search")
            r += 1
            continue
        cert = RankCertificate(
            "undetermined", None, None, tuple(refuted), r, stats, tuple(refuted_by)
        )
        return None, cert
    cert = RankCertificate(
        "undetermined", None, None, tuple(refuted), r_max + 1, stats, tuple(refuted_by)
    )
    return None, cert


def zero_one_rank(A: SymTropMatrix) -> int:
    """Exact CP-rank of a normalized 0/1 matrix, combinatorially.

    Equals the edge clique cover number of the pattern graph plus one
    factor per isolated vertex (an isolated vertex's diagonal zero cannot
    share a factor with any other zero).  For the empty pattern this is n.
    """
    require_normalized(A)
    zero, one = TropScalar(0), TropScalar(1)
    for i, j, v in A.upper_entries():
        if i != j and v != zero and v != one:
            raise ValueError(f"entry ({i + 1},{j + 1}) = {v} is not 0 or 1")
    G = pattern_graph(A)
    cc, _ = edge_clique_cover_number(G)
    isolated = sum(1 for v in range(G.n) if not G.neighbors(v))
    return cc + isolated


def threads_from_env(default: int = 1) -> int:
    """Default worker count for searches, from TROPCP_THREADS."""
    raw = os.environ.get("TROPCP_THREADS")
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default
