"""Exact CP-rank of small tropical matrices by complete search.

Deciding whether a normalized CP matrix is a tropical sum of r rank-one
outer products is a finite search: every finite entry, diagonal included,
is attained exactly by at least one summand, so each can be assigned an
"achiever" factor.  A factor needs finite coordinates only where its
assigned entries touch it (infinity elsewhere relaxes everything), and
its coordinate values form a small exact feasibility problem:

    b_i + b_j  = a_ij   for each assigned entry (b_z = 0 for a diagonal one),
    b_s + b_t >= a_st   for every finite entry inside the support,
    b_t       >= 0      (diagonal domination; the diagonal is zero).

Every constraint has two unit coefficients, so the system is a UTVPI
(octagon) system: it has a rational solution exactly when its doubled
difference-constraint graph has no negative cycle.  Each factor keeps one
incremental negative-cycle check on Python ints over the normalized grid
(`_FactorBuild`, a `_Utvpi`); it decides every search node, and at a found
leaf `_witness` builds twice the factor's exact witness on that grid.

Two finite entries conflict when no single factor attains both, decided
in closed form on the system restricted to their at most four
coordinates (`_conflict`); dropping the other coordinates only relaxes
it, so such a conflict holds for the whole factor.  The largest set of
pairwise conflicting entries is the fooling-set bound; it and the
combinatorial `rank_lower_bound` (edge and vertex clique covers of the
pattern graph) start the exact sweep, and every r below the larger one
is refuted without a search.  The conflict graph also prunes the one
search that assigns every finite entry (`_search`).

`cp_rank_exact` prepares the input once (`_Instance`, from its one
`analysis._zero_diagonal` pass): the normalized grid rows, which keep the
CP-rank, and the lift, which turns the integer witnesses into factors of
the input; the certificate is verified once, against the input.  A
normalized input's pass comes from the one gate, `require_normalized`.
`_solve` runs the search for `cp_rank_leq` and the decompose tail; it is
complete, so an exhausted search proves CP-rank > r, and a resource guard
that interrupts it reports undetermined, never a refutation.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .analysis import _normalizable, _zero_diagonal, require_normalized
# unused here but kept: perfbench/layers.py patches them on this module to time spans
from .analysis import is_completely_positive, lift_decomposition, normalize  # noqa
from .core import Decomposition, SymTropMatrix, TropVector, on_grid
from .graphs import (
    PatternGraph,
    edge_clique_cover_number,
    max_clique,
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
    Coordinates outside `support` are infinite and unconstrained, so zeros
    and pairs must name support coordinates (ValueError otherwise).
    """

    n: int
    support: frozenset[int]
    zeros: frozenset[int]
    equalities: tuple[tuple[int, int, Fraction], ...]
    inequalities: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        if any(not 0 <= t < self.n for t in self.support):
            raise ValueError(f"support {sorted(self.support)} is not inside 0..{self.n - 1}")
        named = set(self.zeros)
        for i, j, _ in self.equalities + self.inequalities:
            named.update((i, j))
        if not named <= self.support:
            raise ValueError(f"coordinates {sorted(named - self.support)} are not in the support")


def solve_factor_system(system: FactorConstraintSystem) -> Optional[TropVector]:
    """An exact solution of the factor system, or None when refuted.

    The system is scaled to ints and loaded into a `_Utvpi`, and `_witness`
    builds the same witness from it that the search builds at a found leaf.
    """
    constraints = system.equalities + system.inequalities
    grid, scale = on_grid(c for _, _, c in constraints)
    scaled = [(i, j, c) for (i, j, _), c in zip(constraints, grid)]
    # b_z = 0 and each equality are an upper and a lower bound
    equalities = [(z, z, 0) for z in system.zeros] + scaled[: len(system.equalities)]
    lowers = equalities + scaled[len(system.equalities) :]
    kernel = _Utvpi(system.n)
    for t in sorted(system.support):
        kernel.add_var(t, ())
    if not all(kernel.add_upper(*e) for e in equalities) or not all(
        kernel.add_lower(*l) for l in lowers
    ):
        return None
    x2 = _witness(kernel, equalities, lowers)
    if x2 is None:
        return None
    return TropVector(None if v is None else Fraction(v, 2 * scale) for v in x2)


def _witness(
    kernel: _Utvpi,
    equalities: Sequence[tuple[int, int, int]],
    lowers: Sequence[tuple[int, int, int]],
) -> Optional[list[Optional[int]]]:
    """Twice the deterministic witness of a feasible kernel, on its integer
    grid; None when its recheck fails.

    `equalities` are the kernel's x_i + x_j = c as (i, j, c) in order, with
    b_z = 0 as (z, z, 0), and `lowers` its x_i + x_j >= c.  The roots of
    the equality components (the first coordinate of each equality absorbs
    the second's component) are fixed in the kernel from the largest index
    down, each at its least feasible value given the roots fixed before it,
    or at min(upper bound, 0) when it has no lower bound; every other
    coordinate then follows from its component.  The shortest-path bounds
    are exact over the rationals, so this is the point that eliminating the
    roots in ascending order and substituting back picks.  The witness is
    infinite (None) outside the kernel's variables.
    """
    parent = {t: t for t in kernel.vars}

    def find(t: int) -> int:
        while parent[t] != t:
            t = parent[t]
        return t

    for i, j, _ in equalities:
        parent[find(j)] = find(i)
    for t in sorted((t for t in parent if parent[t] == t), reverse=True):
        # 2 * x_t >= -path(2t, 2t + 1) and 2 * x_t <= path(2t + 1, 2t)
        low = kernel.path(2 * t, 2 * t + 1)
        if low is not None:
            twice = -low
        else:
            high = kernel.path(2 * t + 1, 2 * t)
            twice = 0 if high is None else min(high, 0)
        kernel.add_lower(t, t, twice)
        kernel.add_upper(t, t, twice)

    # every coordinate is now fixed, so the potentials of its two nodes lie
    # on a zero-weight cycle and differ by exactly 2 * x_t
    dist = kernel.dist
    x2 = {t: dist[2 * t] - dist[2 * t + 1] for t in kernel.vars}
    # exact safety recheck of the raw system, on 2 * x
    if any(x2[i] + x2[j] != 2 * c for i, j, c in equalities) or any(
        x2[i] + x2[j] < 2 * c for i, j, c in lowers
    ):
        return None
    return [x2.get(t) for t in range(len(dist) // 2)]


class _Utvpi:
    """Incremental rational feasibility of x_i + x_j {>=, <=} c over ints.

    Variable t has two graph nodes, 2t standing for x_t and 2t + 1 for
    -x_t.  x_i + x_j >= c adds the edges 2i -> 2j+1 and 2j -> 2i+1 of
    weight -c; x_i + x_j <= c adds 2i+1 -> 2j and 2j+1 -> 2i of weight c
    (one edge when i == j).  The system is feasible over the rationals
    exactly when this graph has no negative cycle.  `dist` keeps potentials
    with dist[v] <= dist[u] + w on every edge while the system is feasible;
    each addition relaxes only from the tails of the new edges.  `vars`
    lists the variables in the order they were added.  `mark` and `undo`
    roll back edges, variables and potentials along a DFS; after an
    infeasible addition only `undo` may follow.
    """

    __slots__ = ("dist", "out", "vars", "_edges")

    def __init__(self, n: int):
        self.dist = [0] * (2 * n)
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
        self.vars: list[int] = []
        self._edges: list[int] = []  # tail of every edge, in insertion order

    def mark(self) -> tuple[int, list[int], int]:
        return len(self._edges), self.dist[:], len(self.vars)

    def undo(self, mark: tuple[int, list[int], int]) -> None:
        n_edges, self.dist[:], n_vars = mark
        del self.vars[n_vars:]
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
        self.vars.append(t)

    def add_lower(self, i: int, j: int, c: int) -> bool:
        """Add x_i + x_j >= c; whether the system is still feasible."""
        return self._add(2 * i, 2 * j + 1, 2 * j, 2 * i + 1, -c)

    def add_upper(self, i: int, j: int, c: int) -> bool:
        """Add x_i + x_j <= c; whether the system is still feasible."""
        return self._add(2 * i + 1, 2 * j, 2 * j + 1, 2 * i, c)

    def path(self, u: int, v: int) -> Optional[int]:
        """Shortest-path weight from node u to node v; None when v is unreachable.

        Dijkstra on the weights reduced by the potentials, which are
        nonnegative while the system is feasible.
        """
        dist, out = self.dist, self.out
        best = {u: 0}
        heap = [(0, u)]
        while heap:
            d, x = heapq.heappop(heap)
            if x == v:
                return d - dist[u] + dist[v]
            if d > best[x]:
                continue
            for y, w in out[x]:
                dy = d + w + dist[x] - dist[y]
                if y not in best or dy < best[y]:
                    best[y] = dy
                    heapq.heappush(heap, (dy, y))
        return None

    def _add(self, u1: int, v1: int, u2: int, v2: int, w: int) -> bool:
        dist, out, edges = self.dist, self.out, self._edges
        out[u1].append((v1, w))
        edges.append(u1)
        if u1 != u2:
            out[u2].append((v2, w))
            edges.append(u2)
        # Bellman-Ford from the current potentials, relaxing only out of
        # nodes that changed; with 2 * len(vars) nodes it settles within
        # that many rounds unless a negative cycle keeps it going.
        frontier: Iterable[int] = (u1, u2)
        for _ in range(2 * len(self.vars)):
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
    """Search counters.  `skeletons` is always 0: the search no longer walks
    zero-set skeletons, and the field stays while the report's
    `stats.skeletons` key does."""

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
        if self.nodes % 1024 == 1 and time.monotonic() > self.deadline:
            raise _Guard


class _FactorBuild(_Utvpi):
    """One factor's system during the assignment search, on the grid rows C.

    The kernel holds b_t >= 0 and b_s + b_t >= a_st for its variables
    `vars` (the factor's finite coordinates) and b_i + b_j <= a_ij for each
    entry in `assigned`, as (i, j, scaled value); an assigned diagonal
    entry (z, z, 0) makes b_z = 0.  It decides feasibility at every node
    and, at a found leaf, builds the factor's witness.
    """

    __slots__ = ("assigned", "C", "_marks")

    def __init__(self, C: list[list[Optional[int]]]):
        super().__init__(len(C))
        self.assigned: list[tuple[int, int, int]] = []
        self.C = C
        self._marks: list[tuple[int, list[int], int]] = []

    def _add_coordinate(self, t: int) -> bool:
        """Make b_t finite; False when an inf entry pairs it with the support."""
        row = self.C[t]
        lowers = [(s, row[s]) for s in self.vars]
        if any(c is None for _, c in lowers):
            return False
        lowers.append((t, row[t]))
        self.add_var(t, lowers)
        return True

    def push(self, i: int, j: int, c: int) -> bool:
        """Let this factor achieve the scaled entry c at (i, j); whether it stays feasible."""
        self._marks.append(self.mark())
        self.assigned.append((i, j, c))
        for t in (i, j):
            if t not in self.vars and not self._add_coordinate(t):
                return False
        return self.add_upper(i, j, c)

    def pop(self) -> None:
        self.undo(self._marks.pop())
        self.assigned.pop()

    def witness(self) -> Optional[list[Optional[int]]]:
        """Twice the factor's exact witness on C's grid (see `_witness`); it
        fixes coordinates in this kernel, so only `undo` may follow."""
        C, support = self.C, sorted(self.vars)
        lowers = [(s, t, C[s][t]) for k, s in enumerate(support) for t in support[k:]]
        return _witness(self, self.assigned, lowers)


class _Instance:
    """A CP matrix A prepared once from its `analysis._zero_diagonal` pass:
    the normalized matrix (it keeps A's CP-rank) as the pass's rows C with
    C / `scale` its entries, and the lift to A, `lift` (each row of A with a
    finite diagonal, and that diagonal times scale / 2), the identity when A
    is normalized.  C's pattern graph G, its finite entries (i <= j), their
    conflict rows and fooling clique are each built on first use.  The
    public bounds, `cp_rank_leq` and the decompose construction take one in
    place of A.  A is None on the decompose tail's instance, which only `_solve` reads.
    """

    def __init__(self, A: SymTropMatrix, zero_diagonal) -> None:
        C, self.lift, scale = zero_diagonal
        self.A, self.C, self.scale = A, C, 2 * scale
        self._fooling: Optional[list[int]] = None

    @functools.cached_property
    def G(self) -> PatternGraph:
        return pattern_graph(self.C)

    @functools.cached_property
    def entries(self) -> list[tuple[int, int]]:
        C, m = self.C, len(self.C)
        return [(i, j) for i in range(m) for j in range(i, m) if C[i][j] is not None]

    @functools.cached_property
    def conflicts(self) -> list[int]:
        return _conflict_rows(self.C, self.entries)

    def fooling(self, deadline: float) -> list[int]:
        """Indices into `entries` of a maximum clique of `conflicts`, or of the
        largest found by the first call's deadline (`time.monotonic()`).

        The first call also relabels the conflict rows (`adj`) and entries
        as (i, j, C[i][j]) (`reqs`) for `_search`, whose tie-break is the
        lowest label: fooling-set entries, then higher degree, then index."""
        if self._fooling is None:
            self._fooling = max_clique(self.conflicts, deadline)
            fooling, conflicts, C = set(self._fooling), self.conflicts, self.C
            order = sorted(
                range(len(conflicts)),
                key=lambda e: (e not in fooling, -conflicts[e].bit_count(), e),
            )
            label = {e: 1 << k for k, e in enumerate(order)}
            self.adj = [sum(label[f] for f in order if conflicts[e] >> f & 1) for e in order]
            self.reqs = [(i, j, C[i][j]) for i, j in (self.entries[e] for e in order)]
        return self._fooling

    def factor(self, x2: Sequence[Optional[int]]) -> TropVector:
        """A witness of `_search` (twice its coordinates on C's grid) lifted
        onto A: (x2 + 2 d_i) / (2 scale) at row i with diagonal d_i."""
        b: list[Optional[Fraction]] = [None] * self.A.n
        for (i, d), v in zip(self.lift, x2):
            if v is not None:
                b[i] = Fraction(v + 2 * d, 2 * self.scale)
        return TropVector(b)


def _prepared(A: SymTropMatrix | _Instance) -> _Instance:
    """A itself, or the instance (identity lift) of a normalized matrix A."""
    return A if isinstance(A, _Instance) else _Instance(A, require_normalized(A))


def prepare_instance(A: SymTropMatrix) -> _Instance:
    """The instance of a CP matrix A from its one grid pass; raises
    `normalize`'s errors when A has no normalized matrix (`_normalizable`)."""
    return _Instance(A, _normalizable(A))


def _plus_one(planes: list[int], bits: int) -> list[int]:
    """The bit-sliced counter `planes` (plane k holds bit k of each count)
    with one added at every set bit of `bits`."""
    if not bits:
        return planes
    out = planes[:]
    for k, plane in enumerate(out):
        out[k], bits = plane ^ bits, plane & bits
        if not bits:
            return out
    out.append(bits)
    return out


def _search(
    P: _Instance, r: int, budget: _Budget, stats: SearchStats
) -> Optional[list[list[Optional[int]]]]:
    """DFS assigning every finite entry to a factor that attains it.

    A factor's "blocked" mask holds the entries that conflict with one it
    attains, and `planes` counts per entry the touched factors blocking it.
    A node branches on an entry with the fewest admissible touched factors,
    trying those and then the first untouched one.  Homeless entries, which
    every touched factor blocks, close the node when a greedy clique of them
    outnumbers the untouched factors.  Relabelling makes the lowest set bit
    the tie-break: fooling-set entries, then higher conflict degree, then
    lower index (`_Instance.fooling`).  Returns the touched factors'
    witnesses (see `_FactorBuild.witness`) or None; raises _Guard when the
    budget runs out.
    """
    P.fooling(budget.deadline)
    adj, reqs = P.adj, P.reqs
    factors = [_FactorBuild(P.C) for _ in range(r)]
    blocked = [0] * r

    def rec(unassigned: int, touched: int, planes: list[int]) -> Optional[list[list]]:
        if not unassigned:
            out = [f.witness() for f in factors[:touched]]
            if any(w is None for w in out):
                raise AssertionError(
                    "factor system feasible in the search but its witness fails the recheck"
                )
            return out
        # the unassigned entries blocked by the most touched factors
        worst, count = unassigned, 0
        for k in range(len(planes) - 1, -1, -1):
            if worst & planes[k]:
                worst &= planes[k]
                count |= 1 << k
        if count == touched:  # worst holds every homeless entry
            spare, size, clique = r - touched, 0, worst
            while clique and size <= spare:
                size += 1
                clique &= adj[(clique & -clique).bit_length() - 1]
            if size > spare:
                return None
        bit = worst & -worst
        e = bit.bit_length() - 1
        for f in range(min(touched + 1, r)):
            if blocked[f] & bit:
                continue
            budget.tick()
            factor = factors[f]
            if factor.push(*reqs[e]):
                old = blocked[f]
                blocked[f] = old | adj[e]
                result = rec(
                    unassigned ^ bit, max(touched, f + 1), _plus_one(planes, adj[e] & ~old)
                )
                if result is not None:
                    return result
                blocked[f] = old
            else:
                stats.refuted_branches += 1
            factor.pop()
        return None

    budget.tick()  # the root
    return rec((1 << len(reqs)) - 1, 0, [])


def _check_limits(**limits: Optional[float]) -> None:
    """Raise ValueError unless each limit is None or >= 0 (NaN fails too)."""
    for name, value in limits.items():
        if value is not None and not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _solve(
    P: _Instance, r: int, node_limit: int, timeout_s: float
) -> tuple[str, Optional[list[list[Optional[int]]]], SearchStats]:
    """`_search` for r factors under the limits, the timeout covering the
    conflict graph and fooling clique: (status, witnesses or None, stats)."""
    budget, stats, start = _Budget(node_limit, timeout_s), SearchStats(), time.monotonic()
    try:
        witnesses = _search(P, r, budget, stats)
        status = REFUTED if witnesses is None else FOUND
    except _Guard:
        status, witnesses = UNDETERMINED, None
    stats.nodes = budget.nodes
    stats.wall_time = time.monotonic() - start
    return status, witnesses, stats


def cp_rank_leq(
    A: SymTropMatrix,
    r: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> RankSearchOutcome:
    """Decide whether a normalized CP matrix has CP-rank at most r.

    Returns a verified decomposition on success (of an `_Instance`'s
    input; factors the search never touched are dropped), a complete
    refutation after exhausting every assignment, or an undetermined report
    when the node limit or timeout (which covers building the conflict
    graph and fooling clique) was hit first.  `nodes` counts the root and
    every push; the clock is read at the root and every 1,024 nodes after
    it.  A negative `node_limit`, or a negative or NaN `timeout_s`, raises
    ValueError.
    """
    _check_limits(node_limit=node_limit, timeout_s=timeout_s)
    P = _prepared(A)
    if r < 1:
        raise ValueError("r must be >= 1")
    status, witnesses, stats = _solve(P, r, node_limit, timeout_s)
    dec = None if witnesses is None else Decomposition(P.A, [P.factor(x2) for x2 in witnesses])
    return RankSearchOutcome(status, r, dec, stats)


# ---------------------------------------------------------------------------
# Bounds and the exact rank sweep
# ---------------------------------------------------------------------------

def rank_lower_bound(A: SymTropMatrix) -> int:
    """Sound combinatorial lower bound for a normalized CP matrix.

    The max of the edge clique cover number of the pattern graph (the
    support's CP-rank) and the minimum cardinality of a vertex clique
    cover: every factor's zero coordinates form a clique, and every vertex
    needs a zero somewhere.  That cover is searched only with an isolated
    vertex: else cc's cliques cover every vertex, so it is at most cc."""
    G = _prepared(A).G
    cc, _ = edge_clique_cover_number(G)
    return max(cc, min_clique_cover_size(G)) if 0 in G.masks else cc


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


def fooling_set_bound(
    A: SymTropMatrix, timeout_s: float = math.inf
) -> tuple[int, tuple[tuple[int, int], ...]]:
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

    After `timeout_s` the clique search stops and the largest conflicting
    set found so far is returned: a smaller bound, but still a sound one.
    A negative or NaN `timeout_s` raises ValueError.
    """
    _check_limits(timeout_s=timeout_s)
    deadline = time.monotonic() + timeout_s
    P = _prepared(A)
    fooling = tuple(P.entries[v] for v in P.fooling(deadline))
    return len(fooling), fooling


def _conflict_rows(C: list[list[Optional[int]]], entries: Sequence[tuple[int, int]]) -> list[int]:
    """The conflict graph on the finite entries, one bitmask row per entry."""
    adj = [0] * len(entries)
    for a, e in enumerate(entries):
        for b in range(a + 1, len(entries)):
            if _conflict(C, e, entries[b]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


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

    The search runs on the normalized matrix (it keeps the CP-rank).  The
    input's one CP check prepares the instance (`_Instance`), which carries
    the lift; its grid, graphs, fooling clique and search order serve both
    bounds and every `cp_rank_leq(r)`, and the found witnesses are lifted
    onto the input and verified once, against it.  Returns (inf, cert) for a
    non-CP input.  When the sweep is interrupted by a resource guard or
    exceeds r_max, the result is an explicit undetermined report with the
    range already refuted; it is never a guess.  `refuted` runs from
    `rank_lower_bound`; `refuted_by` says for each r whether the
    fooling-set bound or a complete search refuted it.

    `timeout_s` and `node_limit` are one deadline and one node budget for
    the fooling clique and each `cp_rank_leq(r)`.  `rank_lower_bound` runs
    first and nothing stops it at the deadline: past n = 20 a call can take
    far longer than `timeout_s`.  `threads` is accepted; the search runs
    serially.  A negative `r_max` or `node_limit`, or a negative or NaN
    `timeout_s`, raises ValueError.
    """
    _check_limits(r_max=r_max, node_limit=node_limit, timeout_s=timeout_s)
    deadline = time.monotonic() + timeout_s
    stats = SearchStats()
    zero_diagonal = _zero_diagonal(A)
    if zero_diagonal is None:
        return float("inf"), RankCertificate("not_cp", None, None, (), None, stats)
    if not zero_diagonal[1]:  # every diagonal entry, so every entry, is inf
        return 0, RankCertificate("exact", 0, Decomposition(A, []), (), None, stats)
    P = _Instance(A, zero_diagonal)
    if r_max is None:
        r_max = default_rank_cap(len(P.C))
    # every r below the fooling-set bound is refuted without a search
    lower = rank_lower_bound(P)
    fooling = len(P.fooling(deadline))
    refuted = list(range(lower, min(fooling, r_max + 1)))
    refuted_by = ["bound"] * len(refuted)
    r, dec = lower + len(refuted), None
    while r <= r_max:
        left, left_s = node_limit - stats.nodes, max(0.0, deadline - time.monotonic())
        outcome = cp_rank_leq(P, r, node_limit=left, timeout_s=left_s)
        stats.merge(outcome.stats)
        if not outcome.refuted:
            dec = outcome.decomposition
            break
        refuted.append(r)
        refuted_by.append("search")
        r += 1
    if dec is not None:
        return r, RankCertificate("exact", r, dec, tuple(refuted), None, stats, tuple(refuted_by))
    # a guard stopped the search at r, or the sweep passed r_max
    at = min(r, r_max + 1)
    cert = RankCertificate("undetermined", None, None, tuple(refuted), at, stats, tuple(refuted_by))
    return None, cert


def zero_one_rank(A: SymTropMatrix) -> int:
    """Exact CP-rank of a normalized 0/1 matrix, combinatorially.

    Equals the edge clique cover number of the pattern graph plus one
    factor per isolated vertex (an isolated vertex's diagonal zero cannot
    share a factor with any other zero).  For the empty pattern this is n.
    """
    P = _prepared(A)
    for i, row in enumerate(P.C):
        for j in range(i + 1, len(row)):
            if row[j] not in (0, P.scale):  # C / scale is A, so 1 is scale
                raise ValueError(f"entry ({i + 1},{j + 1}) = {P.A[i, j]} is not 0 or 1")
    cc, _ = edge_clique_cover_number(P.G)
    return cc + P.G.masks.count(0)  # one factor per isolated vertex
