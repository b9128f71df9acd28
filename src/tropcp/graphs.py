"""Zero-pattern graphs, vertex clique covers, and exact cover searches.

The pattern graph of a symmetric tropical matrix has an edge wherever an
off-diagonal entry equals rational zero (not the tropical identity).  A
vertex clique cover (K_q1, ..., K_qk, l singletons) with q1 >= ... >= qk >= 2
carries the rank bound

    k + sum_i (i-1) q_i + k*l + floor(l^2 / 4)

which this module minimizes exactly over all covers, alongside an exact
edge-clique-cover solver.  Both searches are exponential and are meant for
desk-scale graphs (n up to roughly 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .analysis import require_normalized
from .core import SymTropMatrix, TropScalar


@dataclass(frozen=True)
class PatternGraph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graphs must have at least one vertex")
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a} is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def complete(cls, n: int) -> "PatternGraph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def empty(cls, n: int) -> "PatternGraph":
        return cls(n, [])

    @classmethod
    def path(cls, n: int) -> "PatternGraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int) -> "PatternGraph":
        """Center 0 joined to vertices 1..n-1."""
        return cls(n, [(0, i) for i in range(1, n)])

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(
            b if a == v else a for a, b in self.edges if v in (a, b)
        )

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks, for the exact searches."""
        masks = [0] * self.n
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return masks

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = sorted(set(vertices))
        return all(
            self.has_edge(vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def pattern_graph(A: SymTropMatrix) -> PatternGraph:
    """Edges at exactly the zero off-diagonal entries of A."""
    zero = TropScalar(0)
    return PatternGraph(
        A.n,
        [
            (i, j)
            for i in range(A.n)
            for j in range(i + 1, A.n)
            if A[i, j] == zero
        ],
    )


def diameter(G: PatternGraph) -> int | float:
    """Largest shortest-path distance; inf when disconnected; 0 for n=1."""
    masks = G.adjacency_masks()
    worst = 0
    for src in range(G.n):
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                m = masks[u]
                while m:
                    v = (m & -m).bit_length() - 1
                    m &= m - 1
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        if len(dist) < G.n:
            return float("inf")
        worst = max(worst, max(dist.values()))
    return worst


def distance(G: PatternGraph, a: int, b: int) -> int | float:
    """Shortest-path distance between two vertices; inf if unreachable."""
    if a == b:
        return 0
    masks = G.adjacency_masks()
    dist = {a: 0}
    frontier = [a]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            m = masks[u]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if v not in dist:
                    if v == b:
                        return d
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return float("inf")


def induced_subgraph(G: PatternGraph, vertices: Iterable[int]) -> PatternGraph:
    """Restrict to a vertex subset, relabeled 0..|S|-1 preserving order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} not in graph of size {G.n}")
    if not vs:
        raise ValueError("induced subgraph needs at least one vertex")
    index = {v: p for p, v in enumerate(vs)}
    return PatternGraph(
        len(vs),
        [(index[a], index[b]) for a, b in G.edges if a in index and b in index],
    )


def join_vertex(G: PatternGraph) -> PatternGraph:
    """Add one new vertex adjacent to every existing vertex."""
    extra = [(v, G.n) for v in range(G.n)]
    return PatternGraph(G.n + 1, list(G.edges) + extra)


# ---------------------------------------------------------------------------
# Vertex clique covers and their rank bound
# ---------------------------------------------------------------------------

def _canonical_cliques(cliques: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    normed = []
    for c in cliques:
        vs = tuple(sorted(set(c)))
        if not vs:
            raise ValueError("empty clique in cover")
        normed.append(vs)
    return tuple(sorted(normed, key=lambda c: (-len(c), c)))


@dataclass(frozen=True)
class CliqueCover:
    """A vertex clique cover, stored with cliques sorted by size descending."""

    cliques: tuple[tuple[int, ...], ...]

    def __init__(self, cliques: Iterable[Iterable[int]]):
        object.__setattr__(self, "cliques", _canonical_cliques(cliques))

    @property
    def sizes(self) -> tuple[int, ...]:
        """Sizes q_1 >= q_2 >= ... of the cliques with at least two vertices."""
        return tuple(len(c) for c in self.cliques if len(c) >= 2)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def singleton_count(self) -> int:
        return sum(1 for c in self.cliques if len(c) == 1)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for c in self.cliques for v in c)

    def covers(self, G: PatternGraph) -> bool:
        """Valid for G: every clique induces a complete subgraph, all vertices hit."""
        return self.vertices == frozenset(range(G.n)) and all(
            G.is_clique(c) for c in self.cliques
        )


def ordered_cover_bound(sizes: Sequence[int], singletons: int) -> int:
    """The bound k + sum (i-1)q_i + k*l + floor(l*l/4) with sizes as given.

    Exposed unsorted so the optimality of descending order is testable;
    CliqueCover always stores the descending arrangement.
    """
    k = len(sizes)
    l = singletons
    return k + sum(i * q for i, q in enumerate(sizes)) + k * l + (l * l) // 4


def cover_bound(cover: CliqueCover) -> int:
    """CP-rank bound carried by a vertex clique cover (descending order enforced)."""
    return ordered_cover_bound(cover.sizes, cover.singleton_count)


def _cliques_containing(v: int, allowed: int, masks: list[int]) -> list[tuple[int, ...]]:
    """Cliques within the `allowed` bitmask containing v as their lowest vertex.

    Members are grown in increasing order, so each clique appears once and
    already sorted.  Returned largest first, then lexicographically.
    """
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


def max_clique_size(G: PatternGraph) -> int:
    masks = G.adjacency_masks()
    best = 0
    for v in range(G.n):
        allowed = (1 << G.n) - 1
        for c in _cliques_containing(v, allowed, masks):
            best = max(best, len(c))
    return best


def min_cover_bound(G: PatternGraph) -> tuple[CliqueCover, int]:
    """Exact minimum of the cover bound over all vertex clique covers.

    Any cover can be shrunk to a partition of the vertex set into cliques
    without increasing the bound, so the search runs over partitions: pick
    the lowest uncovered vertex, branch over the cliques containing it
    (largest first), and prune with the bound of the partial cover, which
    only grows as cliques are added.  Ties between minimizing covers break
    toward the canonically smallest clique list.
    """
    masks = G.adjacency_masks()
    omega = max(1, max_clique_size(G))
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
            key = _canonical_cliques(parts)
            bound = cover_bound(CliqueCover(parts))
            if (
                best_bound is None
                or bound < best_bound
                or (bound == best_bound and key < _canonical_cliques(best_cover))
            ):
                best_bound = bound
                best_cover = list(parts)
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for clique in _cliques_containing(v, uncovered, masks):
            mask = 0
            for u in clique:
                mask |= 1 << u
            parts.append(clique)
            search(uncovered & ~mask, parts)
            parts.pop()

    search(full, [])
    assert best_cover is not None and best_bound is not None
    return CliqueCover(best_cover), best_bound


def min_clique_cover_size(G: PatternGraph) -> int:
    """Minimum number of cliques covering all vertices (cardinality, not bound)."""
    masks = G.adjacency_masks()
    omega = max(1, max_clique_size(G))
    full = (1 << G.n) - 1
    best = G.n  # all singletons always works

    def search(uncovered: int, used: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, used)
            return
        if used + -(-uncovered.bit_count() // omega) >= best:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for clique in _cliques_containing(v, uncovered, masks):
            mask = 0
            for u in clique:
                mask |= 1 << u
            search(uncovered & ~mask, used + 1)

    search(full, 0)
    return best


def is_small_empty_pattern(G: PatternGraph) -> bool:
    """The known exception to the cover bound: on an empty pattern with up to
    four vertices the CP-rank equals the dimension exactly."""
    return not G.edges and G.n <= 4


def cp_rank_upper_bound(A: SymTropMatrix) -> int:
    """Best clique-cover rank bound for a normalized CP matrix.

    The small empty pattern (`is_small_empty_pattern`) bypasses the cover
    bound with the dimension.
    """
    require_normalized(A)
    G = pattern_graph(A)
    if is_small_empty_pattern(G):
        return G.n
    return min_cover_bound(G)[1]


# ---------------------------------------------------------------------------
# Edge clique covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeCliqueCover:
    """Cliques whose edge sets jointly cover every edge of a graph."""

    cliques: tuple[tuple[int, ...], ...]

    def __init__(self, cliques: Iterable[Iterable[int]]):
        object.__setattr__(self, "cliques", _canonical_cliques(cliques))

    def covers(self, G: PatternGraph) -> bool:
        if not all(G.is_clique(c) for c in self.cliques):
            return False
        covered = set()
        for c in self.cliques:
            for i in range(len(c)):
                for j in range(i + 1, len(c)):
                    covered.add((c[i], c[j]))
        return covered >= G.edges


def maximal_cliques(G: PatternGraph) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivot), canonically ordered."""
    masks = G.adjacency_masks()
    out: list[tuple[int, ...]] = []

    def expand(r: list[int], p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(tuple(sorted(r)))
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = -1
        m = pivot_pool
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (p & masks[u]).bit_count()
            if deg > best:
                best, pivot = deg, u
        m = p & ~masks[pivot]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            expand(r + [v], p & masks[v], x & masks[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand([], (1 << G.n) - 1, 0)
    return sorted(out, key=lambda c: (-len(c), c))


def edge_clique_cover_number(G: PatternGraph) -> tuple[int, EdgeCliqueCover]:
    """Exact edge clique cover number with a certificate; 0 for edgeless graphs.

    Branch and bound over maximal cliques: repeatedly pick the uncovered
    edge lying in the fewest maximal cliques and branch on its carriers.
    """
    if not G.edges:
        return 0, EdgeCliqueCover([])
    cliques = maximal_cliques(G)
    cliques = [c for c in cliques if len(c) >= 2]
    edge_list = sorted(G.edges)
    carriers: dict[tuple[int, int], list[int]] = {e: [] for e in edge_list}
    clique_edges: list[set[tuple[int, int]]] = []
    for idx, c in enumerate(cliques):
        es = {
            (c[i], c[j])
            for i in range(len(c))
            for j in range(i + 1, len(c))
        }
        clique_edges.append(es)
        for e in es:
            carriers[e].append(idx)

    max_edges_per_clique = max(len(es) for es in clique_edges)

    # Greedy initial solution: take the clique covering most uncovered edges.
    chosen_greedy: list[int] = []
    uncovered = set(edge_list)
    while uncovered:
        idx = max(
            range(len(cliques)),
            key=lambda i: (len(clique_edges[i] & uncovered), -i),
        )
        chosen_greedy.append(idx)
        uncovered -= clique_edges[idx]

    best: list[int] = chosen_greedy

    def search(uncovered: frozenset[tuple[int, int]], chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best) or (
                len(chosen) == len(best)
                and sorted(cliques[i] for i in chosen) < sorted(cliques[i] for i in best)
            ):
                best = list(chosen)
            return
        lower = -(-len(uncovered) // max_edges_per_clique)
        if len(chosen) + lower > len(best):
            return
        target = min(uncovered, key=lambda e: (len(carriers[e]), e))
        for idx in carriers[target]:
            chosen.append(idx)
            search(uncovered - frozenset(clique_edges[idx]), chosen)
            chosen.pop()

    search(frozenset(edge_list), [])
    cover = EdgeCliqueCover([cliques[i] for i in best])
    return len(best), cover


def diameter_witness_matrix(G: PatternGraph, u: int, v: int) -> SymTropMatrix:
    """The normalized CP matrix with pattern G whose only 1-entry sits at {u,v}.

    Entries: 0 on the diagonal and on edges, 1 at the pair {u,v}, 2 at every
    other non-edge.  The pair must be a non-edge of G.
    """
    if u == v:
        raise ValueError("witness pair must be two distinct vertices")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError("witness pair out of range")
    if G.has_edge(u, v):
        raise ValueError("witness pair must be a non-edge")
    pair = (min(u, v), max(u, v))

    def entry(i: int, j: int) -> int:
        if i == j or G.has_edge(i, j):
            return 0
        if (i, j) == pair:
            return 1
        return 2

    return SymTropMatrix.from_upper_func(G.n, entry)
