"""Zero-pattern graphs, vertex clique covers, and exact cover searches.

The pattern graph of a symmetric tropical matrix has an edge wherever an
off-diagonal entry equals rational zero (not the tropical identity).  A
`PatternGraph` builds one neighbour bitmask per vertex with its edge set,
and every query and search here reads those masks.  A vertex clique cover
(K_q1, ..., K_qk, l singletons) with q1 >= ... >= qk >= 2 carries the bound

    k + sum_i (i-1) q_i + k*l + floor(l^2 / 4)

One search, `CliquePartitions`, walks the partitions of the vertex set
into cliques under part-count and bound limits.  It gives the exact
minimum of this bound over all covers (`min_cover_bound`) and the fewest
cliques covering the vertices (`min_clique_cover_size`).  `max_clique`
gives the clique number that prunes it and the rank module's fooling
sets, and an exact edge-clique-cover solver branches over maximal
cliques held as edge bitmasks.  One greedy colouring (`_colour_classes`,
Tomita and Seki's bound) orders and prunes `max_clique` and bounds the
clique number of what a partition leaves uncovered.  All are exponential,
for desk-scale graphs; pruned by the least bound any completion can
reach and by skipping subtrees that yielded nothing, the cover-bound
search takes under a second on a dense n = 16 pattern.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .analysis import require_normalized
from .core import SymTropMatrix, scaled_rows


@dataclass(frozen=True)
class PatternGraph:
    """A simple undirected graph on vertices 0..n-1; bit u of masks[v] marks edge {u, v}."""

    n: int
    edges: frozenset[tuple[int, int]]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graphs must have at least one vertex")
        norm = set()
        masks = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a} is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            norm.add((min(a, b), max(a, b)))
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "masks", tuple(masks))

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
        return 0 <= a < self.n and 0 <= b < self.n and self.masks[a] >> b & 1 == 1

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u for u in range(self.n) if self.has_edge(v, u))

    def adjacency_masks(self) -> list[int]:
        """The per-vertex neighbour bitmasks `masks`, as a list."""
        return list(self.masks)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        return all(
            self.has_edge(a, b) for a, b in itertools.combinations(sorted(set(vertices)), 2)
        )

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def pattern_graph(A: SymTropMatrix | Sequence[Sequence[Optional[int]]]) -> PatternGraph:
    """Edges at exactly the zero off-diagonal entries of A, a matrix or its
    rows on an integer grid (`scaled_rows`, None for inf)."""
    rows = scaled_rows(A)[0] if isinstance(A, SymTropMatrix) else A
    edges = [(i, j) for i, row in enumerate(rows) for j in range(i + 1, len(row)) if row[j] == 0]
    return PatternGraph(len(rows), edges)


def _distances(masks: Sequence[int], src: int) -> dict[int, int]:
    """Breadth-first distances from src to every vertex it reaches."""
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
    return dist


def diameter(G: PatternGraph) -> int | float:
    """Largest shortest-path distance; inf when disconnected; 0 for n=1."""
    worst = 0
    for src in range(G.n):
        dist = _distances(G.masks, src)
        if len(dist) < G.n:
            return float("inf")
        worst = max(worst, max(dist.values()))
    return worst


def _check_vertices(G: PatternGraph, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} not in graph of size {G.n}")


def distance(G: PatternGraph, a: int, b: int) -> int | float:
    """Shortest-path distance between two vertices; inf if unreachable."""
    _check_vertices(G, (a, b))
    return _distances(G.masks, a).get(b, float("inf"))


def induced_subgraph(G: PatternGraph, vertices: Iterable[int]) -> PatternGraph:
    """Restrict to a vertex subset, relabeled 0..|S|-1 preserving order."""
    vs = sorted(set(vertices))
    _check_vertices(G, vs)
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
    def singles(self) -> tuple[int, ...]:
        """The singleton cliques' vertices, ascending."""
        return tuple(c[0] for c in self.cliques if len(c) == 1)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for c in self.cliques for v in c)

    def covers(self, G: PatternGraph) -> bool:
        """Valid for G: every clique induces a complete subgraph, all vertices hit."""
        return self.vertices == frozenset(range(G.n)) and all(
            G.is_clique(c) for c in self.cliques
        )


def cover_bound_terms(sizes: Sequence[int], l: int) -> tuple[int, int, int, int]:
    """k, sum (i-1)q_i, k*l, floor(l*l/4): one term per decomposition block."""
    k = len(sizes)
    return k, sum(i * q for i, q in enumerate(sizes)), k * l, (l * l) // 4


def ordered_cover_bound(sizes: Sequence[int], singletons: int) -> int:
    """The bound k + sum (i-1)q_i + k*l + floor(l*l/4) with sizes as given.

    Exposed unsorted so the optimality of descending order is testable;
    CliqueCover always stores the descending arrangement.
    """
    return sum(cover_bound_terms(sizes, singletons))


def cover_bound(cover: CliqueCover) -> int:
    """CP-rank bound carried by a vertex clique cover (descending order enforced)."""
    return ordered_cover_bound(cover.sizes, cover.singleton_count)


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


def _colour_classes(vertices: int, masks: Sequence[int]) -> list[int]:
    """A greedy colouring of the bitmask `vertices`, one bitmask per colour:
    each colour takes the lowest uncoloured vertex not adjacent to one it
    already holds.  A clique needs a colour per vertex, so there are at
    least its clique number of classes (Tomita and Seki's bound)."""
    classes = []
    while vertices:
        colour, free = 0, vertices
        while free:
            low = free & -free
            colour |= low
            free &= ~(masks[low.bit_length() - 1] | low)
        vertices ^= colour
        classes.append(colour)
    return classes


class _Stop(Exception):
    """Raised inside `max_clique` once its deadline has passed."""


def max_clique(adj: Sequence[int], deadline: float = math.inf) -> list[int]:
    """A maximum clique of the graph with bitmask rows adj, by branch and bound.

    Candidates are tried by `_colour_classes`, last colour and highest
    vertex first; a branch closes when the clique so far plus the colours
    left cannot beat the best one found.  Past the deadline (a
    `time.monotonic()` value) it stops and returns the largest clique found.
    """
    best: list[int] = []
    clique: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best
        if time.monotonic() > deadline:
            raise _Stop
        classes = _colour_classes(cand, adj)
        for colour in range(len(classes), 0, -1):
            members = classes[colour - 1]
            while members:
                if len(clique) + colour <= len(best):
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                clique.append(v)
                rest = cand & adj[v]
                if rest:
                    expand(rest)
                elif len(clique) > len(best):
                    best = clique[:]
                clique.pop()
                cand &= ~(1 << v)

    try:
        expand((1 << len(adj)) - 1)
    except _Stop:
        pass
    return sorted(best)


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


def min_cover_bound(G: PatternGraph) -> tuple[CliqueCover, int]:
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


def min_clique_cover_size(G: PatternGraph) -> int:
    """Minimum number of cliques covering all vertices (cardinality, not bound)."""
    search = CliquePartitions(G, max_parts=G.n - 1)  # n singletons always cover
    for parts, _ in search:
        search.max_parts = len(parts) - 1
    return search.max_parts + 1


def is_small_empty_pattern(G: PatternGraph) -> bool:
    """The known exception to the cover bound: on an empty pattern with up to
    four vertices the CP-rank equals the dimension exactly."""
    return not G.edges and G.n <= 4


def cp_rank_upper_bound(A: SymTropMatrix) -> int:
    """Best clique-cover rank bound for a normalized CP matrix.

    The small empty pattern (`is_small_empty_pattern`) bypasses the cover
    bound with the dimension.
    """
    G = pattern_graph(require_normalized(A)[0])
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
        return {e for c in self.cliques for e in itertools.combinations(c, 2)} >= G.edges


def maximal_cliques(G: PatternGraph) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivot), canonically ordered."""
    masks = G.masks
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
    edge lying in the fewest maximal cliques (the lowest such edge) and
    branch on its carriers.  Edges are numbered in sorted order; each
    clique is the bitmask of the edges it covers, and the uncovered edges
    are one int.  Of the minimum covers, the lexicographically least is
    returned.
    """
    if not G.edges:
        return 0, EdgeCliqueCover([])
    cliques = [c for c in maximal_cliques(G) if len(c) >= 2]
    index = {e: k for k, e in enumerate(sorted(G.edges))}
    covers = [sum(1 << index[e] for e in itertools.combinations(c, 2)) for c in cliques]
    carriers = [[i for i, bits in enumerate(covers) if bits >> k & 1] for k in range(len(index))]
    max_edges_per_clique = max(bits.bit_count() for bits in covers)

    # Greedy initial solution: take the clique covering most uncovered edges.
    best: list[int] = []
    uncovered = full = (1 << len(index)) - 1
    while uncovered:
        idx = max(range(len(cliques)), key=lambda i: ((covers[i] & uncovered).bit_count(), -i))
        best.append(idx)
        uncovered &= ~covers[idx]

    def search(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best) or (
                len(chosen) == len(best)
                and sorted(cliques[i] for i in chosen) < sorted(cliques[i] for i in best)
            ):
                best = list(chosen)
            return
        lower = -(-uncovered.bit_count() // max_edges_per_clique)
        if len(chosen) + lower > len(best):
            return
        target = min(
            (k for k in range(len(carriers)) if uncovered >> k & 1),
            key=lambda k: len(carriers[k]),
        )
        for idx in carriers[target]:
            chosen.append(idx)
            search(uncovered & ~covers[idx], chosen)
            chosen.pop()

    search(full, [])
    return len(best), EdgeCliqueCover([cliques[i] for i in best])


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
