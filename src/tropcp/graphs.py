"""Zero-pattern graphs, vertex clique covers, and exact cover searches.

The pattern graph of a symmetric tropical matrix has an edge wherever an
off-diagonal entry equals rational zero (not the tropical identity).  A
`PatternGraph` builds one neighbour bitmask per vertex with its edge set,
and every query and search here reads those masks.  A vertex clique cover
(K_q1, ..., K_qk, l singletons) with q1 >= ... >= qk >= 2 carries the bound

    k + sum_i (i-1) q_i + k*l + floor(l^2 / 4)

`min_cover_bound` gives the exact minimum of this bound over all covers.
A partition's bound depends only on its size profile (the sizes >= 2)
and n, so it tries profiles in increasing bound order and asks of each
whether G has disjoint cliques of those sizes (`_Packing`), then builds
the least cover of the first that does.  `min_clique_cover_size`, the
fewest cliques covering the vertices, branches over maximal cliques, as
the exact edge-clique-cover solver does with cliques held as edge
bitmasks.  `max_clique` gives the clique number that bounds the profiles
and the rank module's fooling sets.  One greedy colouring
(`_colour_classes`, Tomita and Seki's bound) orders and prunes
`max_clique` and bounds what a packing or a split can still place.  All
are exponential, for desk-scale graphs; the cover-bound search takes
milliseconds on the n = 20 dense patterns and K24.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
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


def _colour_classes(vertices: int, masks: Sequence[int]) -> list[int]:
    """A greedy colouring of the bitmask `vertices`, one bitmask per colour:
    each colour takes the lowest uncoloured vertex not adjacent to one it
    already holds.  A clique holds at most one vertex per class, so there
    are at least its clique number of classes (Tomita and Seki's bound),
    and a class of c vertices meets at least c parts of a clique cover."""
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


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _cliques(masks: Sequence[int], allowed: int, size: int) -> Iterator[int]:
    """Bitmasks of the cliques of `size` vertices within `allowed`, lazily
    and in tuple order: members are added in increasing order, depth first,
    until members and candidates together fall short of `size`."""
    stack = [(size, 0, allowed)]  # (members still needed, members, candidates)
    while stack:
        need, bits, m = stack.pop()
        if not need:
            yield bits
            continue
        children = []
        while m.bit_count() >= need:
            low = m & -m
            m ^= low
            children.append((need - 1, bits | low, m & masks[low.bit_length() - 1]))
        stack += reversed(children)


def _profiles(left: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every descending tuple of part sizes in [2, cap] summing to at most `left`."""
    yield ()
    for q in range(min(cap, left), 1, -1):
        for rest in _profiles(left - q, q):
            yield (q,) + rest


class _Packing:
    """Whether G has disjoint cliques of given sizes: `fits(sizes,
    uncovered, after)` places the sizes, descending, within the bitmask
    `uncovered`, each size's cliques in increasing order of their lowest
    vertex (disjoint cliques of one size compare by it), the first above
    `after`; each answer is kept.  A greedy colouring of what is left
    prunes it: the largest size is at most the number of classes, and a
    class's vertices beyond the number of sizes stay uncovered, as do
    those below `after` once only one size is left."""

    def __init__(self, G: PatternGraph):
        self.masks, self.full = G.masks, (1 << G.n) - 1
        self.known: dict[tuple[tuple[int, ...], int, int], bool] = {}
        self.unpacked: list[tuple[int, ...]] = []  # profiles that do not fit in G

    def packs(self, profile: tuple[int, ...]) -> bool:
        """fits(profile, all vertices); false at once when part by part it is
        at least a profile known not to pack, since shrinking parts keeps a
        packing."""
        if any(all(map(operator.ge, profile, f)) for f in self.unpacked if len(f) <= len(profile)):
            return False
        fits = self.fits(profile, self.full)
        if not fits:
            self.unpacked.append(profile)
        return fits

    def fits(self, sizes: tuple[int, ...], uncovered: int, after: int = -1) -> bool:
        if not sizes:
            return True
        key = (sizes, uncovered, after)
        if key not in self.known:
            self.known[key] = self._place(sizes, uncovered, after)
        return self.known[key]

    def _place(self, sizes: tuple[int, ...], uncovered: int, after: int) -> bool:
        room = uncovered & -(1 << after + 1)  # where the first clique may lie
        if sizes[-1] == sizes[0]:
            uncovered = room
        spare = uncovered.bit_count() - sum(sizes)
        classes = _colour_classes(uncovered, self.masks)
        excess = sum(max(0, c.bit_count() - len(sizes)) for c in classes)
        if sizes[0] > len(classes) or excess > spare:
            return False
        rest = sizes[1:]
        same = rest[:1] == sizes[:1]
        return any(
            self.fits(rest, uncovered ^ bits, (bits & -bits).bit_length() - 1 if same else -1)
            for bits in _cliques(self.masks, room, sizes[0])
        )


def min_cover_bound(G: PatternGraph) -> tuple[CliqueCover, int]:
    """Exact minimum of the cover bound over all vertex clique covers.

    Any cover shrinks to a partition into cliques without raising the
    bound, and a partition's bound depends only on its size profile q (the
    descending sizes >= 2) and its n - sum(q) singletons.  As any vertex
    may be a singleton, q belongs to a partition exactly when G has
    disjoint cliques of sizes q (`_Packing`).  Profiles are tried in
    increasing bound order below the n singletons' floor(n^2/4), which win
    every tie there as the least clique list and are returned when no
    profile packs, as on every triangle-free pattern.  Ties break toward
    the least `CliqueCover.cliques`, built part by part: the lowest
    uncovered vertex as a singleton when the rest as singletons reach the
    minimum (it sorts before every clique left), else the first clique in
    tuple order, no larger than the last part and after it when of equal
    size, that leaves a packable completion of a minimal profile.
    """
    n, packing = G.n, _Packing(G)
    floor = n * n // 4
    by_bound: dict[int, list[tuple[int, ...]]] = {}
    for q in _profiles(n, len(max_clique(G.masks))):
        if (bound := ordered_cover_bound(q, n - sum(q))) < floor:
            by_bound.setdefault(bound, []).append(q)
    for best in sorted(by_bound):
        # the packable minimal profiles; below, those extending `parts`
        live = [q for q in by_bound[best] if packing.packs(q)]
        if live:
            break
    else:
        return CliqueCover((v,) for v in range(n)), floor
    parts: list[tuple[int, ...]] = []
    uncovered = packing.full
    while ordered_cover_bound([len(c) for c in parts], uncovered.bit_count()) > best:
        depth = len(parts)
        sizes = {q[depth] for q in live}
        walks = [((tuple(_bits(b)), b) for b in _cliques(G.masks, uncovered, s)) for s in sizes]
        for clique, bits in heapq.merge(*walks):
            if parts and len(clique) == len(parts[-1]) and clique < parts[-1]:
                continue
            size, rest = len(clique), uncovered ^ bits
            extended = [
                q
                for q in live
                if q[depth] == size
                and packing.fits(q[depth + 1 :], rest, clique[0] if size in q[depth + 1 :] else -1)
            ]
            if extended:
                parts.append(clique)
                uncovered, live = rest, extended
                break
    return CliqueCover(parts + [(v,) for v in _bits(uncovered)]), best


def min_clique_cover_size(G: PatternGraph) -> int:
    """Minimum number of cliques covering all vertices (cardinality, not
    bound): the least t for which the vertices split into t cliques.  A
    split branches on the vertex with the fewest neighbours left, whose
    part may be grown to a maximal clique of what is left (the other parts
    only shrink), and stops once a class of a greedy colouring
    (`_colour_classes`) holds more vertices than parts left, since a part
    holds at most one of them.  Each answer is kept."""
    masks = G.masks
    known: dict[tuple[int, int], bool] = {}

    def splits(uncovered: int, parts: int) -> bool:
        if not uncovered:
            return True
        if max(c.bit_count() for c in _colour_classes(uncovered, masks)) > parts:
            return False
        key = (uncovered, parts)
        if key not in known:
            v = min(_bits(uncovered), key=lambda u: (masks[u] & uncovered).bit_count())
            rest = uncovered ^ (1 << v)
            cliques = _maximal_cliques(masks, masks[v] & rest)
            cliques.sort(key=int.bit_count, reverse=True)
            known[key] = any(splits(rest & ~c, parts - 1) for c in cliques)
        return known[key]

    return next(t for t in range(1, G.n + 1) if splits((1 << G.n) - 1, t))


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


def _maximal_cliques(masks: Sequence[int], allowed: int) -> list[int]:
    """Bitmasks of the maximal cliques among the vertices `allowed`
    (Bron-Kerbosch with pivot); [0] when none is allowed."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: (p & masks[u]).bit_count())
        for v in _bits(p & ~masks[pivot]):
            expand(r | 1 << v, p & masks[v], x & masks[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, allowed, 0)
    return out


def maximal_cliques(G: PatternGraph) -> list[tuple[int, ...]]:
    """All maximal cliques, canonically ordered."""
    cliques = (tuple(_bits(c)) for c in _maximal_cliques(G.masks, (1 << G.n) - 1))
    return sorted(cliques, key=lambda c: (-len(c), c))


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
