#!/usr/bin/env python3
"""Pattern graphs, vertex clique covers, and the cover rank bound.

The zero off-diagonal entries of a normalized CP matrix define a graph.
Any cover of its vertices by cliques (K_q1, ..., K_qk, l singletons) with
q1 >= ... >= qk >= 2 bounds the CP-rank by

    k + sum_i (i-1) q_i + k*l + floor(l^2/4)

and different covers give very different bounds: minimizing over covers is
an exact (exponential, desk-scale) search.  The n singletons always give
floor(n^2/4), so the search only looks below it.
"""

import time

from tropcp import (
    CliqueCover,
    PatternGraph,
    cover_bound,
    cp_rank_upper_bound,
    edge_clique_cover_number,
    min_cover_bound,
    pattern_graph,
)
from tropcp.corpus import paw_graph, paw_matrix, rank_six_5x5
from tropcp.generators import random_pattern_graph

print("== the paw graph: a triangle with a pendant vertex ==")
G = paw_graph()
print("edges:", sorted((a + 1, b + 1) for a, b in G.edges))

gamma1 = CliqueCover([(0, 1, 2), (3,)])
gamma2 = CliqueCover([(0, 1), (2, 3)])
print("cover (triangle, singleton) bound:", cover_bound(gamma1))
print("cover (two edges) bound:         ", cover_bound(gamma2))

best_cover, best = min_cover_bound(G)
print("minimum over all covers:", best, "via", best_cover.cliques)

A = paw_matrix(1, 2)
print("so the paw matrix has CP-rank at most", cp_rank_upper_bound(A))

print()
print("== the bound can beat the generic max(n, n^2/4) by a lot ==")
big = PatternGraph.complete(9)
_, bound = min_cover_bound(big)
print("complete pattern on 9 vertices: bound", bound, "versus generic", max(9, 81 // 4))

print()
print("== empty patterns are the worst case ==")
E5 = pattern_graph(rank_six_5x5())
print("5x5 empty pattern cover bound:", min_cover_bound(E5)[1], "(singletons only)")

print()
print("== triangle-free patterns tie at floor(n^2/4) ==")
# parts of size <= 2 give every partition the bound floor(n^2/4); the
# singletons win the tie, without any matching being listed
C8 = PatternGraph(8, [(i, (i + 1) % 8) for i in range(8)])
cover, bound = min_cover_bound(C8)
print("8-cycle: bound", bound, "= floor(64/4), via", len(cover.cliques), "singletons")

dense = random_pattern_graph(15, 1, 0.7)
start = time.perf_counter()
_, bound = min_cover_bound(dense)
print(
    f"seeded dense pattern, n = 15, {len(dense.edges)} edges: minimum bound {bound}"
    f" (searched in {time.perf_counter() - start:.2f} s)"
)

print()
print("== edge clique covers (lower-bound machinery) ==")
for name, graph in [("paw", G), ("star on 6", PatternGraph.star(6)), ("K_6", PatternGraph.complete(6))]:
    cc, cover = edge_clique_cover_number(graph)
    print(f"cc({name}) = {cc} via {[tuple(v + 1 for v in c) for c in cover.cliques]}")
