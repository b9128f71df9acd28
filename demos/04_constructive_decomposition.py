#!/usr/bin/env python3
"""Building explicit rank-one factors from a clique cover.

The cover bound is constructive: four blocks of factors, built in the
matrix's own coordinates, cover intra-clique entries, inter-clique
entries, clique-to-singleton entries, and the singleton-to-singleton
tail.  The result is verified exactly on construction.
"""

from tropcp import (
    CliqueCover,
    cover_bound,
    construct_decomposition,
    decompose_cp,
    empty_pattern_01_decomposition,
    verify_decomposition,
)
from tropcp.corpus import paw_matrix, rank_six_5x5

print("== paw matrix with the (triangle, singleton) cover ==")
A = paw_matrix(1, 2)
cover = CliqueCover([(0, 1, 2), (3,)])
dec = construct_decomposition(A, cover)
print("bound", cover_bound(cover), "-> factors", dec.rank)
for f in dec.factors:
    print("  ", f)
print("verified:", verify_decomposition(dec))

print()
print("== empty pattern: the tail does all the work ==")
A6 = rank_six_5x5()
singletons = CliqueCover([(i,) for i in range(5)])
dec6 = construct_decomposition(A6, singletons)
print("bound", cover_bound(singletons), "-> factors", dec6.rank)
for f in dec6.factors:
    print("  ", f)
print("verified:", verify_decomposition(dec6))

print()
print("== the 0/1 empty-pattern matrix needs exactly n factors ==")
unit = empty_pattern_01_decomposition(4)
for f in unit.factors:
    print("  ", f)
print("verified:", verify_decomposition(unit))

print()
print("== convenience wrapper: normalize, decompose, lift back ==")
raw = paw_matrix(3, 4)
lifted = decompose_cp(raw)
print("factors for the unnormalized input:", lifted.rank,
      "verified:", verify_decomposition(lifted))
