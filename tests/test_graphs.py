"""Pattern graphs, covers, cover-bound minimization, and edge clique covers."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import tropcp.graphs as graphs_mod
from tropcp import (
    CliqueCover,
    EdgeCliqueCover,
    PatternGraph,
    SymTropMatrix,
    cover_bound,
    cp_rank_upper_bound,
    diameter,
    diameter_witness_matrix,
    distance,
    edge_clique_cover_number,
    induced_subgraph,
    is_completely_positive,
    is_normalized,
    join_vertex,
    maximal_cliques,
    min_clique_cover_size,
    min_cover_bound,
    ordered_cover_bound,
    pattern_graph,
)
from tropcp.corpus import (
    bowtie_graph,
    flat_3x3_normalized,
    paw_graph,
    paw_matrix,
    rank_six_5x5,
)
from tropcp.analysis import normalize
from tropcp.generators import generate_instance, random_cp_matrix, random_pattern_graph
from tropcp.graphs import (
    _colour_classes,
    cover_bound_terms,
    max_clique,
)

import oracles
from oracles import (
    CliquePartitions,
    all_cliques,
    brute_edge_clique_cover,
    brute_least_edge_clique_cover,
    brute_min_cover_bound,
    completion_bound,
    partition_min_clique_cover_size,
    partition_min_cover_bound,
    reference_clique_partitions,
    reference_min_clique_cover_size,
    reference_min_cover_bound,
)


@st.composite
def graphs_up_to(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    return PatternGraph(n, [e for e in pairs if draw(st.floats(0, 1)) < p])


def every_graph_up_to(max_n):
    """All labelled graphs with n <= max_n: 1,099 for 5, 33,867 for 6."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield PatternGraph(n, [e for b, e in enumerate(pairs) if bits >> b & 1])


def cycle(n):
    return PatternGraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestPatternGraph:
    def test_flat_normalized_pattern(self):
        # single zero off-diagonal pair (2,3): one edge plus an isolated vertex
        G = pattern_graph(flat_3x3_normalized())
        assert G.edges == frozenset({(1, 2)})

    def test_rank_six_pattern_is_empty(self):
        G = pattern_graph(rank_six_5x5())
        assert G.n == 5 and not G.edges

    def test_zero_matrix_pattern_is_complete(self):
        assert pattern_graph(SymTropMatrix.zeros(4)) == PatternGraph.complete(4)

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            PatternGraph(3, [(1, 1)])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (0, [], "graphs must have at least one vertex"),
            (3, [(0, 3)], r"edge \(0,3\) out of range for n=3"),
            (3, [(-1, 2)], r"edge \(-1,2\) out of range for n=3"),
        ],
    )
    def test_bad_size_or_edge_rejected(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            PatternGraph(n, edges)

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to(8))
    def test_queries_agree_with_the_edge_set(self, G):
        masks = G.adjacency_masks()
        for a in range(G.n):
            nbrs = {b for b in range(G.n) if (min(a, b), max(a, b)) in G.edges}
            assert G.neighbors(a) == nbrs
            assert G.degree(a) == len(nbrs)
            assert masks[a] == sum(1 << b for b in nbrs)
            for b in range(G.n):
                assert G.has_edge(a, b) == (b in nbrs)
        for size in range(G.n + 1):
            for vs in itertools.combinations(range(G.n), size):
                expected = all(e in G.edges for e in itertools.combinations(vs, 2))
                assert G.is_clique(reversed(vs)) == expected


class TestMaxClique:
    def test_matches_brute_force_on_every_graph_up_to_five(self):
        for G in every_graph_up_to(5):
            clique = max_clique(G.adjacency_masks())
            assert clique == sorted(clique) and G.is_clique(clique)
            assert len(clique) == max(len(c) for c in all_cliques(G))

    @settings(max_examples=80, deadline=None)
    @given(graphs_up_to(9))
    def test_matches_brute_force(self, G):
        clique = max_clique(G.adjacency_masks())
        assert G.is_clique(clique)
        assert len(clique) == max(len(c) for c in all_cliques(G))

    def test_past_deadline_still_returns_a_clique(self):
        G = random_pattern_graph(16, 3, 0.5)
        clique = max_clique(G.adjacency_masks(), deadline=time.monotonic() - 1.0)
        assert clique == sorted(clique) and G.is_clique(clique)


class TestDiameter:
    def test_path(self):
        assert diameter(PatternGraph.path(4)) == 3

    def test_star(self):
        assert diameter(PatternGraph.star(6)) == 2

    def test_complete(self):
        assert diameter(PatternGraph.complete(5)) == 1

    def test_disconnected(self):
        assert diameter(PatternGraph.empty(3)) == float("inf")

    def test_single_vertex(self):
        assert diameter(PatternGraph.empty(1)) == 0

    def test_distance(self):
        assert distance(PatternGraph.path(3), 0, 2) == 2
        assert distance(PatternGraph.empty(2), 1, 0) == float("inf")

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_distance_rejects_vertices_outside_the_graph(self, a, b):
        with pytest.raises(ValueError, match="not in graph of size 3"):
            distance(PatternGraph.path(3), a, b)


class TestSubgraphsAndJoin:
    def test_paw_without_pendant_is_triangle(self):
        H = induced_subgraph(paw_graph(), [0, 1, 2])
        assert H == PatternGraph.complete(3)

    def test_full_vertex_set_is_identity(self):
        G = bowtie_graph()
        assert induced_subgraph(G, range(G.n)) == G

    def test_star_leaves_are_empty_graph(self):
        H = induced_subgraph(PatternGraph.star(6), [1, 2, 3, 4, 5])
        assert H == PatternGraph.empty(5)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            induced_subgraph(paw_graph(), [0, 9])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            induced_subgraph(paw_graph(), [])

    def test_join_empty_gives_star(self):
        J = join_vertex(PatternGraph.empty(5))
        assert J.n == 6
        assert J.edges == frozenset((i, 5) for i in range(5))

    def test_join_complete(self):
        assert join_vertex(PatternGraph.complete(4)) == PatternGraph.complete(5)

    def test_join_single_vertex(self):
        assert join_vertex(PatternGraph.empty(1)) == PatternGraph.complete(2)


class TestCoverBound:
    def test_paw_covers(self):
        assert cover_bound(CliqueCover([(0, 1, 2), (3,)])) == 2
        assert cover_bound(CliqueCover([(0, 1), (2, 3)])) == 4

    def test_single_complete_cover(self):
        assert cover_bound(CliqueCover([tuple(range(7))])) == 1

    def test_all_singletons(self):
        assert cover_bound(CliqueCover([(i,) for i in range(5)])) == 6

    def test_descending_order_is_optimal(self):
        rng = random.Random(7)
        for _ in range(200):
            sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 5))]
            l = rng.randint(0, 4)
            best = ordered_cover_bound(sorted(sizes, reverse=True), l)
            perm = sizes[:]
            rng.shuffle(perm)
            assert best <= ordered_cover_bound(perm, l)

    def test_invariants_of_cover_type(self):
        cover = CliqueCover([(3,), (0, 1), (0, 1, 2)])
        assert cover.cliques == ((0, 1, 2), (0, 1), (3,))
        assert cover.sizes == (3, 2)
        assert cover.k == 2 and cover.singleton_count == 1

    @pytest.mark.parametrize("cover_type", [CliqueCover, EdgeCliqueCover])
    def test_empty_clique_rejected(self, cover_type):
        with pytest.raises(ValueError, match="empty clique in cover"):
            cover_type([(0, 1), ()])


class TestMinCoverBound:
    def test_paw(self):
        cover, bound = min_cover_bound(paw_graph())
        assert bound == 2
        assert cover.cliques == ((0, 1, 2), (3,))
        assert cover.covers(paw_graph())

    def test_complete(self):
        _, bound = min_cover_bound(PatternGraph.complete(6))
        assert bound == 1

    def test_empty_five(self):
        # only singleton covers exist; the best uses exactly five
        _, bound = min_cover_bound(PatternGraph.empty(5))
        assert bound == 6

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_over_all_covers(self, seed):
        G = random_pattern_graph(5, seed, edge_probability=0.5)
        _, bound = min_cover_bound(G)
        assert bound == brute_min_cover_bound(G)

    def test_any_cover_bound_dominates_minimum(self):
        G = paw_graph()
        _, best = min_cover_bound(G)
        for cover in [
            CliqueCover([(0, 1), (2, 3)]),
            CliqueCover([(i,) for i in range(4)]),
            CliqueCover([(0, 1, 2), (2, 3)]),
        ]:
            assert cover.covers(G)
            assert cover_bound(cover) >= best

    def test_deterministic_tie_breaking(self):
        # C4 has several bound-4 covers; ties break toward the canonically
        # smallest clique list, here the all-singleton partition
        C4 = PatternGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        first = min_cover_bound(C4)
        second = min_cover_bound(C4)
        assert first == second
        assert first[1] == 4
        assert first[0].cliques == ((0,), (1,), (2,), (3,))

    def test_matches_reference_search_on_every_graph_up_to_five(self):
        # all 1,099 labelled graphs with n <= 5; on 860 of them several
        # clique partitions attain the minimum, so the tie-break decides
        tied = 0
        for G in every_graph_up_to(5):
            cover, bound = min_cover_bound(G)
            assert (cover, bound) == reference_min_cover_bound(G)
            bounds = [b for _, b in CliquePartitions(G)]
            assert min(bounds) == bound
            tied += bounds.count(bound) > 1
        assert tied == 860

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to(10))
    def test_matches_reference_search(self, G):
        assert min_cover_bound(G) == reference_min_cover_bound(G)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_search_on_dense_graphs(self, seed):
        G = random_pattern_graph(11 + seed % 2, 1800 + seed, edge_probability=0.6)
        assert min_cover_bound(G) == reference_min_cover_bound(G)

    def test_triangle_free_patterns_keep_the_singletons(self):
        # with parts of size <= 2 every partition's bound is floor(n^2/4),
        # so the n singletons win the tie, found without listing a matching
        triangle_free = [
            G
            for G in every_graph_up_to(6)
            if not any(G.is_clique(t) for t in itertools.combinations(range(G.n), 3))
        ]
        for G in triangle_free + [cycle(n) for n in range(7, 15)]:
            cover, bound = min_cover_bound(G)
            assert bound == G.n * G.n // 4
            assert cover.cliques == tuple((v,) for v in range(G.n))

    def test_clique_walks_on_a_dense_catalogue_pattern_and_a_cycle(self, monkeypatch):
        # the benchmark catalogue's dense n = 13 matrix with seed 1310 packs
        # triangles and edges; the 14-cycle's profiles are all of 2s, none
        # beats the singletons' floor(14^2/4), and no clique is listed
        walked = []

        def counting(masks, allowed, size):
            walked.append(size)
            return cliques(masks, allowed, size)

        cliques = graphs_mod._cliques
        monkeypatch.setattr(graphs_mod, "_cliques", counting)
        G = pattern_graph(normalize(random_cp_matrix(13, 1310))[0])
        assert min_cover_bound(G)[1] == 28
        assert len(walked) == 32 and set(walked) == {2, 3}
        walked.clear()
        assert min_cover_bound(cycle(14))[1] == 49
        assert walked == []


def skeletons_searched(monkeypatch, G, r):
    """The zero-set skeletons the reference `skeleton_cp_rank_leq` tries, in
    order, on a matrix with pattern G when no skeleton admits a decomposition."""
    tried = []

    def record(C, scale, r, parts, reqs, budget, stats):
        tried.append(tuple(parts))
        return None

    monkeypatch.setattr(oracles, "_search_skeleton", record)
    A = SymTropMatrix.from_upper_func(
        G.n, lambda i, j: 0 if i == j or G.has_edge(i, j) else 1
    )
    assert oracles.skeleton_cp_rank_leq(A, r).status == "refuted"
    return tried


class TestCliquePartitions:
    def test_every_partition_with_its_bound_by_default(self):
        for G in every_graph_up_to(5):
            got = list(CliquePartitions(G))
            assert [parts for parts, _ in got] == list(
                reference_clique_partitions(G, G.n)
            )
            assert all(b == cover_bound(CliqueCover(parts)) for parts, b in got)

    def test_rank_skeletons_match_reference_on_every_graph_up_to_five(
        self, monkeypatch
    ):
        for G in every_graph_up_to(5):
            for r in range(1, G.n + 1):
                expected = list(reference_clique_partitions(G, r))
                assert skeletons_searched(monkeypatch, G, r) == expected

    @settings(max_examples=100, deadline=None)
    @given(graphs_up_to(9), st.integers(1, 9))
    def test_max_parts_matches_reference(self, G, r):
        r = min(r, G.n)
        got = [parts for parts, _ in CliquePartitions(G, max_parts=r)]
        assert got == list(reference_clique_partitions(G, r))

    def test_limits_lowered_between_yields(self):
        # each yield lowers a limit to one below what it just saw; the
        # search must then yield exactly the reference partitions that
        # beat every earlier one, with subtrees that yielded nothing
        # skipped when they are reached again
        for G in every_graph_up_to(6):
            everything = list(CliquePartitions(G))
            for limit, measure in (
                ("max_parts", lambda item: len(item[0])),
                ("max_bound", lambda item: item[1]),
            ):
                expected, best = [], None
                for item in everything:
                    if best is None or measure(item) < best:
                        expected.append(item)
                        best = measure(item)
                search = CliquePartitions(G)
                got = []
                for item in search:
                    got.append(item)
                    setattr(search, limit, measure(item) - 1)
                assert got == expected

    @pytest.mark.parametrize("limit, value", [("max_parts", 0), ("max_bound", -1)])
    def test_no_branch_entered_after_limits_exclude_everything(
        self, monkeypatch, limit, value
    ):
        # a sibling entered under a stale limit would list its cliques
        # before its own frame pruned them
        listed = []

        def counting(allowed, masks):
            listed.append(allowed)
            return cliques_containing(allowed, masks)

        cliques_containing = oracles._cliques_containing
        monkeypatch.setattr(oracles, "_cliques_containing", counting)
        for G in every_graph_up_to(5):
            partitions = CliquePartitions(G)
            search = iter(partitions)
            next(search)
            setattr(partitions, limit, value)
            before = len(listed)
            assert next(search, None) is None
            assert len(listed) == before

class TestColourCount:
    @settings(max_examples=200, deadline=None)
    @given(graphs_up_to(10), st.integers(0, (1 << 10) - 1))
    def test_at_least_the_clique_number_of_any_subset(self, G, bits):
        U = bits & ((1 << G.n) - 1)
        inside = [m & U if U >> v & 1 else 0 for v, m in enumerate(G.masks)]
        omega = len(max_clique(inside)) if U else 0
        assert len(_colour_classes(U, G.masks)) >= omega

    def test_counts(self):
        assert len(_colour_classes(0, PatternGraph.complete(4).masks)) == 0
        assert len(_colour_classes(0b1111, PatternGraph.complete(4).masks)) == 4
        assert len(_colour_classes(0b1111, PatternGraph.empty(4).masks)) == 1
        assert len(_colour_classes((1 << 14) - 1, cycle(14).masks)) == 2


class TestCompletionBound:
    @staticmethod
    def completions(r, omega):
        """Every multiset of part sizes in 1..omega summing to r, descending."""
        if r == 0:
            yield ()
        for q in range(min(r, omega), 0, -1):
            for rest in TestCompletionBound.completions(r - q, q):
                yield (q,) + rest

    def test_never_above_any_completion(self):
        rng = random.Random(18)
        for k, l, r, omega in itertools.product(range(5), range(5), range(9), range(1, 6)):
            old = sorted((rng.randint(2, 6) for _ in range(k)), reverse=True)
            floor = cover_bound_terms(old, l)[1] + completion_bound(k, l, r, omega)
            for new in self.completions(r, omega):
                sizes = sorted(old + [q for q in new if q >= 2], reverse=True)
                assert floor <= ordered_cover_bound(sizes, l + new.count(1))
            if r == 0:
                assert floor == ordered_cover_bound(old, l)


class TestMinCliqueCoverSize:
    @staticmethod
    def brute(G):
        cliques = all_cliques(G)
        vertices = set(range(G.n))
        for size in range(1, G.n + 1):
            for subset in itertools.combinations(cliques, size):
                if set().union(*subset) == vertices:
                    return size

    def test_every_graph_up_to_five(self):
        for G in every_graph_up_to(5):
            size = min_clique_cover_size(G)
            assert size == reference_min_clique_cover_size(G)
            assert size == self.brute(G)

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to(10))
    def test_matches_reference_search(self, G):
        assert min_clique_cover_size(G) == reference_min_clique_cover_size(G)


def cocktail_party(n):
    """K_n less a perfect matching: vertex v misses v + n/2."""
    return PatternGraph(
        n, [(a, b) for a, b in itertools.combinations(range(n), 2) if b - a != n // 2]
    )


def turan(n, r):
    """The complete r-partite graph on n vertices, part v mod r."""
    return PatternGraph(
        n, [(a, b) for a, b in itertools.combinations(range(n), 2) if a % r != b % r]
    )


def cycle_complement(n):
    return PatternGraph(
        n, [(a, b) for a, b in itertools.combinations(range(n), 2) if b - a not in (1, n - 1)]
    )


def catalogue_patterns():
    """The pattern graphs of the benchmark catalogue's 72 dense and 72 sparse
    decompose entries, rebuilt from their generator seeds."""
    for n in range(8, 14):
        for s in range(12):
            yield pattern_graph(normalize(random_cp_matrix(n, 100 * n + s))[0])
            G = random_pattern_graph(n, 600 * n + s, (0.15, 0.2)[s % 2])
            yield pattern_graph(normalize(generate_instance(G, 6000 + 100 * n + s))[0])


class TestAgainstPartitionWalk:
    """Both vertex-cover searches against the clique-partition walk they
    replaced (`oracles.partition_min_cover_bound` and
    `partition_min_clique_cover_size`), which lists every partition."""

    @staticmethod
    def agree(G):
        assert min_cover_bound(G) == partition_min_cover_bound(G)
        assert min_clique_cover_size(G) == partition_min_clique_cover_size(G)

    def test_every_graph_up_to_five(self):
        for G in every_graph_up_to(5):
            self.agree(G)

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to(12))
    def test_hypothesis_graphs(self, G):
        self.agree(G)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.85, 0.95])
    def test_seeded_graphs_from_13_to_16_vertices(self, p):
        for n in range(13, 17):
            self.agree(random_pattern_graph(n, 100 * n + round(100 * p), p))

    def test_catalogue_patterns(self):
        patterns = list(catalogue_patterns())
        assert len(patterns) == 144
        for G in patterns:
            self.agree(G)

    @pytest.mark.parametrize(
        "G, bound",
        [
            (cocktail_party(10), 7),
            (cocktail_party(12), 8),
            (cocktail_party(14), 9),
            (cocktail_party(16), 10),
            (turan(12, 3), 22),
            (turan(12, 4), 15),
            (turan(15, 3), 35),
            (turan(15, 5), 18),
            (turan(16, 4), 28),
            (cycle_complement(10), 7),
            (cycle_complement(13), 10),
            (cycle_complement(16), 10),
            (PatternGraph.complete(16), 1),
            (PatternGraph(20, set(itertools.combinations(range(20), 2)) - {(0, 1)}), 2),
            (PatternGraph.complete(24), 1),
            (random_pattern_graph(20, 5, 0.7), 27),
        ],
        ids=[
            "cocktail10", "cocktail12", "cocktail14", "cocktail16",
            "T12_3", "T12_4", "T15_3", "T15_5", "T16_4",
            "coC10", "coC13", "coC16", "K16", "K20-e", "K24", "rpg20_5_07",
        ],
    )
    def test_pinned_bounds(self, G, bound):
        # each value checked against the partition walk, which takes up to
        # a minute on K24; many clique partitions share each profile here
        cover, got = min_cover_bound(G)
        assert got == bound
        assert cover.covers(G) and cover_bound(cover) == bound

    def test_pinned_clique_cover_size(self):
        # the probe 26/0.5/4, where the partition walk took 19 s
        G = pattern_graph(generate_instance(random_pattern_graph(26, 4, 0.5), 104))
        assert min_clique_cover_size(G) == 7


class TestUpperBound:
    def test_paw_matrix(self):
        assert cp_rank_upper_bound(paw_matrix(1, 2)) == 2

    def test_empty_pattern_small_dimension_exception(self):
        A = SymTropMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert cp_rank_upper_bound(A) == 3

    def test_rank_six_bound(self):
        assert cp_rank_upper_bound(rank_six_5x5()) == 6

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            cp_rank_upper_bound(SymTropMatrix.from_rows([[2, 2], [2, 2]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_never_exceeds_generic_cap(self, seed):
        n = 3 + seed % 5
        G = random_pattern_graph(n, seed)
        _, bound = min_cover_bound(G)
        assert bound <= n * n // 4


class TestEdgeCliqueCover:
    @pytest.mark.parametrize(
        "G, expected",
        [
            (paw_graph(), 2),
            (PatternGraph.star(6), 5),
            (bowtie_graph(), 2),
            (PatternGraph.path(3), 2),
        ],
    )
    def test_known_values(self, G, expected):
        cc, cover = edge_clique_cover_number(G)
        assert cc == expected
        assert cover.covers(G)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs(self, n):
        cc, _ = edge_clique_cover_number(PatternGraph.complete(n))
        assert cc == 1

    def test_edgeless(self):
        cc, cover = edge_clique_cover_number(PatternGraph.empty(4))
        assert cc == 0 and cover.cliques == ()

    def test_a_non_clique_does_not_cover(self):
        # {0, 1, 2} holds both edges of the path but is not a clique of it
        G = PatternGraph.path(3)
        assert EdgeCliqueCover([(0, 1), (1, 2)]).covers(G)
        assert not EdgeCliqueCover([(0, 1, 2)]).covers(G)

    def test_triangle_free_equals_edge_count_exhaustive(self):
        # in a triangle-free graph every clique is an edge, so cc = |E|;
        # checked for every labeled graph on up to 5 vertices
        import itertools

        for n in range(2, 6):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for bits in range(1, 1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
                G = PatternGraph(n, edges)
                if any(
                    G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(a, c)
                    for a, b, c in itertools.combinations(range(n), 3)
                ):
                    continue
                cc, _ = edge_clique_cover_number(G)
                assert cc == len(G.edges)

    def test_larger_triangle_free_cases(self):
        cases = [PatternGraph.path(n) for n in range(6, 8)]
        cases.append(PatternGraph(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4)]))
        for G in cases:
            cc, _ = edge_clique_cover_number(G)
            assert cc == len(G.edges)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        G = random_pattern_graph(5, seed, edge_probability=0.5)
        cc, cover = edge_clique_cover_number(G)
        assert cc == brute_edge_clique_cover(G)
        assert cover.covers(G)

    def test_maximal_cliques_of_bowtie(self):
        assert maximal_cliques(bowtie_graph()) == [(0, 1, 2), (0, 3, 4)]

    def test_cover_is_the_least_minimum_cover_on_every_graph_up_to_five(self):
        for G in every_graph_up_to(5):
            least = brute_least_edge_clique_cover(G)
            assert edge_clique_cover_number(G) == (len(least), EdgeCliqueCover(least))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_cover_is_the_least_minimum_cover_on_seeded_graphs(self, n):
        for seed in range(6):
            for p in (0.3, 0.5, 0.7):
                G = random_pattern_graph(n, seed, p)
                least = brute_least_edge_clique_cover(G)
                assert edge_clique_cover_number(G) == (len(least), EdgeCliqueCover(least))

    def test_min_clique_cover_size(self):
        assert min_clique_cover_size(PatternGraph.empty(5)) == 5
        assert min_clique_cover_size(PatternGraph.complete(4)) == 1
        assert min_clique_cover_size(paw_graph()) == 2


class TestWitnessMatrix:
    def test_path_endpoints(self):
        W = diameter_witness_matrix(PatternGraph.path(4), 0, 3)
        assert W == SymTropMatrix.from_rows(
            [[0, 0, 2, 1], [0, 0, 0, 2], [2, 0, 0, 0], [1, 2, 0, 0]]
        )

    def test_output_is_normalized_cp_with_same_pattern(self):
        for seed in range(6):
            G = random_pattern_graph(5, seed, edge_probability=0.4)
            nonedges = [
                (i, j)
                for i in range(5)
                for j in range(i + 1, 5)
                if not G.has_edge(i, j)
            ]
            if not nonedges:
                continue
            u, v = nonedges[0]
            W = diameter_witness_matrix(G, u, v)
            assert is_completely_positive(W)
            assert is_normalized(W)
            assert pattern_graph(W) == G

    def test_adjacent_pair_rejected(self):
        with pytest.raises(ValueError):
            diameter_witness_matrix(PatternGraph.path(4), 0, 1)

    def test_identical_pair_rejected(self):
        with pytest.raises(ValueError):
            diameter_witness_matrix(PatternGraph.path(4), 2, 2)
