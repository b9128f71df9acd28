"""Block construction, tail handling, and the clique-cover decomposition."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import tropcp.analysis as analysis_mod
import tropcp.cli as cli_mod
import tropcp.core as core_mod
import tropcp.decompose as decompose_mod
import tropcp.graphs as graphs_mod
import tropcp.rank as rank_mod
from tropcp import (
    INF,
    CliqueCover,
    PatternGraph,
    SymTropMatrix,
    TropScalar,
    TropVector,
    construct_decomposition,
    construct_decomposition_detailed,
    cover_bound,
    decompose_cp,
    decompose_cp_detailed,
    empty_pattern_01_decomposition,
    lift_decomposition,
    min_cover_bound,
    normalize,
    pattern_graph,
    render_matrix,
    verify_decomposition,
)
from tropcp.core import scaled_rows
from tropcp.corpus import paw_matrix, rank_six_5x5
from tropcp.decompose import (
    TAIL_CLOSED,
    TAIL_EMPTY,
    TAIL_PAIRS,
    TAIL_SEARCH,
    _merge_pass,
    clique_block,
    cross_block,
    make_block_plan,
    singleton_link_block,
    singleton_tail_block,
)
from tropcp.generators import (
    generate_instance,
    random_clique_cover,
    random_cp_matrix,
    random_pattern_graph,
)
from tropcp.graphs import cover_bound_terms, max_clique

from oracles import dressed, reference_merge_pass


def _vec(entries):
    return [TropScalar(e) if e != "inf" else INF for e in entries]


def _scalars(vectors, scale):
    """Grid vectors (None for inf) back to TropScalars on the grid of `scale`."""
    return [[INF if x is None else TropScalar(Fraction(x, scale)) for x in v] for v in vectors]


def _block(block, A, plan, *args):
    """A block function run on A's grid rows, its vectors as TropScalars."""
    rows, _, scale = scaled_rows(A)
    return _scalars(block(rows, plan, *args), scale)


def _merge(B, vectors):
    """_merge_pass on the grid of B and the vectors, its result as TropScalars."""
    rows, vecs, scale = scaled_rows(B, vectors)
    return _scalars(_merge_pass(rows, vecs), scale)


class TestBlocks:
    def test_clique_indicators_paw(self):
        A = paw_matrix(1, 2)
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1, 2), (3,)]))
        assert plan.cliques[: plan.k] == ((0, 1, 2),) and plan.singles == (3,)
        [x] = _block(clique_block, A, plan)
        assert x == _vec([0, 0, 0, "inf"])

    def test_clique_indicators_two_pairs(self):
        A = SymTropMatrix.zeros(4)
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1), (2, 3)]))
        xs = _block(clique_block, A, plan)
        assert xs == [_vec([0, 0, "inf", "inf"]), _vec(["inf", "inf", 0, 0])]

    def test_no_cliques_no_indicators(self):
        A = rank_six_5x5()
        plan = make_block_plan(pattern_graph(A), CliqueCover([(i,) for i in range(5)]))
        assert _block(clique_block, A, plan) == []

    def test_cross_block_single_clique_is_empty(self):
        A = paw_matrix(1, 2)
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1, 2), (3,)]))
        assert _block(cross_block, A, plan) == []

    def test_cross_block_two_cliques(self):
        G = PatternGraph(4, [(0, 1), (2, 3)])
        A = generate_instance(G, seed=5)
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1), (2, 3)]))
        ys = _block(cross_block, A, plan)
        # (j-1) * q_j summed: one pair of cliques, second has two vertices
        assert len(ys) == 2
        assert ys[0] == [A[0, 2], A[1, 2], TropScalar(0), INF]
        assert ys[1] == [A[0, 3], A[1, 3], INF, TropScalar(0)]

    def test_singleton_link_paw(self):
        A = paw_matrix(1, 2)
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1, 2), (3,)]))
        [z] = _block(singleton_link_block, A, plan)
        assert z == _vec([1, 2, 0, 0])

    def test_link_counts(self):
        G = PatternGraph(5, [(0, 1)])
        A = generate_instance(G, seed=2)
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1), (2,), (3,), (4,)]))
        assert len(_block(singleton_link_block, A, plan)) == 3


class TestInputCoordinates:
    """Covers whose cliques are not consecutive: every block is built on the
    matrix as given, so each factor is pinned in the input's coordinates."""

    @staticmethod
    def build(A, cover):
        dec, (_, blocks, mode) = construct_decomposition_detailed(A, CliqueCover(cover))
        assert verify_decomposition(dec)
        return [" ".join(str(e) for e in f) for f in dec.factors], blocks, mode

    def test_interleaved_cliques(self):
        A = SymTropMatrix.from_rows(
            [
                [0, 1, 2, 3, 0, 4],
                [1, 0, 5, 0, 6, 0],
                [2, 5, 0, 7, "3/2", 8],
                [3, 0, 7, 0, 9, 0],
                [0, 6, "3/2", 9, 0, 10],
                [4, 0, 8, 0, 10, 0],
            ]
        )
        factors, blocks, mode = self.build(A, [(0, 4), (1, 3, 5), (2,)])
        assert factors == [
            "inf 0 inf 0 inf 0",
            "0 inf inf inf 0 inf",
            "0 1 inf 3 inf 4",
            "inf 6 inf 9 0 10",
            "inf 5 0 7 inf 8",
            "2 inf 0 inf 3/2 inf",
        ]
        assert blocks == (2, 2, 2, 0)
        assert mode == TAIL_EMPTY

    def test_three_singleton_closed_form_between_clique_vertices(self):
        # singletons 1, 2, 4 sit between the clique's vertices 0, 3, 5; the
        # maximal pair ties between (1, 4) and (2, 4), and the last one wins
        A = SymTropMatrix.from_rows(
            [
                [0, 4, 5, 0, 6, 0],
                [4, 0, 2, 2, 3, 3],
                [5, 2, 0, 9, 3, 10],
                [0, 2, 9, 0, 11, 0],
                [6, 3, 3, 11, 0, 12],
                [0, 3, 10, 0, 12, 0],
            ]
        )
        factors, blocks, mode = self.build(A, [(0, 3, 5), (1,), (2,), (4,)])
        assert factors == [
            "0 inf inf 0 inf 0",
            "4 0 inf 2 inf 3",
            "5 inf 0 9 inf 10",
            "6 inf inf 11 0 12",
            "inf 0 2 inf inf inf",
            "inf 3 3 inf 0 inf",
        ]
        assert blocks == (1, 0, 3, 2)
        assert mode == TAIL_CLOSED

    def test_pairs_tail_around_the_clique(self):
        A = SymTropMatrix.from_rows(
            [
                [0, 1, 7, 2, 3, 8],
                [1, 0, 6, 4, 2, 5],
                [7, 6, 0, 9, 3, 0],
                [2, 4, 9, 0, "inf", 4],
                [3, 2, 3, "inf", 0, 1],
                [8, 5, 0, 4, 1, 0],
            ]
        )
        factors, blocks, mode = self.build(A, [(2, 5), (0,), (1,), (3,), (4,)])
        assert factors == [
            "inf inf 0 inf inf 0",
            "0 inf 7 inf inf 8",
            "inf 0 6 inf inf 5",
            "inf inf 9 0 inf 4",
            "inf inf 3 inf 0 1",
            "0 1 inf inf 3 inf",
            "0 inf inf 2 inf inf",
            "inf 0 inf 4 inf inf",
            "inf 0 inf inf 2 inf",
        ]
        assert blocks == (1, 0, 4, 4)
        assert mode == TAIL_PAIRS


class TestTail:
    def test_two_singletons_closed_form(self):
        G = PatternGraph(4, [(0, 1)])
        A = generate_instance(G, seed=9)
        dec, (plan, counts, mode) = construct_decomposition_detailed(
            A, CliqueCover([(0, 1), (2,), (3,)])
        )
        assert mode == TAIL_CLOSED
        assert counts == (1, 0, 2, 1)
        assert verify_decomposition(dec)

    def test_three_singletons_closed_form_uses_two_factors(self):
        G = PatternGraph(5, [(0, 1)])
        A = generate_instance(G, seed=11)
        dec, (_, counts, mode) = construct_decomposition_detailed(
            A, CliqueCover([(0, 1), (2,), (3,), (4,)])
        )
        assert mode == TAIL_CLOSED
        assert counts[3] == 2
        assert verify_decomposition(dec)

    def test_singleton_tail_with_infinite_entry_falls_back(self):
        A = SymTropMatrix.from_rows(
            [
                [0, 0, 1, 2],
                [0, 0, 1, 2],
                [1, 1, 0, "inf"],
                [2, 2, "inf", 0],
            ]
        )
        dec, (_, counts, mode) = construct_decomposition_detailed(
            A, CliqueCover([(0, 1), (2,), (3,)])
        )
        # the infinite pair needs no tail factor at all
        assert counts[3] == 0
        assert verify_decomposition(dec)

    def test_no_singletons_no_tail(self):
        A = SymTropMatrix.zeros(4)
        dec, (_, counts, mode) = construct_decomposition_detailed(
            A, CliqueCover([(0, 1, 2, 3)])
        )
        assert counts == (1, 0, 0, 0)
        assert dec.rank == 1
        assert dec.factors[0] == TropVector([0, 0, 0, 0])

    def test_one_singleton_beside_a_clique_needs_no_tail(self):
        A = paw_matrix(1, 2)
        _, (_, counts, _) = construct_decomposition_detailed(
            A, CliqueCover([(0, 1, 2), (3,)])
        )
        assert counts == (1, 0, 1, 0)

    def test_three_singleton_closed_form_vectors(self):
        # clique {0,1}; singletons 2,3,4 with pairwise entries 1, 2, 3;
        # the maximal pair (3,4) takes the roles (u,v), vertex 2 is free
        A = SymTropMatrix.from_rows(
            [
                [0, 0, 5, 5, 5],
                [0, 0, 5, 5, 5],
                [5, 5, 0, 1, 2],
                [5, 5, 1, 0, 3],
                [5, 5, 2, 3, 0],
            ]
        )
        plan = make_block_plan(pattern_graph(A), CliqueCover([(0, 1), (2,), (3,), (4,)]))
        rows, _, scale = scaled_rows(A)
        tail, mode = singleton_tail_block(rows, plan, False)
        tail = _scalars(tail, scale)
        assert mode == TAIL_CLOSED
        assert tail == [
            _vec(["inf", "inf", 0, 1, "inf"]),
            _vec(["inf", "inf", 2, 3, 0]),
        ]

    def test_empty_pattern_small_dimension_exact_count(self):
        # empty pattern with n <= 4: the tail search must land on exactly n
        for n, seed in [(3, 1), (4, 2)]:
            G = PatternGraph.empty(n)
            A = generate_instance(G, seed, max_numerator=4, max_denominator=2)
            cover = CliqueCover([(i,) for i in range(n)])
            dec, (_, counts, _) = construct_decomposition_detailed(A, cover)
            assert verify_decomposition(dec)
            assert dec.rank == n


TAIL_VALUES = [TropScalar(v) for v in (0, Fraction(1, 2), 1, Fraction(5, 3), 2, 3)] + [INF]


@st.composite
def merge_inputs(draw):
    """A zero-diagonal B and tail-style vectors in any order: per finite pair
    (p, q), zero at p and B[p, q] at q; some all-inf but a lone zero; and
    some with arbitrary entries that need not dominate B."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    values = st.lists(st.sampled_from(TAIL_VALUES), min_size=len(pairs), max_size=len(pairs))
    off = dict(zip(pairs, draw(values)))
    B = SymTropMatrix.from_upper_func(n, lambda i, j: 0 if i == j else off[i, j])
    vectors = []
    for p, q in pairs:
        if not B[p, q].is_inf and draw(st.integers(0, 3)):
            vec = [INF] * n
            vec[p], vec[q] = TropScalar(0), B[p, q]
            vectors.append(vec)
    for t in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        vec = [INF] * n
        vec[t] = TropScalar(0)
        vectors.append(vec)
    vectors += draw(
        st.lists(st.lists(st.sampled_from(TAIL_VALUES), min_size=n, max_size=n), max_size=2)
    )
    return B, draw(st.permutations(vectors))


class TestMergePass:
    """The integer merge pass against the TropScalar reference, on the
    `scaled_rows` grid of the matrix and vectors."""

    @settings(max_examples=300, deadline=None)
    @given(merge_inputs())
    def test_same_vectors_as_the_reference(self, case):
        B, vectors = case
        assert _merge(B, vectors) == reference_merge_pass(B, vectors)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_tail_as_the_reference_on_sparse_instances(self, seed):
        # sparse patterns leave many singletons, so long merge sequences
        n = 7 + seed % 5
        A = generate_instance(random_pattern_graph(n, seed, 0.15), seed + 500)
        C, _ = normalize(A)
        singles = list(range(n))
        vectors = []
        for a, p in enumerate(singles):
            for q in singles[a + 1:]:
                if not C[p, q].is_inf:
                    vec = [INF] * n
                    vec[p], vec[q] = TropScalar(0), C[p, q]
                    vectors.append(vec)
        merged = _merge(C, vectors)
        assert merged == reference_merge_pass(C, vectors)
        assert len(merged) < len(vectors)

    def test_vectors_off_the_grid_of_b(self):
        # a vector entry with a denominator B does not have
        B = SymTropMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        third = TropScalar(Fraction(1, 3))
        vectors = [
            _vec([0, 1, "inf"]),
            [INF, third, TropScalar(Fraction(5, 3))],
            _vec(["inf", 0, 1]),
        ]
        assert _merge(B, vectors) == reference_merge_pass(B, vectors)


class TestConstruct:
    def test_paw_with_triangle_cover(self):
        A = paw_matrix(1, 2)
        dec = construct_decomposition(A, CliqueCover([(0, 1, 2), (3,)]))
        assert dec.rank == 2
        assert verify_decomposition(dec)

    def test_rank_six_with_singleton_cover(self):
        A = rank_six_5x5()
        cover = CliqueCover([(i,) for i in range(5)])
        dec, (_, counts, mode) = construct_decomposition_detailed(A, cover)
        assert verify_decomposition(dec)
        assert dec.rank <= 10  # pair fallback cap C(5,2)
        if mode == TAIL_SEARCH:
            assert dec.rank <= cover_bound(cover)

    def test_invalid_cover_rejected(self):
        A = paw_matrix(1, 2)
        with pytest.raises(ValueError):
            construct_decomposition(A, CliqueCover([(0, 1, 3), (2,)]))

    def test_cover_missing_vertex_rejected(self):
        A = paw_matrix(1, 2)
        with pytest.raises(ValueError):
            construct_decomposition(A, CliqueCover([(0, 1, 2)]))

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            construct_decomposition(
                SymTropMatrix.from_rows([[2, 2], [2, 2]]), CliqueCover([(0, 1)])
            )

    def test_overlapping_cover_reduced(self):
        A = SymTropMatrix.zeros(3)
        dec = construct_decomposition(A, CliqueCover([(0, 1, 2), (1, 2)]))
        assert verify_decomposition(dec)
        assert dec.rank <= cover_bound(CliqueCover([(0, 1, 2), (1, 2)]))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances_verify_with_count_bounds(self, seed):
        n = 3 + seed % 5
        G = random_pattern_graph(n, seed)
        A = generate_instance(G, seed + 100)
        cover = random_clique_cover(G, seed + 200)
        dec, (plan, counts, mode) = construct_decomposition_detailed(A, cover)
        assert verify_decomposition(dec)
        k, order_sum, kl, tail_target = cover_bound_terms(plan.sizes, plan.singleton_count)
        l = plan.singleton_count
        loose_cap = k + order_sum + kl + l * (l - 1) // 2 + (l if k == 0 else 0)
        assert dec.rank <= loose_cap
        if mode in (TAIL_CLOSED, TAIL_SEARCH) or l <= 1:
            assert dec.rank <= cover_bound(cover)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_factor_dominates_and_zero_sets_are_cliques(self, seed):
        G = random_pattern_graph(5, seed)
        A = generate_instance(G, seed + 300)
        cover = random_clique_cover(G, seed + 400)
        dec = construct_decomposition(A, cover)
        zero = TropScalar(0)
        for factor in dec.factors:
            finite = [t for t, e in enumerate(factor) if not e.is_inf]
            for a in range(len(finite)):
                for b in range(a, len(finite)):
                    s, t = finite[a], finite[b]
                    assert not (factor[s] * factor[t] < A[s, t])
            zeros = [t for t, e in enumerate(factor) if e == zero]
            assert G.is_clique(zeros)


class TestEmptyPattern01:
    def test_three(self):
        dec = empty_pattern_01_decomposition(3)
        assert [list(f) for f in dec.factors] == [
            _vec([0, 1, 1]),
            _vec([1, 0, 1]),
            _vec([1, 1, 0]),
        ]

    def test_one(self):
        dec = empty_pattern_01_decomposition(1)
        assert dec.factors == (TropVector([0]),)

    def test_four_verifies(self):
        assert verify_decomposition(empty_pattern_01_decomposition(4))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            empty_pattern_01_decomposition(0)


class TestLiftedWrapper:
    @pytest.mark.parametrize("seed", range(8))
    def test_decompose_cp_on_raw_input(self, seed):
        A = random_cp_matrix(4, seed)
        dec = decompose_cp(A)
        assert dec.target == A
        assert verify_decomposition(dec)


class TestPreparedInstance:
    """`decompose_cp` and `tropcp bound` prepare their input once: one CP
    check, which is the one grid pass of the input, and for decompose one
    verification, against the input itself."""

    INPUTS = (
        SymTropMatrix.from_rows([["inf"] * 3, ["inf", 1, 2], ["inf", 2, 3]]),
        dressed(paw_matrix(1, 2), 5),
        dressed(random_cp_matrix(9, 3), 6),
        dressed(generate_instance(PatternGraph.empty(4), 2, max_numerator=4, max_denominator=2), 7),
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        # first arguments of each call, by name, in every module holding the
        # name; the verifier's own grid pass in tropcp.core is counted as its
        # is_exact_decomposition call
        calls: dict[str, list] = {}

        def record(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls.setdefault(name, []).append(args[0])
                return fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        names = ("_zero_diagonal", "scaled_rows", "normalize", "lift_decomposition")
        for mod in (analysis_mod, graphs_mod, rank_mod, decompose_mod, cli_mod):
            for name in (*names, "require_normalized"):
                if hasattr(mod, name):
                    record(mod, name)
        record(core_mod, "is_exact_decomposition")
        return calls

    def test_inputs_cover_an_inf_row_an_odd_diagonal_and_a_tail_search(self):
        diagonals = [[A[i, i] for i in range(A.n)] for A in self.INPUTS]
        assert all(INF in d for d in diagonals)
        odd = [[e for e in d if e != INF and e.finite % 2 == 1] for d in diagonals]
        assert all(odd)
        assert decompose_cp_detailed(self.INPUTS[-1])[1][2] == TAIL_SEARCH

    def test_tail_search_is_bounded_by_nodes_only(self, monkeypatch):
        # a clock that jumps 100 s per read would stop any timed search at
        # its first check; the tail's factors must not depend on it
        A = self.INPUTS[-1]
        expected, _ = decompose_cp_detailed(A)
        clock = itertools.count(0.0, 100.0)
        monkeypatch.setattr(rank_mod, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        dec, (_, _, tail_mode) = decompose_cp_detailed(A)
        assert tail_mode == TAIL_SEARCH
        assert dec.factors == expected.factors

    def test_one_grid_pass_and_one_verification_per_decompose(self, calls):
        for A in self.INPUTS:
            calls.clear()
            dec = decompose_cp(A)
            assert calls.pop("_zero_diagonal") == [A]
            assert calls.pop("scaled_rows") == [A]
            (target,) = calls.pop("is_exact_decomposition")
            assert target is A and dec.target is A
            # no normalize, lift or normalization check besides the one pass
            assert calls == {}

    def test_one_grid_pass_per_bound_command(self, calls, tmp_path, capsys):
        for A in self.INPUTS:
            path = tmp_path / "a.tmat"
            path.write_text(render_matrix(A))
            calls.clear()
            assert cli_mod.main(["bound", str(path)]) == 0
            capsys.readouterr()
            (parsed,) = calls.pop("_zero_diagonal")
            assert parsed == A
            assert calls.pop("scaled_rows") == [parsed]
            assert calls == {}

    def test_one_grid_pass_and_one_verification_per_custom_cover(self, calls):
        # a cover of one's own, numbered as the normalized rows, built on the
        # prepared instance gives factors of A itself
        for seed, A in enumerate(self.INPUTS):
            calls.clear()
            P = rank_mod.prepare_instance(A)
            dec = construct_decomposition(P, random_clique_cover(P.G, seed))
            assert calls.pop("_zero_diagonal") == [A]
            assert calls.pop("scaled_rows") == [A]
            (target,) = calls.pop("is_exact_decomposition")
            assert target is A and dec.target is A
            assert calls == {}

    @pytest.fixture
    def instances(self, monkeypatch):
        # every instance built, and the grid rows of every pattern graph
        # built through tropcp.rank
        built: dict[str, list] = {"instances": [], "graphs": []}
        init, pattern = rank_mod._Instance.__init__, rank_mod.pattern_graph

        def recorded_init(P, *args):
            built["instances"].append(P)
            init(P, *args)

        def recorded_pattern(C):
            built["graphs"].append(C)
            return pattern(C)

        monkeypatch.setattr(rank_mod._Instance, "__init__", recorded_init)
        monkeypatch.setattr(rank_mod, "pattern_graph", recorded_pattern)
        return built

    def test_one_pattern_graph_per_decompose_with_a_tail_search(self, instances):
        # the tail search's instance reads the entries, not the pattern graph
        assert decompose_cp_detailed(self.INPUTS[-1])[1][2] == TAIL_SEARCH
        P, tail = instances["instances"]
        assert instances["graphs"] == [P.C]
        assert "G" not in vars(tail) and "entries" not in vars(P)

    def test_bound_command_never_lists_the_entries(self, instances, tmp_path, capsys):
        path = tmp_path / "a.tmat"
        for A in self.INPUTS:
            path.write_text(render_matrix(A))
            instances["instances"].clear()
            assert cli_mod.main(["bound", str(path)]) == 0
            (P,) = instances["instances"]
            assert "entries" not in vars(P)
        capsys.readouterr()


class TestLiftedCertificate:
    def test_decompose_cp_matches_the_normalized_path(self):
        # the instance's lift against the record's, on inputs that are not
        # normalized: same partition, counts, tail mode and factors
        modes = {TAIL_EMPTY: 0, TAIL_CLOSED: 0, TAIL_PAIRS: 0, TAIL_SEARCH: 0}
        for seed in range(60):
            n = 2 + seed % 8
            G = random_pattern_graph(n, seed, (0.1, 0.3, 0.6)[seed % 3])
            C = generate_instance(G, 2000 + seed, max_numerator=4, inf_probability=0.2 * (seed % 2))
            A = dressed(C, seed)
            dec, details = decompose_cp_detailed(A)
            C, record = normalize(A)
            cover, _ = min_cover_bound(pattern_graph(C))
            reference, ref_details = construct_decomposition_detailed(C, cover)
            assert details == ref_details, seed
            assert dec == lift_decomposition(reference, record), seed
            assert dec.target is A
            modes[details[2]] += 1
        assert min(modes.values()) >= 5, modes

    def test_custom_cover_on_the_instance_matches_the_lifted_recipe(self):
        # construct_decomposition on the prepared instance against the
        # normalize -> construct -> lift recipe, on covers that overlap
        for seed in range(40):
            n = 2 + seed % 8
            G = random_pattern_graph(n, seed, (0.1, 0.3, 0.6)[seed % 3])
            C = generate_instance(G, 3000 + seed, max_numerator=4, inf_probability=0.2 * (seed % 2))
            A = dressed(C, seed)
            C, record = normalize(A)
            G = pattern_graph(C)
            cover = CliqueCover(random_clique_cover(G, seed).cliques + (max_clique(G.masks),))
            dec = construct_decomposition(rank_mod.prepare_instance(A), cover)
            assert dec == lift_decomposition(construct_decomposition(C, cover), record), seed
            assert dec.target is A
