"""Feasibility solver, bounds, and the exact CP-rank search."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import tropcp.analysis as analysis_mod
import tropcp.core as core_mod
import tropcp.graphs as graphs_mod
import tropcp.rank as rank_mod
from tropcp import (
    INF,
    FactorConstraintSystem,
    SymTropMatrix,
    TropScalar,
    TropVector,
    cp_rank_exact,
    cp_rank_leq,
    cp_rank_upper_bound,
    edge_clique_cover_number,
    fooling_set_bound,
    lift_decomposition,
    normalize,
    pattern_graph,
    rank_lower_bound,
    solve_factor_system,
    verify_decomposition,
    zero_one_rank,
)
from tropcp.corpus import (
    bowtie_witness_5x5,
    flat_3x3,
    flat_3x3_normalized,
    paw_matrix,
    rank_one_shifted_3x3,
    rank_six_5x5,
    star6_matrix,
)
from tropcp.core import scaled_rows
from tropcp.generators import generate_instance, random_cp_matrix, random_pattern_graph
from tropcp.graphs import min_clique_cover_size
from tropcp.rank import (
    SearchStats,
    _Budget,
    _conflict,
    _FactorBuild,
    _Guard,
    _Utvpi,
    prepare_instance,
)

from oracles import (
    _finite_offdiag_requirements,
    _search_skeleton,
    brute_cp_rank,
    dressed,
    reference_solve_factor_system,
    skeleton_cp_rank_leq,
    witness_vector,
)
from test_graphs import every_graph_up_to


class TestFactorSolver:
    def test_pinned_zero_with_equality(self):
        system = FactorConstraintSystem(
            n=2,
            support=frozenset({0, 1}),
            zeros=frozenset({0}),
            equalities=((0, 1, Fraction(1)),),
            inequalities=((1, 1, Fraction(2)),),  # 2*b_1 >= 2
        )
        assert solve_factor_system(system) == TropVector([0, 1])

    def test_contradictory_equality_and_bound(self):
        system = FactorConstraintSystem(
            n=2,
            support=frozenset({0, 1}),
            zeros=frozenset(),
            equalities=((0, 1, Fraction(1)),),
            inequalities=((0, 1, Fraction(3)),),
        )
        assert solve_factor_system(system) is None

    def test_support_extension_is_infinite(self):
        system = FactorConstraintSystem(
            n=4,
            support=frozenset({1, 2}),
            zeros=frozenset({1}),
            equalities=((1, 2, Fraction(5)),),
            inequalities=(),
        )
        out = solve_factor_system(system)
        assert out == TropVector(["inf", 0, 5, "inf"])

    def test_equality_chain_with_sign_alternation(self):
        # b0 + b1 = 4, b1 + b2 = 6, b0 + b2 = 8 pins the component
        system = FactorConstraintSystem(
            n=3,
            support=frozenset({0, 1, 2}),
            zeros=frozenset(),
            equalities=(
                (0, 1, Fraction(4)),
                (1, 2, Fraction(6)),
                (0, 2, Fraction(8)),
            ),
            inequalities=((0, 0, Fraction(0)),),
        )
        assert solve_factor_system(system) == TropVector([3, 1, 5])

    def test_odd_cycle_pins_half_integers(self):
        system = FactorConstraintSystem(
            n=3,
            support=frozenset({0, 1, 2}),
            zeros=frozenset(),
            equalities=(
                (0, 1, Fraction(4)),
                (1, 2, Fraction(6)),
                (0, 2, Fraction(9)),
            ),
            inequalities=(),
        )
        assert solve_factor_system(system) == TropVector(
            [Fraction(7, 2), Fraction(1, 2), Fraction(11, 2)]
        )

    def test_even_cycle_contradiction(self):
        system = FactorConstraintSystem(
            n=4,
            support=frozenset({0, 1, 2, 3}),
            zeros=frozenset(),
            equalities=(
                (0, 1, Fraction(4)),
                (1, 2, Fraction(6)),
                (2, 3, Fraction(6)),
                (0, 3, Fraction(5)),
            ),
            inequalities=(),
        )
        assert solve_factor_system(system) is None

    def test_cross_component_inequality(self):
        system = FactorConstraintSystem(
            n=4,
            support=frozenset({0, 1, 2, 3}),
            zeros=frozenset(),
            equalities=((0, 1, Fraction(2)), (2, 3, Fraction(2))),
            inequalities=(
                (0, 0, Fraction(0)),
                (1, 1, Fraction(0)),
                (2, 2, Fraction(0)),
                (3, 3, Fraction(0)),
                (0, 2, Fraction(5)),
            ),
        )
        assert solve_factor_system(system) is None  # b0 <= 2, b2 <= 2, need >= 5

    def test_half_integer_solution(self):
        system = FactorConstraintSystem(
            n=1,
            support=frozenset({0}),
            zeros=frozenset(),
            equalities=((0, 0, Fraction(3)),),  # 2*b_0 = 3
            inequalities=(),
        )
        assert solve_factor_system(system) == TropVector([Fraction(3, 2)])

    def test_bowtie_branch_system_refuted(self):
        # the factor with zeros on one triangle of the bowtie witness cannot
        # achieve the 1-entry at (1,3) while dominating the 2-entry at (1,4)
        system = FactorConstraintSystem(
            n=5,
            support=frozenset({0, 1, 2, 3, 4}),
            zeros=frozenset({0, 3, 4}),
            equalities=((1, 3, Fraction(1)),),
            inequalities=((1, 4, Fraction(2)),),
        )
        assert solve_factor_system(system) is None

    @pytest.mark.parametrize(
        "support, zeros, equalities, inequalities",
        [
            pytest.param({0, 1}, {2}, (), (), id="zero"),
            pytest.param({0, 1}, (), ((0, 2, Fraction(1)),), (), id="equality"),
            pytest.param({0, 1}, (), (), ((2, 1, Fraction(1)),), id="inequality"),
            pytest.param({0, 3}, (), (), (), id="support"),
        ],
    )
    def test_rejects_coordinates_outside_the_support(
        self, support, zeros, equalities, inequalities
    ):
        with pytest.raises(ValueError):
            FactorConstraintSystem(
                n=3,
                support=frozenset(support),
                zeros=frozenset(zeros),
                equalities=equalities,
                inequalities=inequalities,
            )


rationals = st.builds(
    Fraction, st.integers(min_value=-3, max_value=9), st.integers(min_value=1, max_value=3)
)


@st.composite
def factor_systems(draw):
    """Arbitrary systems on a support, with repeated-coordinate pairs allowed."""
    n = draw(st.integers(min_value=1, max_value=6))
    support = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    coords = st.sampled_from(sorted(support))
    pairs = st.tuples(coords, coords, rationals)
    return FactorConstraintSystem(
        n=n,
        support=frozenset(support),
        zeros=frozenset(draw(st.sets(coords, max_size=2))),
        equalities=tuple(draw(st.lists(pairs, max_size=3))),
        inequalities=tuple(draw(st.lists(pairs, max_size=8))),
    )


@st.composite
def assignment_runs(draw):
    """A zero-diagonal matrix with inf entries, a zero clique, and entries to assign."""
    n = draw(st.integers(min_value=2, max_value=6))
    entry = st.one_of(st.just(INF), rationals.map(abs))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(entry)
    zeros = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3))
    for i in zeros:
        for j in zeros:
            rows[i][j] = Fraction(0)
    A = SymTropMatrix.from_rows(rows)
    finite = [(i, j) for i in range(n) for j in range(i + 1, n) if not A[i, j].is_inf]
    order = draw(st.lists(st.sampled_from(finite), max_size=8)) if finite else []
    return A, frozenset(zeros), order


def witness_case(support, equalities, inequalities):
    """A factor system on {0, 1} without zeros, for pinned examples."""
    return FactorConstraintSystem(
        n=2,
        support=frozenset(support),
        zeros=frozenset(),
        equalities=tuple((i, j, Fraction(c)) for i, j, c in equalities),
        inequalities=tuple((i, j, Fraction(c)) for i, j, c in inequalities),
    )


def kernel_verdict(system):
    """Feasibility of an arbitrary factor system by the search's integer kernel."""
    pairs = [(z, z, Fraction(0), upper) for z in system.zeros for upper in (True, False)]
    pairs += [(i, j, c, upper) for i, j, c in system.equalities for upper in (True, False)]
    pairs += [(i, j, c, False) for i, j, c in system.inequalities]
    scale = math.lcm(1, *(c.denominator for _, _, c, _ in pairs))
    kernel = _Utvpi(system.n)
    for t in system.support:
        kernel.add_var(t, ())
    for i, j, c, upper in pairs:
        add = kernel.add_upper if upper else kernel.add_lower
        if not add(i, j, int(c * scale)):
            return False
    return True


class TestIntegerKernel:
    """The integer UTVPI kernel and its witnesses against exact Fourier-Motzkin."""

    @settings(max_examples=400, deadline=None)
    @given(factor_systems())
    def test_verdict_matches_fourier_motzkin(self, system):
        assert kernel_verdict(system) == (reference_solve_factor_system(system) is not None)

    @settings(max_examples=400, deadline=None)
    @given(factor_systems())
    # one system per rule of the witness; random draws seldom reach the last
    @example(witness_case({0, 1}, (), ((0, 1, 2),)))  # roots last first: (2, 0)
    @example(witness_case({0, 1}, ((0, 1, 2),), ((0, 0, 0), (1, 1, 0))))  # roots only: (0, 2)
    @example(witness_case({0, 1}, ((0, 1, 5),), ((1, 1, 2),)))  # min(upper, 0): (0, 5)
    def test_witness_matches_fourier_motzkin(self, system):
        assert solve_factor_system(system) == reference_solve_factor_system(system)

    @settings(max_examples=200, deadline=None)
    @given(assignment_runs())
    def test_incremental_search_steps_match_fourier_motzkin(self, run):
        # replays a DFS on one factor: keep feasible assignments, undo the rest
        A, zeros, order = run
        scale = 6  # lcm of the denominators 1..3
        C = [[None if v.is_inf else int(v.finite * scale) for v in row] for row in A.rows()]
        f = _FactorBuild(C)
        for z in sorted(zeros):
            assert f.push(z, z, 0)  # b_z = 0 on a clique of zeros
        support, equalities = set(zeros), []
        for i, j in order:
            value = A[i, j].finite
            trial = support | {i, j}
            if any(A[s, t].is_inf for s in trial for t in trial):
                expected = False
            else:
                system = FactorConstraintSystem(
                    n=A.n,
                    support=frozenset(trial),
                    zeros=zeros,
                    equalities=tuple(equalities + [(i, j, value)]),
                    inequalities=tuple(
                        (s, t, A[s, t].finite) for s in trial for t in trial if s <= t
                    ),
                )
                expected = reference_solve_factor_system(system) is not None
            assert f.push(i, j, int(value * scale)) == expected
            if expected:
                support, equalities = trial, equalities + [(i, j, value)]
                # the leaf's witness, on the kernel; undo its fixed roots
                mark = f.mark()
                assert witness_vector(f.witness(), scale) == reference_solve_factor_system(system)
                f.undo(mark)
            else:
                f.pop()

    def test_scaled_half_integer_pin(self):
        # 2*b_0 = 3/2 and b_0 >= 1 cannot both hold
        system = FactorConstraintSystem(
            n=1,
            support=frozenset({0}),
            zeros=frozenset(),
            equalities=((0, 0, Fraction(3, 2)),),
            inequalities=((0, 0, Fraction(2)),),
        )
        assert not kernel_verdict(system)
        assert reference_solve_factor_system(system) is None
        assert solve_factor_system(system) is None


@st.composite
def normalized_matrices(draw):
    """Zero-diagonal matrices with rational entries, one in five of them inf."""
    n = draw(st.integers(min_value=1, max_value=6))
    # inf is rare so that most pairs of entries span only finite ones
    entry = st.tuples(st.integers(0, 4), rationals.map(abs)).map(
        lambda t: INF if t[0] == 0 else t[1]
    )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return SymTropMatrix.from_rows(rows)


@st.composite
def entry_pairs(draw):
    """A normalized matrix and two distinct finite entries (i <= j), if it has two."""
    A = draw(normalized_matrices())
    n = A.n
    finite = [(i, j) for i in range(n) for j in range(i, n) if not A[i, j].is_inf]
    e = draw(st.sampled_from(finite))
    f = draw(st.sampled_from([g for g in finite if g != e] or [e]))
    return A, e, f


def pair_system(A, e, f):
    """The factor system on {i, j, k, l} attaining both entries, or None when it has an inf."""
    S = sorted(set(e) | set(f))
    if any(A[s, t].is_inf for s in S for t in S):
        return None
    return FactorConstraintSystem(
        n=A.n,
        support=frozenset(S),
        zeros=frozenset(),
        equalities=((*e, A[e].finite), (*f, A[f].finite)),
        inequalities=tuple((s, t, A[s, t].finite) for s in S for t in S if s <= t),
    )


def conflict_by_fm(A, e, f):
    system = pair_system(A, e, f)
    return system is None or reference_solve_factor_system(system) is None


@st.composite
def small_integer_matrices(draw):
    """Normalized matrices with entries 0, 1, 2 and inf, for the brute-force oracle."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.sampled_from([0, 1, 2, "inf"])
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return SymTropMatrix.from_rows(rows)


def n7_p03_349():
    """The one catalogue instance whose fooling-set bound (6) is below its rank (7)."""
    return generate_instance(random_pattern_graph(7, 349, 0.3), 1349)


class TestFoolingSetBound:
    """The conflict check, the bound, and the sweep that starts at it."""

    @settings(max_examples=400, deadline=None)
    @given(entry_pairs())
    def test_conflict_matches_kernel_and_fourier_motzkin(self, pair):
        A, e, f = pair
        if e == f:
            return
        C = scaled_rows(A)[0]
        system = pair_system(A, e, f)
        expected = system is None or not kernel_verdict(system)
        assert expected == conflict_by_fm(A, e, f)
        assert _conflict(C, e, f) == _conflict(C, f, e) == expected

    def test_disjoint_conflict_on_every_small_matrix(self):
        # entries (0, 1) and (2, 3) leave two free coordinates; each bound of
        # that closed form decides some of these 4,096 matrices alone
        conflicts = 0
        for values in itertools.product(range(4), repeat=6):
            rows = [[0] * 4 for _ in range(4)]
            for (i, j), v in zip(itertools.combinations(range(4), 2), values):
                rows[i][j] = rows[j][i] = v
            A = SymTropMatrix.from_rows(rows)
            got = _conflict(scaled_rows(A)[0], (0, 1), (2, 3))
            assert got == (not kernel_verdict(pair_system(A, (0, 1), (2, 3))))
            conflicts += got
        assert 0 < conflicts < 4096

    @settings(max_examples=60, deadline=None)
    @given(small_integer_matrices())
    def test_bound_is_at_most_the_oracle_rank(self, A):
        size, entries = fooling_set_bound(A)
        assert size == len(entries) <= brute_cp_rank(A, 8)

    def test_oracle_is_fast_on_alternating_offdiagonals(self):
        # off-diagonal entries 2, 1, 2, 1, ... in combinations order: a draw
        # of the test above on which the oracle once ran for over 90 s
        values = dict(zip(itertools.combinations(range(5), 2), itertools.cycle((2, 1))))
        A = SymTropMatrix.from_upper_func(5, lambda i, j: values.get((i, j), 0))
        start = time.monotonic()
        assert brute_cp_rank(A, 8) == 5
        assert time.monotonic() - start < 2.5

    @settings(max_examples=100, deadline=None)
    @given(normalized_matrices())
    def test_entries_pairwise_conflict(self, A):
        size, entries = fooling_set_bound(A)
        assert size >= 1 and entries == tuple(sorted(entries))
        for a, e in enumerate(entries):
            assert not A[e].is_inf
            for f in entries[a + 1:]:
                assert conflict_by_fm(A, e, f)

    def test_rank_six_bound_is_its_rank(self):
        assert fooling_set_bound(rank_six_5x5()) == (
            6,
            ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
        )

    def test_diagonal_entries_conflict_off_the_pattern(self):
        # the empty pattern: every pair of diagonal zeros conflicts
        A = SymTropMatrix.from_upper_func(4, lambda i, j: 0 if i == j else 1)
        assert fooling_set_bound(A) == (4, ((0, 0), (1, 1), (2, 2), (3, 3)))

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            fooling_set_bound(rank_one_shifted_3x3())

    def test_r_max_below_the_bound_is_undetermined(self):
        rank, cert = cp_rank_exact(rank_six_5x5(), r_max=5)
        assert (rank, cert.status) == (None, "undetermined")
        assert (cert.refuted, cert.refuted_by, cert.undetermined_at) == ((5,), ("bound",), 6)
        assert cert.stats.nodes == 0
        for r_max in (4, 2):  # rank_lower_bound is 5
            _, cert = cp_rank_exact(rank_six_5x5(), r_max=r_max)
            assert (cert.refuted, cert.refuted_by, cert.undetermined_at) == ((), (), r_max + 1)

    @pytest.mark.parametrize(
        "guards, message",
        [
            ({"node_limit": -1}, "node_limit must be >= 0"),
            ({"timeout_s": -1.0}, "timeout_s must be >= 0"),
            ({"timeout_s": math.nan}, "timeout_s must be >= 0"),
        ],
    )
    def test_negative_or_nan_guards_rejected(self, guards, message):
        with pytest.raises(ValueError, match=message):
            cp_rank_exact(paw_matrix(1, 2), **guards)

    def test_zero_and_infinite_guards_accepted(self):
        assert cp_rank_exact(paw_matrix(1, 2), timeout_s=math.inf)[0] == 2
        rank, cert = cp_rank_exact(paw_matrix(1, 2), node_limit=0)
        assert (rank, cert.status, cert.undetermined_at) == (None, "undetermined", 2)

    def test_negative_r_max_rejected(self):
        with pytest.raises(ValueError, match="r_max must be >= 0"):
            cp_rank_exact(rank_six_5x5(), r_max=-3)
        # r_max = 0 still means: stop before any r is tried
        rank, cert = cp_rank_exact(rank_six_5x5(), r_max=0)
        assert (rank, cert.status, cert.refuted, cert.undetermined_at) == (
            None,
            "undetermined",
            (),
            1,
        )

    def test_guard_after_the_bound_keeps_its_refutations(self):
        # the bound refutes r = 16; finding rank 17 takes 107 nodes
        A = generate_instance(random_pattern_graph(14, 1, 0.5), 101)
        rank, cert = cp_rank_exact(A, node_limit=100)
        assert (rank, cert.status, cert.undetermined_at) == (None, "undetermined", 17)
        assert (cert.refuted, cert.refuted_by) == ((16,), ("bound",))


class TestSearchCounters:
    """Counters and certificates of the assignment search over every finite entry.

    `nodes` counts each search's root and every push; `skeletons` is always 0.
    """

    @pytest.mark.parametrize(
        "make, rank, refuted, nodes, skeletons, refuted_branches",
        [
            pytest.param(rank_six_5x5, 6, (5,), 17, 0, 0, id="rank_six_5x5"),
            pytest.param(
                lambda: generate_instance(random_pattern_graph(6, 342, 0.5), 1342),
                5, (3, 4), 24, 0, 0, id="n6_p05_342",
            ),
            pytest.param(
                lambda: generate_instance(random_pattern_graph(6, 476, 0.3), 1476),
                6, (4, 5), 24, 0, 0, id="n6_p03_476",
            ),
            pytest.param(
                lambda: generate_instance(
                    random_pattern_graph(5, 1020, 0.3), 2520, inf_probability=0.7
                ),
                5, (3, 4), 12, 0, 0, id="n5_inf_1020",
            ),
        ],
    )
    def test_counters_pinned(self, make, rank, refuted, nodes, skeletons, refuted_branches):
        # replays the sweep from rank_lower_bound that searched every r
        got, cert = cp_rank_exact(make())
        assert (got, cert.refuted) == (rank, refuted)
        C, _ = normalize(make())
        stats = SearchStats()
        for r in range(rank_lower_bound(C), rank + 1):
            stats.merge(cp_rank_leq(C, r).stats)
        assert (stats.nodes, stats.skeletons, stats.refuted_branches) == (
            nodes,
            skeletons,
            refuted_branches,
        )

    @pytest.mark.parametrize(
        "make, refuted_by, nodes, skeletons, refuted_branches",
        [
            pytest.param(rank_six_5x5, ("bound",), 16, 0, 0, id="rank_six_5x5"),
            pytest.param(
                lambda: generate_instance(random_pattern_graph(6, 342, 0.5), 1342),
                ("bound", "bound"), 22, 0, 0, id="n6_p05_342",
            ),
            pytest.param(
                lambda: generate_instance(random_pattern_graph(6, 476, 0.3), 1476),
                ("bound", "bound"), 22, 0, 0, id="n6_p03_476",
            ),
            pytest.param(
                lambda: generate_instance(
                    random_pattern_graph(5, 1020, 0.3), 2520, inf_probability=0.7
                ),
                ("bound", "bound"), 10, 0, 0, id="n5_inf_1020",
            ),
            pytest.param(n7_p03_349, ("bound", "search"), 41, 0, 0, id="n7_p03_349"),
        ],
    )
    def test_default_sweep_counters_pinned(
        self, make, refuted_by, nodes, skeletons, refuted_branches
    ):
        # the sweep starts at the fooling-set bound and searches from there
        _, cert = cp_rank_exact(make())
        assert cert.refuted_by == refuted_by
        stats = cert.stats
        assert (stats.nodes, stats.skeletons, stats.refuted_branches) == (
            nodes,
            skeletons,
            refuted_branches,
        )

    def test_rank_six_certificate_pinned(self):
        _, cert = cp_rank_exact(rank_six_5x5())
        assert [[str(e) for e in f] for f in cert.decomposition.factors] == [
            ["0", "1", "2", "3", "3"],
            ["1", "inf", "0", "inf", "inf"],
            ["inf", "1", "inf", "0", "3"],
            ["inf", "0", "inf", "inf", "1"],
            ["inf", "inf", "0", "1", "inf"],
            ["inf", "inf", "1", "inf", "0"],
        ]

    def test_fractional_scale_certificates_pinned(self):
        # leaf witnesses on matrices scaled by 2 and by 6
        _, cert = cp_rank_exact(flat_3x3())
        assert [[str(e) for e in f] for f in cert.decomposition.factors] == [
            ["0", "1", "1"],
            ["inf", "1/2", "1/2"],
        ]
        rank, cert = cp_rank_exact(n7_p03_349())
        assert rank == 7
        assert [[str(e) for e in f] for f in cert.decomposition.factors] == [
            ["5/2", "5/3", "0", "0", "5", "5", "6"],
            ["inf", "1", "0", "inf", "0", "inf", "4"],
            ["10/3", "0", "inf", "inf", "2", "2/3", "0"],
            ["3/2", "inf", "inf", "0", "inf", "5/2", "inf"],
            ["inf", "0", "inf", "inf", "1", "0", "inf"],
            ["0", "1/2", "inf", "inf", "1", "inf", "2"],
            ["inf", "0", "inf", "inf", "0", "inf", "inf"],
        ]


def _normalized_path(A: SymTropMatrix):
    """The sweep of `cp_rank_exact` run on normalize(A) through the public
    calls, its certificate lifted with the record: (rank, refuted, nodes,
    decomposition)."""
    C, record = normalize(A)
    lower = rank_lower_bound(C)
    refuted = list(range(lower, max(lower, fooling_set_bound(C)[0])))
    r, nodes = lower + len(refuted), 0
    while True:
        outcome = cp_rank_leq(C, r)
        nodes += outcome.stats.nodes
        if outcome.found:
            return r, refuted, nodes, lift_decomposition(outcome.decomposition, record)
        assert outcome.refuted
        refuted.append(r)
        r += 1


class TestLiftedCertificate:
    def test_matches_the_normalized_path_on_inputs_that_are_not_normalized(self):
        seen = {"inf row": 0, "half shift": 0}
        for seed in range(60):
            n = 3 + seed % 4
            if seed % 3 == 1:
                G = random_pattern_graph(n, seed, 0.2 + 0.1 * (seed % 4))
                A = dressed(generate_instance(G, 1000 + seed, max_numerator=3), seed)
            else:
                A = random_cp_matrix(n, seed)
                A = dressed(A, seed) if seed % 3 == 2 else A
            rank, cert = cp_rank_exact(A)
            got = (rank, list(cert.refuted), cert.stats.nodes, cert.decomposition)
            assert got == _normalized_path(A), seed
            assert cert.decomposition.target is A
            diagonal = [A[i, i] for i in range(A.n)]
            seen["inf row"] += INF in diagonal
            seen["half shift"] += any(d != INF and d.finite % 2 == 1 for d in diagonal)
        assert min(seen.values()) >= 10, seen

    def test_odd_inf_diagonal_matrix(self):
        A = SymTropMatrix.from_rows([["inf"] * 3, ["inf", 1, 2], ["inf", 2, 3]])
        rank, cert = cp_rank_exact(A)
        assert rank == 1
        assert [[str(e) for e in f] for f in cert.decomposition.factors] == [["inf", "1/2", "3/2"]]


def _seeded_instance(seed):
    """A seeded normalized CP matrix at n = 4-7, a third of them normalized
    random CP matrices, the rest on random patterns, half of those with inf."""
    n = 4 + seed % 4
    if seed % 3 == 0:
        return normalize(random_cp_matrix(n, seed))[0]
    return generate_instance(
        random_pattern_graph(n, seed, 0.2 + 0.1 * (seed % 4)),
        1000 + seed,
        max_numerator=3,
        max_denominator=1,
        inf_probability=0.3 * (seed % 2),
    )


class TestAgainstSkeletonSearch:
    """The assignment search against the reference skeleton walk it replaced."""

    def test_found_and_refuted_agree_on_seeded_inputs(self):
        # every r from the lower bound to the rank, on n = 4-7; the reference
        # counts as settled when it ends under its node limit
        verdicts = {"found": 0, "refuted": 0, "unsettled": 0}
        for seed in range(200):
            A = _seeded_instance(seed)
            rank, cert = cp_rank_exact(A)
            assert cert.status == "exact"
            for r in range(rank_lower_bound(A), rank + 1):
                got = cp_rank_leq(A, r)
                assert got.status == ("found" if r == rank else "refuted")
                if got.found:
                    assert verify_decomposition(got.decomposition)
                    assert got.decomposition.rank <= r
                reference = skeleton_cp_rank_leq(A, r, node_limit=5_000)
                if reference.status == "undetermined":
                    verdicts["unsettled"] += 1
                else:
                    assert reference.status == got.status, (seed, r)
                    verdicts[got.status] += 1
        assert verdicts == {"found": 198, "refuted": 96, "unsettled": 22}


# n, p, s of the probe generate_instance(random_pattern_graph(n, s, p), 100 + s),
# its rank and how many r the fooling-set bound refutes
FRONTIER_PROBES = [
    (9, 0.5, 2, 9, 1),
    (10, 0.3, 1, 9, 2),
    (10, 0.5, 1, 8, 0),
    (11, 0.3, 3, 17, 8),
    (11, 0.3, 4, 13, 2),
    (11, 0.5, 1, 11, 1),
]


class TestFrontier:
    @pytest.mark.parametrize(
        "n, p, s, rank, by_bound",
        [pytest.param(*probe, id=f"{probe[0]}/{probe[1]}/{probe[2]}") for probe in FRONTIER_PROBES],
    )
    def test_probe_is_exact(self, n, p, s, rank, by_bound):
        # the skeleton walk left each of these undetermined after 3 s
        A = generate_instance(random_pattern_graph(n, s, p), 100 + s)
        got, cert = cp_rank_exact(A, node_limit=2_000)
        assert (got, cert.status) == (rank, "exact")
        assert cert.refuted_by == ("bound",) * by_bound
        # the larger lower bound and a verified decomposition certify the rank
        assert max(rank_lower_bound(A), fooling_set_bound(A)[0]) == rank
        assert verify_decomposition(cert.decomposition)
        assert cert.decomposition.rank == rank


class TestPreparedInstance:
    def test_one_grid_pattern_graph_and_conflict_graph_per_exact_call(self, monkeypatch):
        # first arguments of each call, by name; the grid passes are counted in
        # the modules the instance reads through (the verifier's own pass in
        # tropcp.core is counted as its is_exact_decomposition call)
        calls: dict[str, list] = {}

        def record(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls.setdefault(name, []).append(args[0])
                return fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        for mod in (rank_mod, analysis_mod):
            for name in ("_zero_diagonal", "is_completely_positive", "normalize", "lift_decomposition"):
                record(mod, name)
        for mod in (graphs_mod, analysis_mod):  # tropcp.rank reads no grid itself
            record(mod, "scaled_rows")
        record(rank_mod, "pattern_graph")
        record(rank_mod, "_conflict_rows")
        record(core_mod, "is_exact_decomposition")
        odd = SymTropMatrix.from_rows([["inf"] * 3, ["inf", 1, 2], ["inf", 2, 3]])
        for A, rank in (
            (paw_matrix(1, 2), 2),
            (star6_matrix(), 6),
            (rank_six_5x5(), 6),
            (n7_p03_349(), 7),
            (flat_3x3(), 2),
            (random_cp_matrix(6, 7), 4),
            (odd, 1),
        ):
            calls.clear()
            assert cp_rank_exact(A)[0] == rank
            assert calls.pop("_zero_diagonal") == [A]
            assert calls.pop("scaled_rows") == [A]
            (dec_target,) = calls.pop("is_exact_decomposition")
            assert dec_target is A
            assert [len(calls.pop(k)) for k in ("pattern_graph", "_conflict_rows")] == [1, 1]
            # no CP check, normalize or lift besides the one pass
            assert calls == {}

    def test_search_order_is_built_once_per_instance(self, monkeypatch):
        orders = []
        search = rank_mod._search

        def recorded(P, *args):
            out = search(P, *args)
            orders.append((P.adj, P.reqs))
            return out

        monkeypatch.setattr(rank_mod, "_search", recorded)
        # one cp_rank_leq refutes r = 6, the next finds r = 7
        _, cert = cp_rank_exact(n7_p03_349())
        assert (cert.rank, cert.refuted_by) == (7, ("bound", "search"))
        (adj, reqs), (adj2, reqs2) = orders
        assert adj is adj2 and reqs is reqs2


class TestLiftedFactors:
    """`_Instance.factor` against the plain lift, one `Fraction(v + 2 d, 2 scale)`
    per finite coordinate."""

    def test_same_vectors_as_the_plain_lift_on_seeded_inputs(self):
        seen = {"inf row": 0, "half shift": 0}
        for seed in range(40):
            n = 3 + seed % 5
            C = normalize(random_cp_matrix(n, seed))[0]
            A = dressed(C, seed) if seed % 4 else C
            P = prepare_instance(A)
            rng = random.Random(seed)
            witnesses = [
                [None if rng.random() < 0.3 else rng.randrange(-6, 7) for _ in P.lift]
                for _ in range(6)
            ]
            factors = [P.factor(x2) for x2 in witnesses]
            for f, x2 in zip(factors, witnesses):
                plain = [None] * A.n
                for (i, d), v in zip(P.lift, x2):
                    if v is not None:
                        plain[i] = Fraction(v + 2 * d, 2 * P.scale)
                assert f == TropVector(plain), seed
                assert [str(e) for e in f] == [str(e) for e in TropVector(plain)]
            # equal coordinates are one shared scalar, across the factors too
            shared = {}
            for e in itertools.chain.from_iterable(factors):
                assert shared.setdefault(e, e) is e
            diagonal = [A[i, i] for i in range(A.n)]
            seen["inf row"] += INF in diagonal
            seen["half shift"] += any(d != INF and d.finite % 2 == 1 for d in diagonal)
        assert min(seen.values()) >= 10, seen

    def test_odd_inf_diagonal_matrix(self):
        A = SymTropMatrix.from_rows([["inf"] * 3, ["inf", 1, 2], ["inf", 2, 3]])
        P = prepare_instance(A)
        assert [str(e) for e in P.factor([0, 2])] == ["inf", "1/2", "2"]
        assert P.factor([0, None])[1] is P.factor([0, 0])[1]
        assert P.factor([0, None])[2] is INF


class TestNormalizedGate:
    """`analysis.require_normalized` is the one check of a normalized input:
    one `_zero_diagonal` grid pass, which every entry point that takes a
    normalized matrix reads instead of gridding its input again."""

    INPUTS = (
        paw_matrix(1, 2),
        rank_six_5x5(),
        flat_3x3_normalized(),
        generate_instance(random_pattern_graph(9, 3, 0.3), 5, inf_probability=0.2),
    )
    ENTRY_POINTS = {
        "cp_rank_upper_bound": cp_rank_upper_bound,
        "is_normalized": analysis_mod.is_normalized,
        "require_normalized": analysis_mod.require_normalized,
        "cp_rank_leq": lambda A: cp_rank_leq(A, 2),
        "rank_lower_bound": rank_lower_bound,
        "fooling_set_bound": fooling_set_bound,
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        # first arguments of each grid pass, in every module holding the name
        # (the verifier's own pass in tropcp.core is not counted)
        calls: dict[str, list] = {}

        def record(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls.setdefault(name, []).append(args[0])
                return fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        for mod in (analysis_mod, graphs_mod, rank_mod):
            for name in ("_zero_diagonal", "scaled_rows"):
                if hasattr(mod, name):
                    record(mod, name)
        return calls

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_one_grid_pass_per_call(self, calls, name):
        for A in self.INPUTS:
            calls.clear()
            self.ENTRY_POINTS[name](A)
            assert calls == {"_zero_diagonal": [A], "scaled_rows": [A]}

    def test_gates_accept_and_reject_the_same_inputs(self):
        def outcome(f, A):
            try:
                f(A)
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        rng = random.Random(24)
        kinds = {"normalized": 0, "shifted": 0, "negative": 0, "inf-diagonal": 0}
        for seed in range(80):
            n = rng.randint(1, 6)
            A = generate_instance(random_pattern_graph(n, seed, 0.4), seed, inf_probability=0.3)
            kind = rng.choice(list(kinds))
            i, j = rng.randrange(n), rng.randrange(n)
            if kind == "shifted":
                A = dressed(A, seed)
            elif kind == "negative":
                A = SymTropMatrix.from_upper_func(
                    n, lambda a, b: TropScalar(-1) if {a, b} == {i, j} else A[a, b]
                )
            elif kind == "inf-diagonal":
                # row i all inf (CP), or only its diagonal (finite entries: not CP)
                whole = rng.random() < 0.5
                A = SymTropMatrix.from_upper_func(
                    n, lambda a, b: INF if a == b == i or (whole and i in (a, b)) else A[a, b]
                )
            kinds[kind] += 1
            gate = outcome(analysis_mod.require_normalized, A)
            assert outcome(rank_mod._prepared, A) == gate
            assert analysis_mod.is_normalized(A) == (gate is None)
            assert gate in (None, (ValueError, "matrix is not normalized (zero diagonal, entries >= 0)"))
            assert (gate is None) == (kind == "normalized")
        assert min(kinds.values()) > 0


class TestBounds:
    def test_rank_six_lower_bound(self):
        assert rank_lower_bound(rank_six_5x5()) == 5

    def test_paw_lower_bound(self):
        assert rank_lower_bound(paw_matrix(1, 2)) == 2

    def test_complete_pattern_lower_bound(self):
        assert rank_lower_bound(SymTropMatrix.zeros(4)) == 1

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            rank_lower_bound(rank_one_shifted_3x3())


class TestRankDecision:
    def test_rank_six_refuted_at_five(self):
        out = cp_rank_leq(rank_six_5x5(), 5)
        assert out.refuted
        assert out.stats.nodes > 0

    def test_rank_six_found_at_six(self):
        out = cp_rank_leq(rank_six_5x5(), 6)
        assert out.found
        assert verify_decomposition(out.decomposition)
        assert out.decomposition.rank <= 6

    def test_flat_normalized_at_two(self):
        out = cp_rank_leq(flat_3x3_normalized(), 2)
        assert out.found
        assert out.decomposition.rank <= 2
        assert verify_decomposition(out.decomposition)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError, match="r must be >= 1"):
            cp_rank_leq(paw_matrix(1, 2), 0)

    def test_undetermined_under_node_limit(self):
        # refuting r = 6 takes 12 nodes
        out = cp_rank_leq(n7_p03_349(), 6, node_limit=3)
        assert out.status == "undetermined"
        assert out.decomposition is None

    def test_parallel_matches_sequential(self):
        # threads is accepted and the search runs serially: same certificate and counters
        for A, rank, refuted_by in (
            (rank_six_5x5(), 6, ("bound",)),
            (n7_p03_349(), 7, ("bound", "search")),
        ):
            seq_rank, seq = cp_rank_exact(A)
            par_rank, par = cp_rank_exact(A, threads=2)
            assert seq_rank == par_rank == rank
            assert seq.refuted_by == refuted_by
            seq.stats.wall_time = par.stats.wall_time = 0.0
            assert seq == par


def search_anchor_skeleton(budget):
    """The reference search of one skeleton of the n = 7 anchor at r = 8 (1094 nodes)."""
    A = generate_instance(random_pattern_graph(7, 2, 0.3), 102)
    parts = ((0, 3), (1,), (2,), (4, 6), (5,))
    C, _, scale = scaled_rows(A)
    reqs = _finite_offdiag_requirements(C)
    return _search_skeleton(C, scale, 8, parts, reqs, budget, SearchStats())


class TestGuards:
    def test_merge_sums_wall_time(self):
        total = SearchStats(wall_time=1.0)
        total.merge(SearchStats(wall_time=2.0))
        assert total.wall_time == 3.0

    def test_skeleton_search_stops_at_a_past_deadline(self):
        budget = _Budget(10**6, -1.0)
        with pytest.raises(_Guard):
            search_anchor_skeleton(budget)
        assert budget.nodes <= 1024

    def test_skeleton_search_finishes_before_its_deadline(self):
        budget = _Budget(10**6, 300.0)
        assert search_anchor_skeleton(budget) is None
        assert budget.nodes == 1094

    def test_exact_bounds_stop_at_the_deadline(self):
        # the fooling-set clique search alone takes about 2 s here
        A = generate_instance(
            random_pattern_graph(22, 2, 0.3), 102, max_numerator=3, max_denominator=1
        )
        start = time.monotonic()
        rank, cert = cp_rank_exact(A, timeout_s=0.05)
        assert time.monotonic() - start < 0.5
        assert (rank, cert.status) == (None, "undetermined")
        # a clique search cut short still returns pairwise conflicting entries
        C = scaled_rows(A)[0]
        for timeout_s in (0.0, 0.1):
            size, entries = fooling_set_bound(A, timeout_s=timeout_s)
            assert size == len(entries) < 32
            assert all(_conflict(C, e, f) for e, f in itertools.combinations(entries, 2))

    @pytest.mark.parametrize(
        "guards, message",
        [
            ({"node_limit": -1}, "node_limit must be >= 0"),
            ({"timeout_s": -1.0}, "timeout_s must be >= 0"),
            ({"timeout_s": math.nan}, "timeout_s must be >= 0"),
        ],
    )
    def test_decision_rejects_negative_or_nan_guards(self, guards, message):
        # a NaN deadline would never fire: `time.monotonic() > nan` is False
        with pytest.raises(ValueError, match=message):
            cp_rank_leq(rank_six_5x5(), 5, **guards)

    @pytest.mark.parametrize("timeout_s", [-1.0, math.nan])
    def test_fooling_set_bound_rejects_negative_or_nan_timeout(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be >= 0"):
            fooling_set_bound(rank_six_5x5(), timeout_s=timeout_s)

    def test_zero_guards_accepted_by_the_decision_and_the_bound(self):
        for guards in ({"node_limit": 0}, {"timeout_s": 0.0}):
            assert cp_rank_leq(rank_six_5x5(), 6, **guards).status == "undetermined"
        size, entries = fooling_set_bound(rank_six_5x5(), timeout_s=0.0)
        assert size == len(entries) <= 6

    def test_sweep_out_of_time_between_two_r_is_undetermined(self, monkeypatch):
        # r = 6 is refuted by a search; the deadline passes before r = 7,
        # which then gets a zero timeout, not a negative one
        timeouts = []
        leq = rank_mod.cp_rank_leq

        def late(P, r, node_limit, timeout_s):
            timeouts.append(timeout_s)
            outcome = leq(P, r, node_limit=node_limit, timeout_s=timeout_s)
            time.sleep(0.3)
            return outcome

        monkeypatch.setattr(rank_mod, "cp_rank_leq", late)
        rank, cert = cp_rank_exact(n7_p03_349(), timeout_s=0.2)
        assert (rank, cert.status, cert.undetermined_at) == (None, "undetermined", 7)
        assert cert.refuted_by == ("bound", "search")
        assert len(timeouts) == 2 and 0 < timeouts[0] <= 0.2 and timeouts[1] == 0.0

    def test_exact_sweep_shares_one_node_limit(self):
        # r = 6 is refuted in 12 nodes and r = 7 found in 29: each fits the
        # limit alone, but the sweep has one budget for both
        A = n7_p03_349()
        assert [cp_rank_leq(A, r).stats.nodes for r in (6, 7)] == [12, 29]
        rank, cert = cp_rank_exact(A, node_limit=30)
        assert (rank, cert.status, cert.undetermined_at) == (None, "undetermined", 7)
        assert cert.refuted_by == ("bound", "search")
        assert cert.stats.nodes == 30 + 1  # the guard counts the node it stops at


class TestExactRank:
    def test_examples(self):
        assert cp_rank_exact(rank_six_5x5())[0] == 6
        assert cp_rank_exact(rank_one_shifted_3x3())[0] == 1
        assert cp_rank_exact(paw_matrix(1, 2))[0] == 2
        assert cp_rank_exact(flat_3x3())[0] == 2

    def test_bowtie_strictly_above_cc(self):
        D = bowtie_witness_5x5()
        cc, _ = edge_clique_cover_number(pattern_graph(D))
        rank, cert = cp_rank_exact(D)
        assert cc == 2
        assert isinstance(rank, int) and rank > 2
        assert verify_decomposition(cert.decomposition)

    def test_certificate_lifted_to_input(self):
        A = flat_3x3()
        rank, cert = cp_rank_exact(A)
        assert rank == 2
        assert cert.decomposition.target == A

    def test_non_cp_marker(self):
        rank, cert = cp_rank_exact(SymTropMatrix.from_rows([[0, -1], [-1, 0]]))
        assert rank == float("inf")
        assert cert.status == "not_cp"

    def test_all_infinite_has_rank_zero(self):
        rank, cert = cp_rank_exact(SymTropMatrix.filled(2, "inf"))
        assert rank == 0
        assert cert.decomposition.rank == 0

    def test_r_max_exceeded_is_undetermined(self):
        rank, cert = cp_rank_exact(rank_six_5x5(), r_max=5)
        assert rank is None
        assert cert.status == "undetermined"
        assert cert.refuted == (5,)
        assert cert.undetermined_at == 6

    def test_guard_reported_not_guessed(self):
        rank, cert = cp_rank_exact(rank_six_5x5(), node_limit=3)
        assert rank is None
        assert cert.status == "undetermined"


def _three_by_three(values=(0, 1, 2, None)):
    """Every normalized 3x3 matrix with off-diagonal entries from `values`
    (None encodes infinity)."""
    for a, b, c in itertools.product(values, repeat=3):
        yield SymTropMatrix.from_rows(
            [[0, _t(a), _t(b)], [_t(a), 0, _t(c)], [_t(b), _t(c), 0]]
        )


def _sampled_four_by_four(seed):
    rng = random.Random(seed)
    values = [0, 1, 2, None]
    rows = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            v = rng.choice(values)
            rows[i][j] = rows[j][i] = _t(v)
    return SymTropMatrix.from_rows(rows)


class TestAgainstBruteForce:
    def test_exhaustive_three_by_three(self):
        count = 0
        for A in _three_by_three():
            rank, cert = cp_rank_exact(A)
            oracle = brute_cp_rank(A, 6)
            assert rank == oracle, f"mismatch on {A}"
            count += 1
        assert count == 64

    @pytest.mark.parametrize("seed", range(24))
    def test_sampled_four_by_four(self, seed):
        A = _sampled_four_by_four(seed)
        rank, _ = cp_rank_exact(A)
        assert rank == brute_cp_rank(A, 8)


def _t(v):
    return "inf" if v is None else v


def _zero_one_matrix(G):
    """The 0/1 matrix whose pattern graph is G: 0 on the diagonal and edges."""
    return SymTropMatrix.from_upper_func(G.n, lambda i, j: 0 if i == j or G.has_edge(i, j) else 1)


def _cc_plus_isolated(A):
    """cc of a normalized matrix's pattern graph plus its isolated vertices.

    A lower bound on the CP-rank: a factor that attains a zero entry has a
    clique as its zero set, so at least cc factors attain the edges, and an
    isolated vertex's diagonal needs a factor whose zero set is that vertex
    alone, which attains no edge.  It is at least `rank_lower_bound`, since
    a minimum vertex clique cover needs at most cc + isolated cliques.
    """
    G = pattern_graph(A)
    return edge_clique_cover_number(G)[0] + G.masks.count(0)


class TestIsolatedVertexBound:
    def test_between_the_lower_bound_and_the_rank(self):
        inputs = [_seeded_instance(seed) for seed in range(200)]
        inputs += [*_three_by_three(), *map(_sampled_four_by_four, range(24))]
        above, tight = 0, 0
        for A in inputs:
            rank, _ = cp_rank_exact(A)
            lower, bound = rank_lower_bound(A), _cc_plus_isolated(A)
            assert lower <= bound <= rank, A
            above += lower < bound
            tight += bound == rank
        # stronger than the lower bound on some inputs, the rank on most
        assert (len(inputs), above, tight) == (288, 22, 206)

    def test_is_the_zero_one_rank(self):
        inputs = [*_three_by_three((0, 1))]
        for seed in range(24):
            G = random_pattern_graph(4 + seed % 3, seed, edge_probability=0.45)
            inputs.append(
                SymTropMatrix.from_upper_func(
                    G.n, lambda i, j: 0 if (i == j or G.has_edge(i, j)) else 1
                )
            )
        for A in inputs:
            assert _cc_plus_isolated(A) == zero_one_rank(A) == cp_rank_exact(A)[0], A


class TestVertexCoverInTheLowerBound:
    """`rank_lower_bound` is max(cc, theta), theta the minimum vertex clique
    cover, but it searches theta only on a pattern with an isolated vertex:
    otherwise theta <= cc."""

    def test_is_the_max_of_both_covers(self):
        inputs = [_zero_one_matrix(G) for G in every_graph_up_to(5)]
        inputs += [_seeded_instance(seed) for seed in range(200)]
        inputs += [*_three_by_three(), *map(_sampled_four_by_four, range(24))]
        for A in inputs:
            G = pattern_graph(A)
            theta = min_clique_cover_size(G)
            assert rank_lower_bound(A) == max(edge_clique_cover_number(G)[0], theta), A

    @pytest.mark.parametrize(
        "A, calls", [(paw_matrix(1, 2), 0), (flat_3x3_normalized(), 1)], ids=["paw", "isolated"]
    )
    def test_searches_the_vertex_cover_only_with_an_isolated_vertex(self, monkeypatch, A, calls):
        seen = []

        def counted(G):
            seen.append(G)
            return min_clique_cover_size(G)

        monkeypatch.setattr(rank_mod, "min_clique_cover_size", counted)
        assert (0 in pattern_graph(A).masks) == bool(calls)
        cp_rank_exact(A)
        assert len(seen) == calls


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich(self, seed):
        G = random_pattern_graph(4, seed)
        A = generate_instance(G, seed + 50, max_numerator=3, max_denominator=2)
        rank, _ = cp_rank_exact(A)
        assert rank_lower_bound(A) <= rank <= cp_rank_upper_bound(A)

    @pytest.mark.parametrize("seed", range(8))
    def test_join_vertex_preserves_rank(self, seed):
        G = random_pattern_graph(4, seed)
        A = generate_instance(G, seed + 60, max_numerator=3, max_denominator=2)

        def extended(i, j):
            if i == A.n or j == A.n:
                return 0
            return A[i, j]

        A2 = SymTropMatrix.from_upper_func(A.n + 1, extended)
        assert cp_rank_exact(A2)[0] == cp_rank_exact(A)[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_principal_submatrix_never_increases_rank(self, seed):
        G = random_pattern_graph(5, seed)
        A = generate_instance(G, seed + 70, max_numerator=3, max_denominator=2)
        full_rank, _ = cp_rank_exact(A)
        for m in range(2, 5):
            sub = SymTropMatrix.from_upper_func(m, lambda i, j: A[i, j])
            assert cp_rank_exact(sub)[0] <= full_rank

    @pytest.mark.parametrize("seed", range(8))
    def test_normalization_invariance(self, seed):
        from tropcp.generators import random_cp_matrix

        n = 5 if seed >= 5 else 4
        A = random_cp_matrix(n, seed)
        C, _ = normalize(A)
        assert cp_rank_exact(A)[0] == cp_rank_exact(C)[0]


class TestZeroOneRank:
    def test_paw_zero_one(self):
        A = SymTropMatrix.from_rows(
            [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0], [1, 1, 0, 0]]
        )
        assert zero_one_rank(A) == 2

    def test_empty_pattern(self):
        A = SymTropMatrix.from_upper_func(5, lambda i, j: 0 if i == j else 1)
        assert zero_one_rank(A) == 5

    def test_star_pattern(self):
        S = star6_matrix()
        A = SymTropMatrix.from_upper_func(
            6, lambda i, j: 0 if S[i, j] == SymTropMatrix.zeros(1)[0, 0] else 1
        )
        assert zero_one_rank(A) == 5

    def test_non_zero_one_rejected(self):
        with pytest.raises(ValueError):
            zero_one_rank(SymTropMatrix.from_rows([[0, 2], [2, 0]]))

    def test_isolated_vertex_needs_its_own_factor(self):
        # edge {0,1} plus isolated vertex 2: cc = 1 but the rank is 2
        A = SymTropMatrix.from_rows([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert zero_one_rank(A) == 2
        assert cp_rank_exact(A)[0] == 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_unit_empty_pattern_refutes_below_n(self, n):
        # each vertex's diagonal zero needs its own factor: no clique
        # partition of an empty pattern fits into n - 1 parts
        A = SymTropMatrix.from_upper_func(n, lambda i, j: 0 if i == j else 1)
        assert cp_rank_leq(A, n - 1).refuted
        assert cp_rank_leq(A, n).found

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_search_on_random_patterns(self, seed):
        G = random_pattern_graph(4, seed, edge_probability=0.45)
        A = SymTropMatrix.from_upper_func(
            4, lambda i, j: 0 if (i == j or G.has_edge(i, j)) else 1
        )
        assert zero_one_rank(A) == cp_rank_exact(A)[0]
