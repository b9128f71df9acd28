"""CP membership, rank-one recovery, normalization, and support."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcp import (
    INF,
    Decomposition,
    NormalizationRecord,
    NotCompletelyPositiveError,
    SymTropMatrix,
    TropScalar,
    TropVector,
    cp_rank_is_one,
    extract_rank_one_factor,
    is_completely_positive,
    is_normalized,
    lift_decomposition,
    normalize,
    rank_one_product,
    support,
    trop_matrix_sum,
)
from tropcp.corpus import flat_3x3, flat_3x3_normalized, rank_one_shifted_3x3, rank_six_5x5
from tropcp.generators import random_cp_matrix

from oracles import (
    reference_cp_rank_is_one,
    reference_is_completely_positive,
    reference_lift_factor,
    reference_normalize,
    reference_restore_matrix,
)

small_scalars = st.one_of(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4).map(
        TropScalar
    ),
    st.just(INF),
)




@st.composite
def cp_matrices(draw):
    """CP matrices with inf entries: a sum of one or two rank-one products,
    sometimes with one off-diagonal entry raised (which keeps it CP), or a
    seeded random CP matrix."""
    n = draw(st.integers(1, 5))
    if draw(st.integers(0, 3)) == 0:
        return random_cp_matrix(n, draw(st.integers(0, 10**6)))
    vectors = st.lists(small_scalars, min_size=n, max_size=n).map(TropVector)
    factors = draw(st.lists(vectors, min_size=1, max_size=2))
    A = trop_matrix_sum([rank_one_product(b) for b in factors])
    if n >= 2 and draw(st.booleans()):
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(pair))
        raise_by = draw(st.sampled_from([INF, TropScalar(Fraction(1, 2)), TropScalar(1)]))
        rows = A.rows()
        rows[i][j] = rows[j][i] = rows[i][j] * raise_by
        A = SymTropMatrix.from_rows(rows)
    return A


def _with_entry(A: SymTropMatrix, i: int, j: int, value) -> SymTropMatrix:
    rows = A.rows()
    rows[i][j] = rows[j][i] = TropScalar(value)
    return SymTropMatrix.from_rows(rows)


@st.composite
def perturbed_matrices(draw):
    """A `cp_matrices` draw with one entry replaced: CP or not."""
    A = draw(cp_matrices())
    i, j = draw(st.integers(0, A.n - 1)), draw(st.integers(0, A.n - 1))
    return _with_entry(A, i, j, draw(small_scalars))


@st.composite
def non_cp_matrices(draw):
    """A `cp_matrices` draw (n >= 2) with one off-diagonal entry below the CP
    condition: under the diagonal average, or finite beside an inf diagonal."""
    A = draw(cp_matrices().filter(lambda A: A.n >= 2))
    pair = st.lists(st.integers(0, A.n - 1), min_size=2, max_size=2, unique=True)
    i, j = draw(pair)
    if A[i, i].is_inf or A[j, j].is_inf:
        return _with_entry(A, i, j, draw(small_scalars.filter(lambda v: not v.is_inf)))
    below = draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4))
    return _with_entry(A, i, j, (A[i, i].finite + A[j, j].finite) / 2 - below)


@st.composite
def inf_diagonal_matrices(draw):
    """A `cp_matrices` draw with some rows made all-inf (still CP), and
    sometimes one finite entry put back into such a row (not CP)."""
    A = draw(cp_matrices())
    rows = A.rows()
    cleared = draw(st.sets(st.integers(0, A.n - 1), min_size=1))
    for k in cleared:
        for t in range(A.n):
            rows[k][t] = rows[t][k] = INF
    if draw(st.booleans()):
        k = draw(st.sampled_from(sorted(cleared)))
        t = draw(st.integers(0, A.n - 1))
        rows[k][t] = rows[t][k] = draw(small_scalars.filter(lambda v: not v.is_inf))
    return SymTropMatrix.from_rows(rows)


def _outcome(f, *args):
    """f's result, or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:  # NotCompletelyPositiveError is one
        return type(exc), str(exc)


any_matrices = st.one_of(
    cp_matrices(),
    perturbed_matrices(),
    non_cp_matrices(),
    inf_diagonal_matrices(),
    st.just(SymTropMatrix.filled(1, INF)),
)


class TestAgainstTheScalarReferences:
    """The grid versions of the CP check, `normalize`, `restore_matrix` and
    `lift_factor` against their `TropScalar` versions in `oracles`."""

    @settings(max_examples=300, deadline=None)
    @given(any_matrices)
    def test_cp_check_and_normalize(self, A):
        cp = reference_is_completely_positive(A)
        assert is_completely_positive(A) == cp
        assert _outcome(normalize, A) == _outcome(reference_normalize, A)
        not_cp = (NotCompletelyPositiveError, "matrix is not completely positive")
        if not cp:
            # every CP-requiring entry point raises through the one gate
            assert _outcome(cp_rank_is_one, A) == _outcome(extract_rank_one_factor, A) == not_cp

    @settings(max_examples=100, deadline=None)
    @given(non_cp_matrices())
    def test_non_cp_perturbations_are_rejected(self, A):
        assert not is_completely_positive(A)
        assert not reference_is_completely_positive(A)

    @settings(max_examples=150, deadline=None)
    @given(inf_diagonal_matrices())
    def test_inf_diagonal_rows(self, A):
        # all-inf rows keep A CP; a finite entry in one makes it not CP
        all_inf = all(
            all(A[i, t].is_inf for t in range(A.n)) for i in range(A.n) if A[i, i].is_inf
        )
        assert is_completely_positive(A) == reference_is_completely_positive(A) == all_inf
        assert _outcome(normalize, A) == _outcome(reference_normalize, A)

    def test_one_by_one_inf(self):
        A = SymTropMatrix.filled(1, INF)
        assert is_completely_positive(A) and reference_is_completely_positive(A)
        assert _outcome(normalize, A) == _outcome(reference_normalize, A)
        assert _outcome(normalize, A)[0] is ValueError

    @settings(max_examples=150, deadline=None)
    @given(cp_matrices().filter(lambda A: any(not A[i, i].is_inf for i in range(A.n))), st.data())
    def test_restore_and_lift(self, A, data):
        C, record = normalize(A)
        assert record.restore_matrix(C) == reference_restore_matrix(record, C) == A
        # any matrix and vector of the record's size, and the record with its
        # survivors in another order
        m = C.n
        size = m * (m + 1) // 2
        D = SymTropMatrix(m, data.draw(st.lists(small_scalars, min_size=size, max_size=size)))
        c = TropVector(data.draw(st.lists(small_scalars, min_size=m, max_size=m)))
        shuffled = NormalizationRecord(
            record.n, record.deleted, tuple(data.draw(st.permutations(record.shifts)))
        )
        for r in (record, shuffled):
            assert r.restore_matrix(D) == reference_restore_matrix(r, D)
            assert r.lift_factor(c) == reference_lift_factor(r, c)
        wrong = TropVector([0] * (m + 1))
        assert _outcome(record.lift_factor, wrong) == _outcome(
            reference_lift_factor, record, wrong
        )
        assert _outcome(record.restore_matrix, SymTropMatrix.zeros(m + 1)) == _outcome(
            reference_restore_matrix, record, SymTropMatrix.zeros(m + 1)
        )


class TestMembership:
    def test_shifted_example_is_cp(self):
        assert is_completely_positive(rank_one_shifted_3x3())

    def test_negative_offdiagonal_is_not_cp(self):
        assert not is_completely_positive(
            SymTropMatrix.from_rows([[0, -1], [-1, 0]])
        )

    def test_infinite_diagonal_with_finite_row_is_not_cp(self):
        # 2*a12 is finite, a11 + a22 is infinite
        assert not is_completely_positive(
            SymTropMatrix.from_rows([["inf", 1], [1, 0]])
        )

    def test_all_infinite_is_cp(self):
        assert is_completely_positive(SymTropMatrix.filled(3, INF))


class TestRankOne:
    def test_shifted_example(self):
        assert cp_rank_is_one(rank_one_shifted_3x3())

    def test_flat_example_is_not_rank_one(self):
        assert not cp_rank_is_one(flat_3x3())

    def test_one_by_one(self):
        assert cp_rank_is_one(SymTropMatrix.from_rows([[0]]))

    def test_rejects_non_cp(self):
        with pytest.raises(NotCompletelyPositiveError):
            cp_rank_is_one(SymTropMatrix.from_rows([[0, -1], [-1, 0]]))

    def test_extract_shifted(self):
        assert extract_rank_one_factor(rank_one_shifted_3x3()) == TropVector([0, 1, 2])

    def test_extract_zero_matrix(self):
        assert extract_rank_one_factor(SymTropMatrix.zeros(3)) == TropVector([0, 0, 0])

    def test_extract_all_infinite(self):
        assert extract_rank_one_factor(SymTropMatrix.filled(2, INF)) == TropVector(
            [INF, INF]
        )

    def test_extract_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            extract_rank_one_factor(flat_3x3())

    @settings(max_examples=60)
    @given(st.lists(small_scalars, min_size=1, max_size=5))
    def test_outer_products_round_trip(self, entries):
        m = rank_one_product(TropVector(entries))
        assert cp_rank_is_one(m)
        again = extract_rank_one_factor(m)
        assert rank_one_product(again) == m


    @settings(max_examples=400, deadline=None)
    @given(cp_matrices())
    def test_matches_the_quadruple_characterization(self, A):
        assert is_completely_positive(A)
        assert cp_rank_is_one(A) == reference_cp_rank_is_one(A)


class TestNormalize:
    def test_shifted_example_normalizes_to_zero(self):
        C, record = normalize(rank_one_shifted_3x3())
        assert C == SymTropMatrix.zeros(3)
        assert record.shift_of(2) == Fraction(2)

    def test_flat_example_half_shifts(self):
        C, _ = normalize(flat_3x3())
        assert C == flat_3x3_normalized()

    def test_infinite_diagonal_row_deleted(self):
        A = SymTropMatrix.from_rows(
            [["inf", "inf", "inf"], ["inf", 2, 3], ["inf", 3, 4]]
        )
        C, record = normalize(A)
        assert C.n == 2
        assert record.deleted == (0,)
        assert record.restore_matrix(C) == A

    def test_rejects_non_cp(self):
        with pytest.raises(NotCompletelyPositiveError):
            normalize(SymTropMatrix.from_rows([[0, -1], [-1, 0]]))

    def test_rejects_fully_infinite(self):
        with pytest.raises(ValueError):
            normalize(SymTropMatrix.filled(2, INF))

    def test_idempotent(self):
        C, _ = normalize(flat_3x3())
        again, record = normalize(C)
        assert again == C
        assert all(s == 0 for _, s in record.shifts)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_random(self, seed):
        A = random_cp_matrix(4, seed)
        C, record = normalize(A)
        assert is_normalized(C)
        assert record.restore_matrix(C) == A

    def test_lift_decomposition(self):
        B = flat_3x3()
        C, record = normalize(B)
        half = Fraction(1, 2)
        dec = Decomposition(
            C, [TropVector([0, half, half]), TropVector([INF, 0, 0])]
        )
        lifted = lift_decomposition(dec, record)
        assert lifted.target == B
        assert lifted.rank == 2


class TestSupport:
    def test_flat_normalized(self):
        assert support(flat_3x3_normalized()) == SymTropMatrix.from_rows(
            [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
        )

    def test_zero_matrix(self):
        assert support(SymTropMatrix.zeros(3)) == SymTropMatrix.zeros(3)

    def test_rank_six_example(self):
        s = support(rank_six_5x5())
        for i, j, v in s.upper_entries():
            assert v == TropScalar(0 if i == j else 1)

    def test_infinite_entries_count_as_nonzero(self):
        A = SymTropMatrix.from_rows([[0, "inf"], ["inf", 0]])
        assert support(A) == SymTropMatrix.from_rows([[0, 1], [1, 0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent(self, seed):
        A = random_cp_matrix(4, seed)
        assert support(support(A)) == support(A)
