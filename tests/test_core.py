"""Tropical scalar/vector/matrix arithmetic and decomposition verification."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropcp import (
    INF,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
    cp_rank_exact,
    is_exact_decomposition,
    rank_one_product,
    reconstruct,
    trop_add,
    trop_matrix_sum,
    trop_mul,
    verify_decomposition,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=8
)
scalars = st.one_of(rationals.map(TropScalar), st.just(INF))


class TestScalar:
    def test_add_examples(self):
        assert trop_add(1, 2) == TropScalar(1)
        assert trop_add(INF, 3) == TropScalar(3)
        assert trop_add(Fraction(1, 2), Fraction(1, 2)) == TropScalar(Fraction(1, 2))

    def test_mul_examples(self):
        assert trop_mul(1, 2) == TropScalar(3)
        assert trop_mul(INF, 0) == INF
        assert trop_mul(Fraction(-1, 2), Fraction(1, 2)) == TropScalar(0)

    def test_ordering(self):
        assert TropScalar(1) < INF
        assert not INF < INF
        assert TropScalar(Fraction(1, 3)) < TropScalar(Fraction(1, 2))
        assert max(TropScalar(5), INF) == INF

    def test_inexact_float_rejected(self):
        with pytest.raises(TypeError):
            TropScalar(0.5)
        assert TropScalar(float("inf")).is_inf

    def test_string_parsing(self):
        assert TropScalar("1/2") == TropScalar(Fraction(1, 2))
        assert TropScalar("inf").is_inf
        assert TropScalar("2.5") == TropScalar(Fraction(5, 2))

    @given(scalars, scalars)
    def test_add_commutative(self, x, y):
        assert x + y == y + x

    @given(scalars, scalars, scalars)
    def test_add_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(scalars, scalars, scalars)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(scalars, scalars, scalars)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(scalars)
    def test_idempotent_add_and_identities(self, x):
        assert x + x == x
        assert x + INF == x
        assert x * TropScalar(0) == x
        assert x * INF == INF


class TestMatrix:
    def test_rank_one_product_shifted(self):
        b = TropVector([0, 1, 2])
        assert rank_one_product(b) == SymTropMatrix.from_rows(
            [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
        )

    def test_rank_one_product_zero(self):
        b = TropVector([0, 0, 0, 0])
        assert rank_one_product(b) == SymTropMatrix.zeros(4)

    def test_rank_one_product_with_inf(self):
        b = TropVector([INF, 0, 0])
        assert rank_one_product(b) == SymTropMatrix.from_rows(
            [["inf", "inf", "inf"], ["inf", 0, 0], ["inf", 0, 0]]
        )

    def test_constructor_coerces_its_entries(self):
        A = SymTropMatrix(2, [0, 1, 0])
        B = SymTropMatrix.from_rows([[0, 1], [1, 0]])
        assert A == B and hash(A) == hash(B)
        assert all(isinstance(v, TropScalar) for _, _, v in A.upper_entries())
        assert cp_rank_exact(A)[0] == cp_rank_exact(B)[0] == 2
        assert SymTropMatrix(1, ["inf"])[0, 0] == INF
        with pytest.raises(TypeError, match="inexact float"):
            SymTropMatrix(2, [0, 0.5, 0])

    @pytest.mark.parametrize(
        "first_entry",
        [
            lambda e: SymTropMatrix(1, [e])[0, 0],
            lambda e: SymTropMatrix.from_rows([[e]])[0, 0],
            lambda e: SymTropMatrix.filled(1, e)[0, 0],
            lambda e: TropVector([e])[0],
        ],
        ids=["init", "from_rows", "filled", "vector"],
    )
    def test_constructors_read_none_as_inf_and_reject_other_types(self, first_entry):
        assert first_entry(None) == TropScalar(None) == INF
        for bad in (object(), [0], b"0"):
            with pytest.raises(TypeError, match="cannot interpret"):
                first_entry(bad)

    def test_operators_still_decline_other_types(self):
        assert (TropScalar(0) == object()) is False
        assert (TropScalar(0) == None) is False  # noqa: E711
        with pytest.raises(TypeError):
            TropScalar(0) + object()

    def test_asymmetric_rejected_with_location(self):
        with pytest.raises(ValueError, match=r"\(1,2\)"):
            SymTropMatrix.from_rows([[0, 1], [2, 0]])

    def test_matrix_sum_of_displayed_factors(self):
        half = Fraction(1, 2)
        m1 = rank_one_product(TropVector([0, half, half]))
        m2 = rank_one_product(TropVector([INF, 0, 0]))
        expected = SymTropMatrix.from_rows(
            [[0, half, half], [half, 0, 0], [half, 0, 0]]
        )
        assert trop_matrix_sum([m1, m2]) == expected

    def test_matrix_sum_single_and_identity(self):
        m = SymTropMatrix.from_rows([[0, 2], [2, 1]])
        assert trop_matrix_sum([m]) == m
        assert trop_matrix_sum([m, SymTropMatrix.filled(2, INF)]) == m

    def test_matrix_sum_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trop_matrix_sum([SymTropMatrix.zeros(2), SymTropMatrix.zeros(3)])

    def test_sum_is_monotone(self):
        m = SymTropMatrix.from_rows([[1, 2], [2, 3]])
        extra = rank_one_product(TropVector([0, 0]))
        combined = trop_matrix_sum([m, extra])
        for i, j, v in combined.upper_entries():
            assert v <= m[i, j]


# (constructor or query, expected error, message) for each rejected input
REJECTED = [
    (lambda: SymTropMatrix(2, [0, 0]), ValueError, "expected 3 upper-triangle entries, got 2"),
    (lambda: SymTropMatrix.from_rows([[0, 1], [1]]), ValueError, "row 2 has 1 entries, expected 2"),
    (lambda: TropVector([]), ValueError, "tropical vectors must have length >= 1"),
    (lambda: SymTropMatrix.zeros(2)[2, 0], IndexError, r"index \(2,0\) out of range for n=2"),
    (lambda: SymTropMatrix.zeros(2)[0, -1], IndexError, r"index \(0,-1\) out of range for n=2"),
    (lambda: INF.finite, ValueError, "infinite tropical scalar has no finite value"),
    (lambda: trop_matrix_sum([]), ValueError, "tropical sum of no matrices"),
]


class TestRejections:
    @pytest.mark.parametrize("call, error, message", REJECTED)
    def test_rejected_with_its_message(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestDecomposition:
    def test_displayed_pair_verifies(self):
        half = Fraction(1, 2)
        target = SymTropMatrix.from_rows(
            [[0, half, half], [half, 0, 0], [half, 0, 0]]
        )
        factors = [TropVector([0, half, half]), TropVector([INF, 0, 0])]
        d = Decomposition(target, factors)
        assert verify_decomposition(d)
        assert d.rank == 2

    def test_single_factor_fails(self):
        # dropping the second factor leaves entry (2,3) at 1 instead of 0
        half = Fraction(1, 2)
        target = SymTropMatrix.from_rows(
            [[0, half, half], [half, 0, 0], [half, 0, 0]]
        )
        only = [TropVector([0, half, half])]
        assert not is_exact_decomposition(target, only)
        with pytest.raises(ValueError):
            Decomposition(target, only)

    def test_zero_matrix_zero_factor(self):
        target = SymTropMatrix.zeros(3)
        assert is_exact_decomposition(target, [TropVector([0, 0, 0])])

    def test_empty_reconstruction_is_all_inf(self):
        assert reconstruct([], 2) == SymTropMatrix.filled(2, INF)

    def test_wrong_length_factor(self):
        with pytest.raises(ValueError):
            Decomposition(SymTropMatrix.zeros(2), [TropVector([0, 0, 0])])

    @given(st.lists(scalars, min_size=1, max_size=5))
    def test_rank_one_is_completely_positive(self, entries):
        # 2*M[i,j] >= M[i,i] + M[j,j] holds for every outer product
        m = rank_one_product(TropVector(entries))
        for i in range(m.n):
            for j in range(m.n):
                assert not (m[i, j] * m[i, j] < m[i, i] * m[j, j])


small_values = st.sampled_from(
    [TropScalar(v) for v in (0, Fraction(1, 2), 1, Fraction(4, 3), 2, -1)] + [INF]
)


@st.composite
def factor_lists(draw):
    """(n, factors): up to four factors of length n, any of them possibly all-inf."""
    n = draw(st.integers(1, 5))
    factors = draw(
        st.lists(st.lists(small_values, min_size=n, max_size=n).map(TropVector), max_size=4)
    )
    return n, factors


def _changed(value: TropScalar) -> TropScalar:
    return TropScalar(0) if value.is_inf else value * TropScalar(Fraction(1, 2))


class TestExactVerifier:
    """is_exact_decomposition against reconstruct(factors, n) == target."""

    @given(factor_lists(), st.data())
    def test_agrees_with_reconstruct_on_any_target(self, case, data):
        n, factors = case
        target = SymTropMatrix(
            n, data.draw(st.lists(small_values, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        )
        assert is_exact_decomposition(target, factors) == (reconstruct(factors, n) == target)

    @given(factor_lists())
    def test_every_one_entry_mismatch_is_found(self, case):
        n, factors = case
        target = reconstruct(factors, n)
        assert is_exact_decomposition(target, factors)
        upper = [v for _, _, v in target.upper_entries()]
        for idx in range(len(upper)):
            wrong = SymTropMatrix(n, upper[:idx] + [_changed(upper[idx])] + upper[idx + 1:])
            assert not is_exact_decomposition(wrong, factors)

    @given(factor_lists(), st.sampled_from([-1, 1]))
    def test_a_wrong_length_factor_is_rejected(self, case, delta):
        n, factors = case
        target = reconstruct(factors, n)
        if n + delta < 1:
            return
        odd = TropVector([TropScalar(0)] * (n + delta))
        for pos in range(len(factors) + 1):
            assert not is_exact_decomposition(target, factors[:pos] + [odd] + factors[pos:])

    def test_mixed_denominators(self):
        third, half = Fraction(1, 3), Fraction(1, 2)
        factors = [TropVector([third, half]), TropVector([INF, Fraction(1, 4)])]
        target = SymTropMatrix.from_rows([[2 * third, third + half], [third + half, half]])
        assert is_exact_decomposition(target, factors)
        assert not is_exact_decomposition(target, factors[:1])
