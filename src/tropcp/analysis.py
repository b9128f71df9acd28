"""Membership, rank-one structure, and diagonal normalization of tropical CP matrices.

A symmetric tropical matrix is completely positive iff twice each entry
dominates the sum of the corresponding diagonal entries.  Such a matrix can
be shifted to zero diagonal (deleting all-infinite rows first) without
changing its CP-rank; the shift data is kept in a NormalizationRecord so
the transform is exactly invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
    rank_one_product,
)


class NotCompletelyPositiveError(ValueError):
    """Raised when an operation requires a completely positive matrix."""


def is_completely_positive(A: SymTropMatrix) -> bool:
    """True iff 2*A[i,j] >= A[i,i] + A[j,j] for all i, j (infinity greatest)."""
    for i in range(A.n):
        for j in range(i + 1, A.n):
            if A[i, j] * A[i, j] < A[i, i] * A[j, j]:
                return False
    return True


def require_cp(A: SymTropMatrix) -> None:
    if not is_completely_positive(A):
        raise NotCompletelyPositiveError("matrix is not completely positive")


def is_normalized(A: SymTropMatrix) -> bool:
    """Zero diagonal and nonnegative (or infinite) off-diagonal entries."""
    for i, j, v in A.upper_entries():
        if i == j:
            if v != TropScalar(0):
                return False
        elif not v.is_inf and v.finite < 0:
            return False
    return True


def require_normalized(A: SymTropMatrix) -> None:
    if not is_normalized(A):
        raise ValueError("matrix is not normalized (zero diagonal, entries >= 0)")


def _rank_one_candidate(A: SymTropMatrix) -> TropVector:
    """The only b that can have b (x) b^T = A, anchored on the first row
    with finite diagonal: b[j] = A[j,j0] - A[j0,j0]/2; all-infinite when
    every diagonal entry is infinite."""
    anchor = next((i for i in range(A.n) if not A[i, i].is_inf), None)
    if anchor is None:
        return TropVector([INF] * A.n)
    half = A[anchor, anchor].finite / 2
    return TropVector(
        INF if A[j, anchor].is_inf else TropScalar(A[j, anchor].finite - half)
        for j in range(A.n)
    )


def cp_rank_is_one(A: SymTropMatrix) -> bool:
    """Whether A is a single tropical rank-one outer product, in O(n^2).

    A rank-one A = b (x) b^T gives b back from any row with finite
    diagonal, so A has rank one exactly when the anchor-row candidate
    reproduces it.  Rejects non-CP input, for which a rank-one
    certificate is meaningless.
    """
    require_cp(A)
    return rank_one_product(_rank_one_candidate(A)) == A


def extract_rank_one_factor(A: SymTropMatrix) -> TropVector:
    """Recover b with b (x) b^T = A for a CP-rank-one matrix.

    Anchored on the first row with finite diagonal: b[j] = A[j,j0] - A[j0,j0]/2.
    An all-infinite matrix yields the all-infinite vector.
    """
    require_cp(A)
    b = _rank_one_candidate(A)
    if rank_one_product(b) != A:
        raise ValueError("matrix is not of CP-rank one")
    return b


@dataclass(frozen=True)
class NormalizationRecord:
    """Exactly invertible data for the zero-diagonal normalization.

    ``deleted`` lists original indices whose diagonal was infinite (their
    whole row is infinite in a CP matrix); ``shifts`` maps each surviving
    original index to the rational half-diagonal subtracted from its row
    and column.
    """

    n: int
    deleted: tuple[int, ...]
    shifts: tuple[tuple[int, Fraction], ...]

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.shifts)

    def shift_of(self, original_index: int) -> Fraction:
        for i, s in self.shifts:
            if i == original_index:
                return s
        raise KeyError(original_index)

    def restore_matrix(self, C: SymTropMatrix) -> SymTropMatrix:
        """Rebuild the original matrix from its normalized form."""
        surv = self.survivors
        if C.n != len(surv):
            raise ValueError("normalized matrix does not match this record")
        pos = {orig: p for p, orig in enumerate(surv)}
        shift = dict(self.shifts)

        def entry(i: int, j: int) -> TropScalar:
            if i in pos and j in pos:
                v = C[pos[i], pos[j]]
                if v.is_inf:
                    return INF
                return TropScalar(v.finite + shift[i] + shift[j])
            return INF

        return SymTropMatrix.from_upper_func(self.n, entry)

    def lift_factor(self, c: TropVector) -> TropVector:
        """Inverse-shift one factor of the normalized matrix.

        Adding the half-diagonal shift at each surviving coordinate (and
        inserting infinity at deleted ones) turns a factor of the normalized
        matrix into a factor of the original.
        """
        surv = self.survivors
        if len(c) != len(surv):
            raise ValueError("factor length does not match this record")
        shift = dict(self.shifts)
        entries: list[TropScalar] = [INF] * self.n
        for p, orig in enumerate(surv):
            v = c[p]
            entries[orig] = v if v.is_inf else TropScalar(v.finite + shift[orig])
        return TropVector(entries)


def normalize(A: SymTropMatrix) -> tuple[SymTropMatrix, NormalizationRecord]:
    """Delete infinite-diagonal rows/columns, then shift the diagonal to zero.

    Requires a CP input.  The result has zero diagonal and nonnegative
    off-diagonal entries; the returned record inverts the transform exactly
    and carries factor lifting.  CP-rank is unchanged by this transform.
    """
    require_cp(A)
    deleted = tuple(i for i in range(A.n) if A[i, i].is_inf)
    survivors = [i for i in range(A.n) if not A[i, i].is_inf]
    if not survivors:
        raise ValueError(
            "every diagonal entry is infinite; the normalized matrix would be empty"
        )
    shifts = tuple((i, A[i, i].finite / 2) for i in survivors)
    half = dict(shifts)

    def entry(p: int, q: int) -> TropScalar:
        a = A[survivors[p], survivors[q]]
        if a.is_inf:
            return INF
        return TropScalar(a.finite - half[survivors[p]] - half[survivors[q]])

    C = SymTropMatrix.from_upper_func(len(survivors), entry)
    return C, NormalizationRecord(n=A.n, deleted=deleted, shifts=shifts)


def lift_decomposition(
    d: Decomposition, record: NormalizationRecord
) -> Decomposition:
    """Turn a decomposition of the normalized matrix into one of the original."""
    target = record.restore_matrix(d.target)
    return Decomposition(target, [record.lift_factor(c) for c in d.factors])


def support(A: SymTropMatrix) -> SymTropMatrix:
    """The 0/1 matrix marking zero entries of A (infinity counts as nonzero)."""
    zero = TropScalar(0)
    one = TropScalar(1)
    return SymTropMatrix.from_upper_func(
        A.n, lambda i, j: zero if A[i, j] == zero else one
    )
