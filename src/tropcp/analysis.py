"""Membership, rank-one structure, and diagonal normalization of tropical CP matrices.

A symmetric tropical matrix is completely positive iff twice each entry
dominates the sum of the corresponding diagonal entries.  Such a matrix can
be shifted to zero diagonal (deleting all-infinite rows first) without
changing its CP-rank; the shift data is kept in a NormalizationRecord so
the transform is exactly invertible.

All of it computes on the integer grid of `core.scaled_rows`: one pass,
`_zero_diagonal`, yields the normalized matrix's rows on it, which the CP
check, the one CP gate `_cp_pass`, `normalize`, the rank-one test, the one
normalized-input gate `require_normalized` and `rank._Instance` read.
`TropScalar`s are built only for what is returned, and the record's
inverse adds the shifts to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    INF,
    ZERO,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
    scaled_rows,
)


class NotCompletelyPositiveError(ValueError):
    """Raised when an operation requires a completely positive matrix."""


# `_zero_diagonal`'s pass: the normalized rows, the survivors and the scale
ZeroDiagonal = tuple[list[list[Optional[int]]], list[tuple[int, int]], int]


def _zero_diagonal(A: SymTropMatrix) -> Optional[ZeroDiagonal]:
    """A's normalized rows on its grid, or None when A is not CP.

    Returns the rows of 2*a_ij - a_ii - a_jj over the survivors (the rows
    with a finite diagonal), each survivor with its a_ii, and the
    `scaled_rows` scale.  A is CP iff no entry is negative and no row with
    an infinite diagonal has a finite entry."""
    rows, _, scale = scaled_rows(A)
    if any(v is not None for i, row in enumerate(rows) if row[i] is None for v in row):
        return None
    survivors = [(i, row[i]) for i, row in enumerate(rows) if row[i] is not None]
    C: list[list[Optional[int]]] = []
    for p, (i, d_i) in enumerate(survivors):
        row, grid_row = [c[p] for c in C], rows[i]
        for j, d_j in survivors[p:]:
            v = grid_row[j]
            if v is not None:
                v = 2 * v - d_i - d_j
                if v < 0:
                    return None
            row.append(v)
        C.append(row)
    return C, survivors, scale


def _cp_pass(A: SymTropMatrix) -> ZeroDiagonal:
    """`_zero_diagonal(A)`, the one CP gate: raises NotCompletelyPositiveError
    when A is not CP."""
    zero_diagonal = _zero_diagonal(A)
    if zero_diagonal is None:
        raise NotCompletelyPositiveError("matrix is not completely positive")
    return zero_diagonal


def _normalizable(A: SymTropMatrix) -> ZeroDiagonal:
    """`_zero_diagonal(A)`; raises when A is not CP or every diagonal entry
    is infinite, the inputs that have no normalized matrix."""
    zero_diagonal = _cp_pass(A)
    if not zero_diagonal[1]:
        raise ValueError("every diagonal entry is infinite; the normalized matrix would be empty")
    return zero_diagonal


def is_completely_positive(A: SymTropMatrix) -> bool:
    """True iff 2*A[i,j] >= A[i,i] + A[j,j] for all i, j (infinity greatest)."""
    return _zero_diagonal(A) is not None


def require_normalized(A: SymTropMatrix) -> ZeroDiagonal:
    """A's `_zero_diagonal` pass when A is normalized (zero diagonal, entries
    >= 0), whose rows are then twice A's on its grid; raises ValueError otherwise."""
    zero_diagonal = _zero_diagonal(A)  # normalized: CP, every diagonal entry 0
    if zero_diagonal is None or [d for _, d in zero_diagonal[1]] != [0] * A.n:
        raise ValueError("matrix is not normalized (zero diagonal, entries >= 0)")
    return zero_diagonal


def is_normalized(A: SymTropMatrix) -> bool:
    """Zero diagonal and nonnegative (or infinite) off-diagonal entries."""
    try:
        return bool(require_normalized(A))
    except ValueError:
        return False


def _rank_one_factor(A: SymTropMatrix) -> Optional[TropVector]:
    """b with b (x) b^T = A, or None when A is CP but not of rank one.

    b_i = a_ii / 2 works exactly when the normalized matrix is all zero.
    """
    rows, survivors, scale = _cp_pass(A)
    if any(v != 0 for row in rows for v in row):
        return None
    b: list[Optional[Fraction]] = [None] * A.n
    for i, d in survivors:
        b[i] = Fraction(d, 2 * scale)
    return TropVector(b)


def cp_rank_is_one(A: SymTropMatrix) -> bool:
    """Whether A is a single tropical rank-one outer product; rejects non-CP input."""
    return _rank_one_factor(A) is not None


def extract_rank_one_factor(A: SymTropMatrix) -> TropVector:
    """Recover b with b (x) b^T = A for a CP-rank-one matrix.

    b[j] = A[j,j]/2, infinite where the diagonal is; an all-infinite
    matrix yields the all-infinite vector.
    """
    b = _rank_one_factor(A)
    if b is None:
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

    def shift_of(self, original_index: int) -> Fraction:
        return dict(self.shifts)[original_index]

    def restore_matrix(self, C: SymTropMatrix) -> SymTropMatrix:
        """Rebuild the original matrix from its normalized form."""
        if C.n != len(self.shifts):
            raise ValueError("normalized matrix does not match this record")
        pos = {orig: (p, s) for p, (orig, s) in enumerate(self.shifts)}

        def entry(i: int, j: int) -> TropScalar:
            if i not in pos or j not in pos:
                return INF
            (p, s), (q, t) = pos[i], pos[j]
            return C[p, q] * (s + t)

        return SymTropMatrix.from_upper_func(self.n, entry)

    def lift_factor(self, c: TropVector) -> TropVector:
        """Inverse-shift one factor of the normalized matrix.

        Adding the half-diagonal shift at each surviving coordinate (and
        inserting infinity at deleted ones) turns a factor of the normalized
        matrix into a factor of the original.
        """
        if len(c) != len(self.shifts):
            raise ValueError("factor length does not match this record")
        b = [INF] * self.n
        for (orig, s), x in zip(self.shifts, c):
            b[orig] = x * s
        return TropVector(b)


def normalize(A: SymTropMatrix) -> tuple[SymTropMatrix, NormalizationRecord]:
    """Delete infinite-diagonal rows/columns, then shift the diagonal to zero.

    Requires a CP input.  The result has zero diagonal and nonnegative
    off-diagonal entries; the returned record inverts the transform exactly
    and carries factor lifting.  CP-rank is unchanged by this transform.
    """
    rows, survivors, scale = _normalizable(A)
    upper = [
        None if v is None else Fraction(v, 2 * scale) for p, row in enumerate(rows) for v in row[p:]
    ]
    C = SymTropMatrix(len(rows), upper)
    deleted = tuple(sorted(set(range(A.n)) - {i for i, _ in survivors}))
    shifts = tuple((i, Fraction(d, 2 * scale)) for i, d in survivors)
    return C, NormalizationRecord(A.n, deleted, shifts)


def lift_decomposition(d: Decomposition, record: NormalizationRecord) -> Decomposition:
    """Turn a decomposition of the normalized matrix into one of the original."""
    return Decomposition(record.restore_matrix(d.target), map(record.lift_factor, d.factors))


def support(A: SymTropMatrix) -> SymTropMatrix:
    """The 0/1 matrix marking zero entries of A (infinity counts as nonzero)."""
    rows, one = scaled_rows(A)[0], TropScalar(1)
    return SymTropMatrix.from_upper_func(A.n, lambda i, j: ZERO if rows[i][j] == 0 else one)
