"""Membership, rank-one structure, and diagonal normalization of tropical CP matrices.

A symmetric tropical matrix is completely positive iff twice each entry
dominates the sum of the corresponding diagonal entries.  Such a matrix can
be shifted to zero diagonal (deleting all-infinite rows first) without
changing its CP-rank; the shift data is kept in a NormalizationRecord so
the transform is exactly invertible.

All of it computes on the integer grid of `core.scaled_rows`; one pass,
`_zero_diagonal`, serves the CP check, `normalize` and the rank-one test.
`TropScalar`s are built only for the matrices and vectors returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    INF,
    ZERO,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
    on_grid,
    scaled_rows,
)


class NotCompletelyPositiveError(ValueError):
    """Raised when an operation requires a completely positive matrix."""


def _zero_diagonal(
    A: SymTropMatrix,
) -> Optional[tuple[list[Optional[int]], list[tuple[int, int]], int]]:
    """A's normalized upper triangle on its grid, or None when A is not CP.

    Returns 2*a_ij - a_ii - a_jj row by row over the survivors (the rows with
    a finite diagonal), each survivor with its a_ii, and the `scaled_rows`
    scale.  A is CP iff no entry is negative and no row with an infinite
    diagonal has a finite entry."""
    rows, _, scale = scaled_rows(A)
    if any(v is not None for i, row in enumerate(rows) if row[i] is None for v in row):
        return None
    survivors = [(i, row[i]) for i, row in enumerate(rows) if row[i] is not None]
    upper: list[Optional[int]] = []
    for p, (i, d_i) in enumerate(survivors):
        for j, d_j in survivors[p:]:
            v = rows[i][j]
            if v is not None:
                v = 2 * v - d_i - d_j
                if v < 0:
                    return None
            upper.append(v)
    return upper, survivors, scale


def _scalar(value: Optional[int], scale: int) -> TropScalar:
    return INF if value is None else TropScalar(Fraction(value, scale))


def is_completely_positive(A: SymTropMatrix) -> bool:
    """True iff 2*A[i,j] >= A[i,i] + A[j,j] for all i, j (infinity greatest)."""
    return _zero_diagonal(A) is not None


def require_cp(A: SymTropMatrix) -> None:
    if not is_completely_positive(A):
        raise NotCompletelyPositiveError("matrix is not completely positive")


def is_normalized(A: SymTropMatrix, rows: Optional[list[list[Optional[int]]]] = None) -> bool:
    """Zero diagonal and nonnegative (or infinite) off-diagonal entries.

    `rows` are A's `scaled_rows` when the caller has them already."""
    return all(
        row[i] == 0 and all(v is None or v >= 0 for v in row)
        for i, row in enumerate(scaled_rows(A)[0] if rows is None else rows)
    )


def require_normalized(
    A: SymTropMatrix, rows: Optional[list[list[Optional[int]]]] = None
) -> None:
    if not is_normalized(A, rows):
        raise ValueError("matrix is not normalized (zero diagonal, entries >= 0)")


def _rank_one_factor(A: SymTropMatrix) -> Optional[TropVector]:
    """b with b (x) b^T = A, or None when A is CP but not of rank one.

    b_i = a_ii / 2 works exactly when the normalized matrix is all zero.
    """
    zero_diagonal = _zero_diagonal(A)
    if zero_diagonal is None:
        raise NotCompletelyPositiveError("matrix is not completely positive")
    upper, survivors, scale = zero_diagonal
    if any(v != 0 for v in upper):
        return None
    b = [INF] * A.n
    for i, d in survivors:
        b[i] = _scalar(d, 2 * scale)
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

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.shifts)

    def shift_of(self, original_index: int) -> Fraction:
        return dict(self.shifts)[original_index]

    def _grid(self, values: Iterable[TropScalar]) -> tuple[list[int], list[Optional[int]], int]:
        """The shifts and the values on one grid, and its scale."""
        rationals = (None if x.is_inf else x.finite for x in values)
        grid, scale = on_grid(itertools.chain((s for _, s in self.shifts), rationals))
        return grid[: len(self.shifts)], grid[len(self.shifts) :], scale

    def restore_matrix(self, C: SymTropMatrix) -> SymTropMatrix:
        """Rebuild the original matrix from its normalized form."""
        if C.n != len(self.shifts):
            raise ValueError("normalized matrix does not match this record")
        shift, entries, scale = self._grid(itertools.chain.from_iterable(C.rows()))
        pos = {orig: p for p, (orig, _) in enumerate(self.shifts)}

        def entry(i: int, j: int) -> TropScalar:
            v = entries[pos[i] * C.n + pos[j]] if i in pos and j in pos else None
            return INF if v is None else _scalar(v + shift[pos[i]] + shift[pos[j]], scale)

        return SymTropMatrix.from_upper_func(self.n, entry)

    def lift_factor(self, c: TropVector) -> TropVector:
        """Inverse-shift one factor of the normalized matrix.

        Adding the half-diagonal shift at each surviving coordinate (and
        inserting infinity at deleted ones) turns a factor of the normalized
        matrix into a factor of the original.
        """
        return self._lift([c])[0]

    def _lift(self, factors: Sequence[TropVector]) -> list[TropVector]:
        """`lift_factor` of each factor, all on one grid."""
        if any(len(c) != len(self.shifts) for c in factors):
            raise ValueError("factor length does not match this record")
        shift, values, scale = self._grid(itertools.chain.from_iterable(factors))
        lifted = []
        for k in range(0, len(values), len(shift)):
            entries: list[TropScalar] = [INF] * self.n
            for (orig, _), s, v in zip(self.shifts, shift, values[k : k + len(shift)]):
                entries[orig] = INF if v is None else _scalar(v + s, scale)
            lifted.append(TropVector(entries))
        return lifted


def normalize(A: SymTropMatrix) -> tuple[SymTropMatrix, NormalizationRecord]:
    """Delete infinite-diagonal rows/columns, then shift the diagonal to zero.

    Requires a CP input.  The result has zero diagonal and nonnegative
    off-diagonal entries; the returned record inverts the transform exactly
    and carries factor lifting.  CP-rank is unchanged by this transform.
    """
    zero_diagonal = _zero_diagonal(A)
    if zero_diagonal is None:
        raise NotCompletelyPositiveError("matrix is not completely positive")
    upper, survivors, scale = zero_diagonal
    if not survivors:
        raise ValueError("every diagonal entry is infinite; the normalized matrix would be empty")
    C = SymTropMatrix(len(survivors), [_scalar(v, 2 * scale) for v in upper])
    deleted = tuple(sorted(set(range(A.n)) - {i for i, _ in survivors}))
    shifts = tuple((i, Fraction(d, 2 * scale)) for i, d in survivors)
    return C, NormalizationRecord(A.n, deleted, shifts)


def lift_decomposition(d: Decomposition, record: NormalizationRecord) -> Decomposition:
    """Turn a decomposition of the normalized matrix into one of the original."""
    return Decomposition(record.restore_matrix(d.target), record._lift(d.factors))


def support(A: SymTropMatrix) -> SymTropMatrix:
    """The 0/1 matrix marking zero entries of A (infinity counts as nonzero)."""
    rows, one = scaled_rows(A)[0], TropScalar(1)
    return SymTropMatrix.from_upper_func(A.n, lambda i, j: ZERO if rows[i][j] == 0 else one)
