"""Exact min-plus (tropical) scalars, vectors, and symmetric matrices.

Every value is an exact rational (``fractions.Fraction``) or the
distinguished element infinity.  Tropical addition is ``min`` and has
infinity as its identity; tropical multiplication is ordinary rational
addition and absorbs infinity.  No floating point is used anywhere:
equality of entries decides graph edges downstream, so exactness is
load-bearing.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

Rationalish = Union["TropScalar", Fraction, int, str, float]


def _parse_value(value: Rationalish) -> Fraction | None:
    """Normalize a user-supplied value to Fraction, or None for infinity."""
    if isinstance(value, TropScalar):
        return value._v
    if value is None:
        return None
    if isinstance(value, float):
        if value == float("inf"):
            return None
        raise TypeError(
            f"refusing inexact float {value!r}; pass Fraction, int, or 'p/q' string"
        )
    if isinstance(value, str):
        token = value.strip()
        if token in ("inf", "Inf", "INF", "∞"):
            return None
        return Fraction(token)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a tropical scalar")


@functools.total_ordering
class TropScalar:
    """An exact rational or +infinity, ordered with infinity greatest."""

    __slots__ = ("_v",)

    def __init__(self, value: Rationalish):
        object.__setattr__(self, "_v", _parse_value(value))

    @property
    def is_inf(self) -> bool:
        return self._v is None

    @property
    def finite(self) -> Fraction:
        """The rational value; raises on infinity."""
        if self._v is None:
            raise ValueError("infinite tropical scalar has no finite value")
        return self._v

    # Tropical semiring operators: + is min, * is rational addition.
    def __add__(self, other) -> "TropScalar":
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v is None:
            return other
        if other._v is None:
            return self
        return TropScalar(self._v if self._v <= other._v else other._v)

    __radd__ = __add__

    def __mul__(self, other) -> "TropScalar":
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v is None or other._v is None:
            return INF
        return TropScalar(self._v + other._v)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v

    def __lt__(self, other) -> bool:
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v is None:
            return False
        if other._v is None:
            return True
        return self._v < other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __repr__(self) -> str:
        return f"TropScalar({self})"

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)


def _coerce(value: Rationalish) -> TropScalar:
    """A constructor entry as a scalar; None reads as inf, and another type
    `TropScalar` does not take raises TypeError."""
    return value if isinstance(value, TropScalar) else TropScalar(value)


def _operand(value) -> TropScalar:
    """An operator's other operand; NotImplemented for a type it does not take."""
    ok = isinstance(value, (TropScalar, int, Fraction, str, float))
    return _coerce(value) if ok else NotImplemented


#: The tropical additive identity (and multiplicative absorber).
INF = TropScalar("inf")
#: The tropical multiplicative identity.
ZERO = TropScalar(0)


def trop_add(x: Rationalish, y: Rationalish) -> TropScalar:
    """Tropical addition: min(x, y), with infinity as the identity."""
    return _coerce(x) + _coerce(y)


def trop_mul(x: Rationalish, y: Rationalish) -> TropScalar:
    """Tropical multiplication: x + y as rationals, infinity absorbing."""
    return _coerce(x) * _coerce(y)


class TropVector(Sequence):
    """An immutable fixed-length vector of tropical scalars."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Rationalish]):
        items = tuple(_coerce(e) for e in entries)
        if not items:
            raise ValueError("tropical vectors must have length >= 1")
        object.__setattr__(self, "_entries", items)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i):
        return self._entries[i]

    def __iter__(self) -> Iterator[TropScalar]:
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return "TropVector([" + ", ".join(str(e) for e in self._entries) + "])"


def _upper_size(n: int) -> int:
    return n * (n + 1) // 2


class SymTropMatrix:
    """A symmetric n x n tropical matrix; only the upper triangle is stored.

    Construction from full rows rejects asymmetric input (it is an error,
    not something to symmetrize silently).
    """

    __slots__ = ("n", "_upper")

    def __init__(self, n: int, upper: Sequence[Rationalish]):
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        upper = tuple(map(_coerce, upper))
        if len(upper) != _upper_size(n):
            raise ValueError(
                f"expected {_upper_size(n)} upper-triangle entries, got {len(upper)}"
            )
        self.n = n
        self._upper = upper

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rationalish]]) -> "SymTropMatrix":
        n = len(rows)
        coerced = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(
                    f"row {i + 1} has {len(row)} entries, expected {n}"
                )
            coerced.append([_coerce(e) for e in row])
        for i in range(n):
            for j in range(i + 1, n):
                if coerced[i][j]._v != coerced[j][i]._v:
                    raise ValueError(
                        f"asymmetric input: entry ({i + 1},{j + 1}) = "
                        f"{coerced[i][j]} but ({j + 1},{i + 1}) = {coerced[j][i]}"
                    )
        upper = [coerced[i][j] for i in range(n) for j in range(i, n)]
        return cls(n, upper)

    @classmethod
    def from_upper_func(cls, n: int, entry) -> "SymTropMatrix":
        """Build from a callable entry(i, j) defined for 0 <= i <= j < n."""
        return cls(n, [entry(i, j) for i in range(n) for j in range(i, n)])

    @classmethod
    def zeros(cls, n: int) -> "SymTropMatrix":
        return cls(n, [ZERO] * _upper_size(n))

    @classmethod
    def filled(cls, n: int, value: Rationalish) -> "SymTropMatrix":
        return cls(n, [_coerce(value)] * _upper_size(n))

    def _idx(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.n - i * (i - 1) // 2 + (j - i)

    def __getitem__(self, key) -> TropScalar:
        i, j = key
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i},{j}) out of range for n={self.n}")
        return self._upper[self._idx(i, j)]

    def rows(self) -> list[list[TropScalar]]:
        return [[self[i, j] for j in range(self.n)] for i in range(self.n)]

    def upper_entries(self) -> Iterator[tuple[int, int, TropScalar]]:
        """Yield (i, j, value) for 0 <= i <= j < n."""
        for i in range(self.n):
            for j in range(i, self.n):
                yield i, j, self._upper[self._idx(i, j)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTropMatrix):
            return NotImplemented
        return self.n == other.n and self._upper == other._upper

    def __hash__(self) -> int:
        return hash((self.n, self._upper))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in row) for row in self.rows()
        )
        return f"SymTropMatrix[{body}]"


def rank_one_product(b: TropVector) -> SymTropMatrix:
    """The symmetric outer product M with M[k, l] = b[k] * b[l] (tropically)."""
    return SymTropMatrix.from_upper_func(len(b), lambda i, j: b[i] * b[j])


def trop_matrix_sum(ms: Sequence[SymTropMatrix]) -> SymTropMatrix:
    """Entrywise tropical sum (minimum) of same-dimension matrices."""
    if not ms:
        raise ValueError("tropical sum of no matrices needs an explicit dimension")
    n = ms[0].n
    for m in ms[1:]:
        if m.n != n:
            raise ValueError(f"dimension mismatch: {m.n} != {n}")
    return SymTropMatrix.from_upper_func(n, lambda i, j: min(m[i, j] for m in ms))


def reconstruct(factors: Sequence[TropVector], n: int) -> SymTropMatrix:
    """Tropical sum of the factors' rank-one products; all-infinity if empty."""
    if not factors:
        return SymTropMatrix.filled(n, INF)
    return trop_matrix_sum([rank_one_product(b) for b in factors])


def on_grid(values: Iterable[Optional[Fraction]]) -> tuple[list[Optional[int]], int]:
    """Each value times the lcm of the values' denominators, and that lcm (the scale).

    None (inf) stays None; scaling keeps every sum, order and equality.
    """
    values = list(values)
    scale = math.lcm(1, *{v.denominator for v in values if v is not None})
    return [None if v is None else v.numerator * (scale // v.denominator) for v in values], scale


def scaled_rows(
    A: SymTropMatrix, vectors: Sequence[Sequence[TropScalar]] = ()
) -> tuple[list[list[Optional[int]]], list[list[Optional[int]]], int]:
    """A's full rows and the vectors on one `on_grid` grid, and its scale.

    The exact integer form past the API boundary: the CP check, normalization
    and lifting, pattern graphs, the search kernels, merge pass and verifier.
    """
    grid, scale = on_grid(
        itertools.chain((e._v for e in A._upper), *((e._v for e in vec) for vec in vectors))
    )
    stored = iter(grid)  # the upper triangle row by row, then each vector
    rows: list[list[Optional[int]]] = []
    for i in range(A.n):
        rows.append([row[i] for row in rows] + [next(stored) for _ in range(i, A.n)])
    return rows, [[next(stored) for _ in vec] for vec in vectors], scale


def is_exact_decomposition(
    target: SymTropMatrix, factors: Sequence[TropVector]
) -> bool:
    """True iff the factors' tropical sum equals the target entrywise.

    Agrees with ``reconstruct(factors, target.n) == target`` (and is False
    for a factor of the wrong length) without building any matrix: on the
    integer grid of `scaled_rows`, each upper entry (i, j) is compared with
    the minimum of b_i + b_j over the factors finite at both i and j,
    stopping at the first mismatch.
    """
    n = target.n
    if any(len(b) != n for b in factors):
        return False
    rows, vecs, _ = scaled_rows(target, factors)
    # coordinate -> (per-factor scaled values, bitmask of factors finite there)
    columns = []
    for i in range(n):
        col = [vec[i] for vec in vecs]
        mask = sum(1 << f for f, x in enumerate(col) if x is not None)
        columns.append((col, mask))
    for i, (col_i, mask_i) in enumerate(columns):
        for (col_j, mask_j), entry in zip(columns[i:], rows[i][i:]):
            m = mask_i & mask_j
            best = None
            while m:
                f = (m & -m).bit_length() - 1
                m &= m - 1
                s = col_i[f] + col_j[f]
                if best is None or s < best:
                    best = s
            if best != entry:
                return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """A verified tropical rank-one decomposition of a symmetric matrix.

    The constructor enforces the defining invariant: the entrywise minimum
    of the rank-one products of the factors equals the target exactly.
    """

    target: SymTropMatrix
    factors: tuple[TropVector, ...]

    def __init__(self, target: SymTropMatrix, factors: Iterable[TropVector]):
        factors = tuple(factors)
        for b in factors:
            if len(b) != target.n:
                raise ValueError(
                    f"factor length {len(b)} does not match dimension {target.n}"
                )
        if not is_exact_decomposition(target, factors):
            raise ValueError("factors do not reconstruct the target matrix")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return len(self.factors)


def verify_decomposition(d: Decomposition) -> bool:
    """Recheck a decomposition's reconstruction identity from scratch."""
    return is_exact_decomposition(d.target, d.factors)
