"""Bit-exact text formats for matrices, vectors, and graphs.

Matrix files: first line is n, then n rows of n whitespace-separated
tokens.  A token is ``inf``, an integer, ``p/q``, or a finite decimal;
all parse to exact rationals.  Graph files: first line ``n m``, then m
lines ``i j`` with 1-based endpoints.  Rendering is canonical (lowest
terms, ``p/q`` for non-integers), so parse(render(x)) == x.
"""

from __future__ import annotations

from fractions import Fraction

from .core import SymTropMatrix, TropScalar, TropVector
from .graphs import PatternGraph


class ParseError(ValueError):
    """Malformed input, with a human-readable location in the message."""


def _parse_token(token: str, where: str) -> TropScalar:
    if token == "inf":
        return TropScalar("inf")
    try:
        return TropScalar(int(token) if token.isascii() and token.isdigit() else Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad token {token!r} at {where}") from None


def parse_matrix(text: str) -> SymTropMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"bad dimension line {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"dimension must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    parsed: dict[str, TropScalar] = {}  # each distinct token once; scalars are immutable
    for r, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"row {r} has {len(tokens)} entries, expected {n}")
        row = []
        for c, t in enumerate(tokens, 1):
            e = parsed.get(t)
            if e is None:
                e = parsed[t] = _parse_token(t, f"row {r}, column {c}")
            row.append(e)
        rows.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if a is not b and a._v != b._v:
                raise ParseError(
                    f"asymmetric entries at ({i + 1},{j + 1}) and ({j + 1},{i + 1}): {a} != {b}"
                )
    return SymTropMatrix(n, [rows[i][j] for i in range(n) for j in range(i, n)])


def render_matrix(A: SymTropMatrix) -> str:
    """n, then the rows; each stored upper entry is formatted once."""
    n, texts = A.n, [str(e) for e in A._upper]
    rows: list[list[str]] = []
    start = 0
    for i in range(n):
        # the column above the diagonal from the rows so far, then row i's stored part
        rows.append([row[i] for row in rows] + texts[start:start + n - i])
        start += n - i
    return "\n".join([str(n)] + [" ".join(row) for row in rows]) + "\n"


def parse_vector(text: str) -> TropVector:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty vector")
    return TropVector(
        [_parse_token(t, f"position {p}") for p, t in enumerate(tokens, 1)]
    )


def render_vector(v: TropVector) -> str:
    return " ".join(str(e) for e in v)


def parse_graph(text: str) -> PatternGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise ParseError(f"edge count must be >= 0, got {m}")
    if len(lines) != m + 1:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for idx, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"edge line {idx} is not 'i j': {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad endpoints on edge line {idx}: {line!r}") from None
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ParseError(f"invalid edge ({a},{b}) on line {idx} for n={n}")
        edges.append((a - 1, b - 1))
    return PatternGraph(n, edges)


def render_graph(G: PatternGraph) -> str:
    edges = sorted(G.edges)
    lines = [f"{G.n} {len(edges)}"]
    for a, b in edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
