"""Versioned JSON reports with machine re-verifiable certificates."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from .core import Decomposition, SymTropMatrix
from .formats import parse_matrix, parse_vector, render_matrix, render_vector
from .rank import SearchStats

SCHEMA = "tropcp-report/1"


def matrix_digest(A: SymTropMatrix) -> str:
    return text_digest(render_matrix(A))


def text_digest(text: str) -> str:
    """The digest of a rendered matrix, as `matrix_digest` of the matrix."""
    return hashlib.sha256(text.encode()).hexdigest()


def embed_decomposition(dec: Decomposition) -> dict[str, Any]:
    """Store a decomposition in the matrix token grammar for later re-verification."""
    return {
        "target": render_matrix(dec.target),
        "factors": [render_vector(f) for f in dec.factors],
        "rank": dec.rank,
    }


def load_decomposition(payload: dict[str, Any]) -> Decomposition:
    """Rebuild an embedded decomposition; the constructor re-verifies it."""
    target = parse_matrix(payload["target"])
    factors = [parse_vector(f) for f in payload["factors"]]
    return Decomposition(target, factors)


def stats_payload(stats: Optional[SearchStats]) -> Optional[dict[str, Any]]:
    if stats is None:
        return None
    return {
        "nodes": stats.nodes,
        "skeletons": stats.skeletons,
        "refuted_branches": stats.refuted_branches,
        "wall_time_s": stats.wall_time,
    }


def make_report(
    operation: str,
    input_digest: str,
    payload: dict[str, Any],
    *,
    refuted: bool = False,
    undetermined: bool = False,
    timing_s: Optional[float] = None,
    stats: Optional[SearchStats] = None,
) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "operation": operation,
        "input_digest": input_digest,
        "payload": payload,
        "flags": {"refuted": refuted, "undetermined": undetermined},
        "timing_s": timing_s,
        "stats": stats_payload(stats),
    }


def dump_report(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
