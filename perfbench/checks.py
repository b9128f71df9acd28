"""Output checks for one benchmark operation.

Each check returns None when the output is right and a one-line reason
otherwise.  The pinned values come from the operation's catalogue entry.
"""

from __future__ import annotations

from typing import Optional

from tropcp.formats import parse_matrix
from tropcp.reports import load_decomposition


def _check_certificate(embedded: dict, rank: int, input_text: str) -> Optional[str]:
    """The embedded certificate reloads (re-verifying), has `rank` factors and targets the input."""
    try:
        dec = load_decomposition(embedded)
    except ValueError as exc:
        return f"certificate does not reload: {exc}"
    if dec.rank != rank or embedded.get("rank") != rank:
        return f"certificate has {dec.rank} factors, expected {rank}"
    if dec.target != parse_matrix(input_text):
        return "certificate targets another matrix"
    return None


def check_rank(expect: dict, code: int, report: Optional[dict], input_text: str) -> Optional[str]:
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if report is None:
        return "no report written"
    payload = report["payload"]
    if payload["status"] != expect["status"]:
        return f"status {payload['status']!r}, expected {expect['status']!r}"
    if expect["status"] == "not_cp":
        return None if payload["rank"] == "inf" else f"rank {payload['rank']!r} for a non-CP input"
    rank = payload["rank"]
    if rank != expect["rank"]:
        return f"rank {rank}, pinned {expect['rank']}"
    refuted = payload["refuted"]
    if refuted != list(range(rank - len(refuted), rank)):
        return f"refuted {refuted} is not a run ending at {rank - 1}"
    if "decomposition" not in payload:
        return "no certificate embedded"
    return _check_certificate(payload["decomposition"], rank, input_text)


def check_bound(expect: dict, code: int, report: Optional[dict], input_text: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    if report is None:
        return "no report written"
    ub = report["payload"]["upper_bound"]
    if ub != expect["upper_bound"]:
        return f"upper_bound {ub}, pinned {expect['upper_bound']}"
    return None


def check_decompose(expect: dict, code: int, report: Optional[dict], input_text: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    if report is None:
        return "no report written"
    payload = report["payload"]
    if payload.get("verified") is not True:
        return "decomposition not marked verified"
    return _check_certificate(payload["decomposition"], payload["factor_count"], input_text)


CHECKS = {"rank": check_rank, "bound": check_bound, "decompose": check_decompose}
