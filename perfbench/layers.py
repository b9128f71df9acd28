"""The traced chain: each CLI operation replayed through tropcp's public layer calls.

``Tracer`` keeps spans in memory.  A chain function mirrors one CLI
command (``cmd_rank``, ``cmd_bound``, ``cmd_decompose`` in
``tropcp/cli.py``): it calls the same public functions in the same order
and times each call from here.  Calls that happen inside the library
(``cp_rank_exact`` calling ``rank_lower_bound`` and ``cp_rank_leq``, a
``Decomposition`` verifying itself, ...) are timed by wrappers that
``Tracer.patched`` installs on the module attributes the library looks up
at call time; nothing in ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Optional

import tropcp.analysis
import tropcp.core
import tropcp.decompose
import tropcp.rank
import tropcp.reports
from tropcp.analysis import is_completely_positive, normalize
from tropcp.cli import build_parser
from tropcp.decompose import decompose_cp
from tropcp.formats import parse_matrix
from tropcp.graphs import cp_rank_upper_bound, min_cover_bound, pattern_graph
from tropcp.rank import cp_rank_exact
from tropcp.reports import (
    dump_report,
    embed_decomposition,
    load_decomposition,
    make_report,
    matrix_digest,
)

# span name -> per-layer metric (seconds per pass of the instance set)
SPAN_METRICS = {
    "cli.args": "cli.args_s",
    "formats.parse": "formats.parse_s",
    "formats.render": "formats.render_s",
    "analysis.check": "analysis.check_s",
    "analysis.normalize": "analysis.normalize_s",
    "analysis.lift": "analysis.lift_s",
    "graphs.pattern": "graphs.pattern_s",
    "graphs.cc": "graphs.cc_s",
    "graphs.min_clique_cover": "graphs.min_clique_cover_s",
    "graphs.min_cover_bound": "graphs.min_cover_bound_s",
    "graphs.upper_bound": "graphs.upper_bound_s",
    "rank.lower_bound": "rank.lower_bound_s",
    "rank.leq.found": "rank.leq_found_s",
    "rank.leq.refuted": "rank.leq_refuted_s",
    "decompose.construct": "decompose.construct_s",
    "core.verify": "core.verify_s",
    "reports.embed": "reports.embed_s",
    "reports.dump": "reports.dump_s",
    "reports.load": "reports.load_s",
}
TAIL_MODES = ("empty", "closed-form", "pairs", "search")
# deterministic counters: identical on every pass and every traced run
COUNTERS = (
    "rank.nodes",
    "rank.skeletons",
    "rank.refuted_branches",
    "rank.leq_calls",
    "rank.feasibility_calls",
    "decompose.factors",
    "decompose.bound",
    *(f"decompose.tail.{m}" for m in TAIL_MODES),
)


class Tracer:
    """Spans (op, name, start, end, enclosing span names) plus exact counters."""

    def __init__(self) -> None:
        self.op: Optional[int] = None
        self.stack: list[str] = []
        self.spans: list[tuple[Optional[int], str, float, float, tuple[str, ...]]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.feasibility_s = 0.0

    def call(self, name: str, fn, *args, rename=None, **kwargs):
        """Run fn as a span; a call nested in a span of the same name is not recorded."""
        if name in self.stack:
            return fn(*args, **kwargs)
        ancestors = tuple(self.stack)
        self.stack.append(name)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            final = rename(result) if rename is not None and result is not None else name
            self.spans.append((self.op, final, start, end, ancestors))

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _leq(self, fn):
        def wrapper(*args, **kwargs):
            if "rank.leq" in self.stack:
                return fn(*args, **kwargs)
            outcome = self.call(
                "rank.leq", fn, *args, rename=lambda o: f"rank.leq.{o.status}", **kwargs
            )
            self.counts["rank.leq_calls"] += 1
            self.counts["rank.nodes"] += outcome.stats.nodes
            self.counts["rank.skeletons"] += outcome.stats.skeletons
            self.counts["rank.refuted_branches"] += outcome.stats.refuted_branches
            return outcome

        return wrapper

    def _feasibility(self, fn):
        def wrapper(system):
            start = time.perf_counter()
            try:
                return fn(system)
            finally:
                self.feasibility_s += time.perf_counter() - start
                self.counts["rank.feasibility_calls"] += 1

        return wrapper

    def _construct(self, fn):
        def wrapper(*args, **kwargs):
            dec, (plan, achieved, tail_mode) = result = self.call(
                "decompose.construct", fn, *args, **kwargs
            )
            self.counts["decompose.factors"] += dec.rank
            self.counts[f"decompose.tail.{tail_mode}"] += 1
            return result

        return wrapper

    def _cover(self, fn):
        def wrapper(*args, **kwargs):
            cover, bound = result = self.call("graphs.min_cover_bound", fn, *args, **kwargs)
            self.counts["decompose.bound"] += bound
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, feasibility: bool):
        """Install the span wrappers on the attributes tropcp looks up at call time.

        With ``feasibility`` false, ``solve_factor_system`` stays unwrapped:
        in a parallel search it runs in worker processes, whose counts this
        process never sees.
        """
        R, A, D, C, P = (
            tropcp.rank,
            tropcp.analysis,
            tropcp.decompose,
            tropcp.core,
            tropcp.reports,
        )
        patches = [
            (R, "is_completely_positive", self._wrap("analysis.check", R.is_completely_positive)),
            (R, "normalize", self._wrap("analysis.normalize", R.normalize)),
            (R, "lift_decomposition", self._wrap("analysis.lift", R.lift_decomposition)),
            (R, "rank_lower_bound", self._wrap("rank.lower_bound", R.rank_lower_bound)),
            (R, "pattern_graph", self._wrap("graphs.pattern", R.pattern_graph)),
            (R, "edge_clique_cover_number", self._wrap("graphs.cc", R.edge_clique_cover_number)),
            (R, "min_clique_cover_size", self._wrap("graphs.min_clique_cover", R.min_clique_cover_size)),
            (R, "cp_rank_leq", self._leq(R.cp_rank_leq)),
            # decompose_cp imports these from tropcp.analysis at call time
            (A, "normalize", self._wrap("analysis.normalize", A.normalize)),
            (A, "lift_decomposition", self._wrap("analysis.lift", A.lift_decomposition)),
            (D, "pattern_graph", self._wrap("graphs.pattern", D.pattern_graph)),
            (D, "min_cover_bound", self._cover(D.min_cover_bound)),
            (D, "construct_decomposition_detailed", self._construct(D.construct_decomposition_detailed)),
            (C, "is_exact_decomposition", self._wrap("core.verify", C.is_exact_decomposition)),
            (P, "render_matrix", self._wrap("formats.render", P.render_matrix)),
            (P, "render_vector", self._wrap("formats.render", P.render_vector)),
        ]
        if feasibility:
            patches.append((R, "solve_factor_system", self._feasibility(R.solve_factor_system)))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def span_seconds(self) -> dict[str, float]:
        """Total time per metric, leaving out work done while reloading outputs."""
        out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        for _, name, start, end, ancestors in self.spans:
            if name in SPAN_METRICS and "reports.load" not in ancestors:
                out[SPAN_METRICS[name]] += end - start
        out["rank.leq_s"] = sum(
            end - start
            for _, name, start, end, ancestors in self.spans
            if name.startswith("rank.leq.") and "reports.load" not in ancestors
        )
        return out


def _read(tr: Tracer, args):
    return tr.call("formats.parse", parse_matrix, Path(args.matrix).read_text())


def _write(tr: Tracer, args, report: dict) -> None:
    Path(args.out).write_text(tr.call("reports.dump", dump_report, report))


def chain_rank(tr: Tracer, args) -> tuple[int, dict]:
    """cmd_rank as public calls."""
    A = _read(tr, args)
    start = time.monotonic()
    rank, cert = cp_rank_exact(
        A,
        r_max=args.max_r,
        node_limit=args.node_limit,
        timeout_s=args.timeout_s,
        threads=args.threads,
    )
    payload = {
        "status": cert.status,
        "rank": ("inf" if rank == float("inf") else rank),
        "refuted": list(cert.refuted),
        "undetermined_at": cert.undetermined_at,
    }
    if cert.decomposition is not None:
        payload["decomposition"] = tr.call(
            "reports.embed", embed_decomposition, cert.decomposition
        )
    report = make_report(
        "rank",
        matrix_digest(A),
        payload,
        refuted=bool(cert.refuted),
        undetermined=cert.status == "undetermined",
        timing_s=time.monotonic() - start,
        stats=cert.stats,
    )
    _write(tr, args, report)
    code = {"undetermined": 3, "not_cp": 1}.get(cert.status, 0)
    return code, report


def chain_bound(tr: Tracer, args) -> tuple[int, Optional[dict]]:
    """cmd_bound as public calls."""
    A = _read(tr, args)
    if not tr.call("analysis.check", is_completely_positive, A):
        return 1, None
    start = time.monotonic()
    C, _ = tr.call("analysis.normalize", normalize, A)
    G = tr.call("graphs.pattern", pattern_graph, C)
    cover, bound = tr.call("graphs.min_cover_bound", min_cover_bound, G)
    ub = tr.call("graphs.upper_bound", cp_rank_upper_bound, C)
    report = make_report(
        "bound",
        matrix_digest(A),
        {
            "upper_bound": ub,
            "cover_bound": bound,
            "cover": [[v + 1 for v in c] for c in cover.cliques],
            "empty_pattern_exception": ub != bound,
        },
        timing_s=time.monotonic() - start,
    )
    _write(tr, args, report)
    return 0, report


def chain_decompose(tr: Tracer, args) -> tuple[int, Optional[dict]]:
    """cmd_decompose as public calls."""
    A = _read(tr, args)
    if not tr.call("analysis.check", is_completely_positive, A):
        return 1, None
    start = time.monotonic()
    dec = decompose_cp(A)
    report = make_report(
        "decompose",
        matrix_digest(A),
        {
            "decomposition": tr.call("reports.embed", embed_decomposition, dec),
            "factor_count": dec.rank,
            "verified": True,
        },
        timing_s=time.monotonic() - start,
    )
    _write(tr, args, report)
    return 0, report


CHAINS = {"rank": chain_rank, "bound": chain_bound, "decompose": chain_decompose}


def chain(tr: Tracer, argv: list[str]) -> tuple[int, Optional[dict]]:
    """One CLI operation through the traced chain: (exit code, report or None)."""
    args = tr.call("cli.args", lambda: build_parser().parse_args(argv))
    return CHAINS[args.command](tr, args)


def reload(tr: Tracer, report: Optional[dict]) -> None:
    """Time the certificate reload (it re-verifies) that the output check also does."""
    embedded = (report or {}).get("payload", {}).get("decomposition")
    if embedded is not None:
        tr.call("reports.load", load_decomposition, embedded)


# report fields the chain must reproduce, besides the certificate's factor count
SAME_FIELDS = {
    "rank": ("status", "rank", "refuted", "undetermined_at"),
    "bound": ("upper_bound", "cover_bound"),
    "decompose": ("factor_count",),
}


def same_result(command: str, cli: Optional[dict], chain: Optional[dict]) -> Optional[str]:
    """None when the chain reproduced the CLI operation's result, else why not."""
    if cli is None or chain is None:
        return None if cli is chain else "one side wrote no report"
    if command == "rank" and any(
        cli["stats"][k] != chain["stats"][k] for k in ("nodes", "skeletons", "refuted_branches")
    ):
        return "search counters differ"
    a, b = cli["payload"], chain["payload"]
    for k in SAME_FIELDS[command]:
        if a[k] != b[k]:
            return f"{k}: CLI {a[k]!r}, chain {b[k]!r}"
    fa, fb = (p.get("decomposition", {}).get("rank") for p in (a, b))
    if fa != fb:
        return f"factor count: CLI {fa}, chain {fb}"
    return None
