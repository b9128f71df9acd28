"""Command-line interface.

Subcommands: check, normalize, graph, bound, decompose, rank, cc, witness,
gen, selftest.  Commands print a versioned JSON report (or a raw matrix /
graph file where noted) and exit 0 on success, 1 when the tested property
is false (e.g. not completely positive), 2 on usage or input errors, and 3
when a search ended undetermined under its resource guard.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .analysis import NotCompletelyPositiveError, is_completely_positive, normalize
from .decompose import decompose_cp_detailed
from .formats import (
    ParseError,
    parse_graph,
    parse_matrix,
    render_graph,
    render_matrix,
)
from .generators import generate_instance
from .graphs import (
    diameter,
    diameter_witness_matrix,
    edge_clique_cover_number,
    is_small_empty_pattern,
    min_cover_bound,
    pattern_graph,
)
from .rank import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIMEOUT_S,
    cp_rank_exact,
)
from .reports import dump_report, embed_decomposition, make_report, matrix_digest
from .selftest import run_selftest

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3


class _InputError(Exception):
    pass


def _read(path: str, parse):
    """The file at `path`, parsed; an unreadable or malformed file is an input error."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except ParseError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _normalizing(fn, A):
    """fn(A), for an fn that normalizes A; an all-infinite diagonal is an input error.

    NotCompletelyPositiveError, a ValueError, passes on to main, which exits 1.
    """
    try:
        return fn(A)
    except NotCompletelyPositiveError:
        raise
    except ValueError as exc:  # every diagonal entry is infinite
        raise _InputError(str(exc)) from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _InputError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    A = _read(args.matrix, parse_matrix)
    start = time.monotonic()
    cp = is_completely_positive(A)
    report = make_report(
        "check",
        matrix_digest(A),
        {"completely_positive": cp, "n": A.n},
        timing_s=time.monotonic() - start,
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK if cp else EXIT_PROPERTY_FALSE


def cmd_normalize(args) -> int:
    A = _read(args.matrix, parse_matrix)
    start = time.monotonic()
    C, record = _normalizing(normalize, A)
    if args.raw:
        _emit(render_matrix(C), args.out)
        return EXIT_OK
    report = make_report(
        "normalize",
        matrix_digest(A),
        {
            "normalized": render_matrix(C),
            "deleted_indices": [i + 1 for i in record.deleted],
            "shifts": {str(i + 1): str(s) for i, s in record.shifts},
        },
        timing_s=time.monotonic() - start,
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    A = _read(args.matrix, parse_matrix)
    start = time.monotonic()
    G = pattern_graph(A)
    diam = diameter(G)
    if args.raw:
        _emit(render_graph(G), args.out)
        return EXIT_OK
    report = make_report(
        "graph",
        matrix_digest(A),
        {
            "graph": render_graph(G),
            "n": G.n,
            "edge_count": len(G.edges),
            "diameter": "inf" if diam == float("inf") else int(diam),
        },
        timing_s=time.monotonic() - start,
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    A = _read(args.matrix, parse_matrix)
    start = time.monotonic()
    C, record = _normalizing(normalize, A)
    G = pattern_graph(C)
    cover, bound = min_cover_bound(G)
    # cp_rank_upper_bound, reusing this cover search
    ub = G.n if is_small_empty_pattern(G) else bound
    report = make_report(
        "bound",
        matrix_digest(A),
        {
            "upper_bound": ub,
            "cover_bound": bound,
            # in the input's numbering: normalize drops infinite-diagonal rows
            "cover": [[record.survivors[v] + 1 for v in c] for c in cover.cliques],
            "empty_pattern_exception": ub != bound,
        },
        timing_s=time.monotonic() - start,
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    A = _read(args.matrix, parse_matrix)
    start = time.monotonic()
    dec, (_, blocks, tail_mode) = _normalizing(decompose_cp_detailed, A)
    report = make_report(
        "decompose",
        matrix_digest(A),
        {
            "decomposition": embed_decomposition(dec),
            "factor_count": dec.rank,
            "verified": True,
            "blocks": list(blocks),
            "tail_mode": tail_mode,
        },
        timing_s=time.monotonic() - start,
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    A = _read(args.matrix, parse_matrix)
    start = time.monotonic()
    try:
        rank, cert = cp_rank_exact(
            A,
            r_max=args.max_r,
            node_limit=args.node_limit,
            timeout_s=args.timeout_s,
        )
    except ValueError as exc:  # a negative guard, or a NaN --timeout-s
        raise _InputError(str(exc)) from None
    payload = {
        "status": cert.status,
        "rank": ("inf" if rank == float("inf") else rank),
        "refuted": list(cert.refuted),
        "refuted_by": list(cert.refuted_by),
        "undetermined_at": cert.undetermined_at,
    }
    if cert.decomposition is not None:
        payload["decomposition"] = embed_decomposition(cert.decomposition)
    report = make_report(
        "rank",
        matrix_digest(A),
        payload,
        refuted=bool(cert.refuted),
        undetermined=cert.status == "undetermined",
        timing_s=time.monotonic() - start,
        stats=cert.stats,
    )
    _emit(dump_report(report), args.out)
    if cert.status == "undetermined":
        return EXIT_UNDETERMINED
    if cert.status == "not_cp":
        return EXIT_PROPERTY_FALSE
    return EXIT_OK


def cmd_cc(args) -> int:
    G = _read(args.graph, parse_graph)
    start = time.monotonic()
    cc, cover = edge_clique_cover_number(G)
    report = make_report(
        "cc",
        "",
        {
            "edge_clique_cover_number": cc,
            "cliques": [[v + 1 for v in c] for c in cover.cliques],
            "n": G.n,
            "edge_count": len(G.edges),
        },
        timing_s=time.monotonic() - start,
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    G = _read(args.graph, parse_graph)
    u, v = args.u - 1, args.v - 1
    try:
        W = diameter_witness_matrix(G, u, v)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if args.raw:
        _emit(render_matrix(W), args.out)
        return EXIT_OK
    report = make_report(
        "witness",
        matrix_digest(W),
        {"matrix": render_matrix(W), "pair": [args.u, args.v]},
    )
    _emit(dump_report(report), args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    G = _read(args.graph, parse_graph)
    try:
        A = generate_instance(
            G,
            args.seed,
            max_numerator=args.max_numerator,
            max_denominator=args.max_denominator,
            inf_probability=args.inf_probability,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if args.report:
        report = make_report(
            "gen",
            matrix_digest(A),
            {"matrix": render_matrix(A), "seed": args.seed},
        )
        _emit(dump_report(report), args.out)
    else:
        _emit(render_matrix(A), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = run_selftest(print)
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcp",
        description="Completely positive matrices over the min-plus semiring.",
    )
    parser.add_argument("--version", action="version", version=f"tropcp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("check", cmd_check, "test complete positivity")
    p.add_argument("matrix")

    p = add("normalize", cmd_normalize, "zero-diagonal normalization")
    p.add_argument("matrix")
    p.add_argument("--raw", action="store_true", help="print the matrix file only")

    p = add("graph", cmd_graph, "pattern graph and diameter")
    p.add_argument("matrix")
    p.add_argument("--raw", action="store_true", help="print the graph file only")

    p = add("bound", cmd_bound, "minimum clique-cover rank bound")
    p.add_argument("matrix")

    p = add("decompose", cmd_decompose, "constructive rank-one decomposition")
    p.add_argument("matrix")

    p = add("rank", cmd_rank, "exact CP-rank by complete search")
    p.add_argument("matrix")
    p.add_argument("--max-r", type=int, default=None, help="stop after this r")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="deprecated: accepted and ignored; the search runs serially",
    )

    p = add("cc", cmd_cc, "exact edge clique cover number")
    p.add_argument("graph")

    p = add("witness", cmd_witness, "distance witness matrix for a non-edge pair")
    p.add_argument("graph")
    p.add_argument("u", type=int, help="1-based vertex")
    p.add_argument("v", type=int, help="1-based vertex")
    p.add_argument("--raw", action="store_true", help="print the matrix file only")

    p = add("gen", cmd_gen, "random normalized CP instance with a given pattern")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-numerator", type=int, default=6)
    p.add_argument("--max-denominator", type=int, default=3)
    p.add_argument("--inf-probability", type=float, default=0.0)
    p.add_argument("--report", action="store_true", help="emit a JSON report")

    add("selftest", cmd_selftest, "run the bundled example corpus")

    return parser


# built once: parse_args leaves the parser as it was, and no default depends
# on the environment
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotCompletelyPositiveError:
        print("input is not completely positive", file=sys.stderr)
        return EXIT_PROPERTY_FALSE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
