"""Command-line interface.

Subcommands: check, normalize, graph, bound, decompose, rank, cc, witness,
gen, selftest.  Every subcommand takes one path, `_run`: it reads and parses
the input file, times the command on it, and writes what the command returns
to `--out` or stdout: raw file text, or a payload it wraps in a versioned
JSON report.  `main` maps errors to exit codes in one place.  The codes are
0 on success, 1 when the tested property is false (e.g. not completely
positive), 2 on usage or input errors, and 3 when a search ended
undetermined under its resource guard.
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
    prepare_instance,
)
from .reports import dump_report, embed_decomposition, make_report, matrix_digest
from .selftest import run_selftest

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3

# the input positional of a subcommand -> its file parser
_PARSERS = {"matrix": parse_matrix, "graph": parse_graph}


def _read(path: str, parse):
    """The file at `path`, parsed; the errors name the file."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise OSError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    """Run one subcommand: read its input, time it, write its text or report.

    A command returns (exit code, body) or (exit code, body, overrides).
    A str body is written as it is.  A dict body is the payload of a report
    that names the input matrix by digest (a graph input names none) and
    records the command's time; `overrides` replaces these make_report
    arguments or sets the others (flags and search stats).
    """
    data = _read(getattr(args, args.reads), _PARSERS[args.reads]) if args.reads else None
    start = time.monotonic()
    code, body, *overrides = args.fn(data, args)
    if isinstance(body, dict):
        fields = {
            "input_digest": matrix_digest(data) if args.reads == "matrix" else "",
            "timing_s": time.monotonic() - start,
        }
        fields.update(*overrides)
        body = dump_report(make_report(args.command, payload=body, **fields))
    _emit(body, args.out)
    return code


def _generated(M, raw: bool, payload: dict):
    """A graph command's generated matrix: its file, or an untimed report naming it."""
    if raw:
        return EXIT_OK, render_matrix(M)
    payload["matrix"] = render_matrix(M)
    return EXIT_OK, payload, {"input_digest": matrix_digest(M), "timing_s": None}


def cmd_check(A, args):
    cp = is_completely_positive(A)
    return (EXIT_OK if cp else EXIT_PROPERTY_FALSE), {"completely_positive": cp, "n": A.n}


def cmd_normalize(A, args):
    C, record = normalize(A)
    if args.raw:
        return EXIT_OK, render_matrix(C)
    return EXIT_OK, {
        "normalized": render_matrix(C),
        "deleted_indices": [i + 1 for i in record.deleted],
        "shifts": {str(i + 1): str(s) for i, s in record.shifts},
    }


def cmd_graph(A, args):
    G = pattern_graph(A)
    if args.raw:
        return EXIT_OK, render_graph(G)
    diam = diameter(G)
    return EXIT_OK, {
        "graph": render_graph(G),
        "n": G.n,
        "edge_count": len(G.edges),
        "diameter": "inf" if diam == float("inf") else int(diam),
    }


def cmd_bound(A, args):
    P = prepare_instance(A)
    cover, bound = min_cover_bound(P.G)
    # cp_rank_upper_bound, reusing this cover search
    ub = P.G.n if is_small_empty_pattern(P.G) else bound
    return EXIT_OK, {
        "upper_bound": ub,
        "cover_bound": bound,
        # in the input's numbering: the instance drops infinite-diagonal rows
        "cover": [[P.lift[v][0] + 1 for v in c] for c in cover.cliques],
        "empty_pattern_exception": ub != bound,
    }


def cmd_decompose(A, args):
    dec, (_, blocks, tail_mode) = decompose_cp_detailed(A)
    return EXIT_OK, {
        "decomposition": embed_decomposition(dec),
        "factor_count": dec.rank,
        "verified": True,
        "blocks": list(blocks),
        "tail_mode": tail_mode,
    }


def cmd_rank(A, args):
    rank, cert = cp_rank_exact(
        A,
        r_max=args.max_r,
        node_limit=args.node_limit,
        timeout_s=args.timeout_s,
    )
    payload = {
        "status": cert.status,
        "rank": ("inf" if rank == float("inf") else rank),
        "refuted": list(cert.refuted),
        "refuted_by": list(cert.refuted_by),
        "undetermined_at": cert.undetermined_at,
    }
    if cert.decomposition is not None:
        payload["decomposition"] = embed_decomposition(cert.decomposition)
    codes = {"undetermined": EXIT_UNDETERMINED, "not_cp": EXIT_PROPERTY_FALSE}
    return codes.get(cert.status, EXIT_OK), payload, {
        "refuted": bool(cert.refuted),
        "undetermined": cert.status == "undetermined",
        "stats": cert.stats,
    }


def cmd_cc(G, args):
    cc, cover = edge_clique_cover_number(G)
    return EXIT_OK, {
        "edge_clique_cover_number": cc,
        "cliques": [[v + 1 for v in c] for c in cover.cliques],
        "n": G.n,
        "edge_count": len(G.edges),
    }


def cmd_witness(G, args):
    W = diameter_witness_matrix(G, args.u - 1, args.v - 1)
    return _generated(W, args.raw, {"pair": [args.u, args.v]})


def cmd_gen(G, args):
    A = generate_instance(
        G,
        args.seed,
        max_numerator=args.max_numerator,
        max_denominator=args.max_denominator,
        inf_probability=args.inf_probability,
    )
    return _generated(A, not args.report, {"seed": args.seed})


def cmd_selftest(_, args):
    lines = []
    failures = run_selftest(lines.append)
    text = "".join(f"{line}\n" for line in lines)
    return (EXIT_OK if failures == 0 else EXIT_PROPERTY_FALSE), text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcp",
        description="Completely positive matrices over the min-plus semiring.",
    )
    parser.add_argument("--version", action="version", version=f"tropcp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, reads=None):
        """A subcommand reading the file given as positional `reads` ("matrix" or "graph")."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, reads=reads)
        if reads:
            p.add_argument(reads)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    add("check", cmd_check, "test complete positivity", "matrix")

    p = add("normalize", cmd_normalize, "zero-diagonal normalization", "matrix")
    p.add_argument("--raw", action="store_true", help="print the matrix file only")

    p = add("graph", cmd_graph, "pattern graph and diameter", "matrix")
    p.add_argument("--raw", action="store_true", help="print the graph file only")

    add("bound", cmd_bound, "minimum clique-cover rank bound", "matrix")
    add("decompose", cmd_decompose, "constructive rank-one decomposition", "matrix")

    p = add("rank", cmd_rank, "exact CP-rank by complete search", "matrix")
    p.add_argument("--max-r", type=int, default=None, help="stop after this r")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="deprecated: accepted and ignored; the search runs serially",
    )

    add("cc", cmd_cc, "exact edge clique cover number", "graph")

    p = add("witness", cmd_witness, "distance witness matrix for a non-edge pair", "graph")
    p.add_argument("u", type=int, help="1-based vertex")
    p.add_argument("v", type=int, help="1-based vertex")
    p.add_argument("--raw", action="store_true", help="print the matrix file only")

    p = add("gen", cmd_gen, "random normalized CP instance with a given pattern", "graph")
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
    """Run the command line; every error maps to its exit code here."""
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except NotCompletelyPositiveError:
        print("input is not completely positive", file=sys.stderr)
        return EXIT_PROPERTY_FALSE
    except (OSError, ValueError) as exc:  # input, usage and --out errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
