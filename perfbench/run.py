#!/usr/bin/env python3
"""tropcp benchmark: closed-loop CLI operations, checked, with an optional traced run.

    python3 perfbench/run.py --workload rank-refute --seed 0 --seconds 25 --trace 0

Run from the repository root.  One client calls ``tropcp.cli.main([...])``
in-process, waits for the verdict, checks it, and sends the next one,
cycling over the seed's instance set in whole passes for about
``--seconds``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics, scaled to the reference machine's speed (SpeedProbe);
with ``--trace 1`` each operation is also replayed
through the traced chain of public layer calls (``layers.py``) and the
last line holds the per-layer metrics.  Workloads and their rationale are
in ``perfbench/README.md``; the full result of a run, with run metadata,
goes to ``.perfbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 11
# the benchmark's modules that import tropcp at their top
BENCH_MODULES = ("instances", "checks", "layers")
# Stop starting operations after this long, whatever --seconds says, so a
# run always exits well within three minutes.
HARD_STOP_S = 140.0
# An end-to-end run makes at least this many passes, so that every
# operation's median time rests on several samples.
MIN_PASSES = 3
TAIL_BEYOND = 10
# The machine-speed probe (about 15 ms) runs before an operation when this
# long has passed since the last probe; PROBE_REF_S is about its median
# time on the reference machine (2-vCPU VM, Python 3.11.7).  See SpeedProbe.
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.0145

# workload -> (CLI command, --threads) per instance; bound and decompose
# take no --threads
COMMANDS = {
    "rank-refute": (("rank", 1),),
    "rank-mixed": (("rank", 1),),
    "rank-par": (("rank", 2),),
    "decompose": (("bound", None), ("decompose", None)),
}


def probe_seconds() -> float:
    """Time one fixed pure-Python task in the style of tropcp's arithmetic:
    exact fractions, comparisons, tuples, a dict and a sort."""
    t0 = time.perf_counter()
    xs = [Fraction(i * 7919 % 1009, 1 + i % 13) for i in range(1000)]
    best: dict = {}
    for a, b in zip(xs, xs[1:]):
        s = a + b
        key = (a < b, s.denominator % 17)
        best[key] = max(best.get(key, s), s)
    xs.sort()
    return time.perf_counter() - t0


class SpeedProbe:
    """How fast the machine ran during a run, from a probe that does not use tropcp.

    On a shared host the same code runs up to 40% slower for seconds to
    minutes at a time.  The probe is timed every PROBE_EVERY_S throughout
    setup and the timed loop; ``scale`` is PROBE_REF_S over its median, and
    end-to-end times are multiplied by it: seconds at the reference
    machine's speed.  A change to tropcp moves the operations but not the
    probe, so it shows in full.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.times.append(probe_seconds())
            self.last = time.perf_counter()

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.times)


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _children_cpu_s() -> float:
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c.ru_utime + c.ru_stime


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "TROPCP_THREADS": os.environ.get("TROPCP_THREADS"),
    }


def import_seconds() -> float:
    """Time to import tropcp's CLI afresh in this process.

    tropcp and the benchmark modules that import it are dropped from
    sys.modules first, so every module runs again from its cached bytecode;
    the modules a run uses are those of the last import.
    """
    for name in [m for m in sys.modules if m.partition(".")[0] in ("tropcp", *BENCH_MODULES)]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import tropcp.cli  # noqa: F401
    return time.perf_counter() - t0


def prepare(workload: str, seed: int, workdir: Path) -> list[tuple]:
    """Select the seed's instances, build them and write their .tmat files."""
    import instances
    from tropcp.formats import render_matrix

    workdir.mkdir(parents=True)
    entries = instances.select(instances.load_catalogue(), workload, seed)
    ops = []
    for i, entry in enumerate(entries):
        path = workdir / f"{i:03d}.tmat"
        path.write_text(render_matrix(instances.build_matrix(entry["spec"])))
        for command, threads in COMMANDS[workload]:
            ops.append((command, threads, entry, path))
    return ops


def cli_argv(command: str, threads, path: Path, out: Path) -> list[str]:
    argv = [command, str(path), "--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


def read_report(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check(op, code, report):
    """Why the operation's result is wrong, or None; `code` is the exit code or why it raised."""
    import checks

    command, _, entry, path = op
    if isinstance(code, str):
        return code
    return checks.CHECKS[command](entry["expect"], code, report, path.read_text())


class Client:
    """The closed-loop client: one operation at a time, each one checked."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op) -> tuple[float, float, object]:
        """One CLI operation: (wall s, CPU s, report or None); output checked."""
        import tropcp.cli

        command, threads, _, path = op
        self.out.unlink(missing_ok=True)
        argv = cli_argv(command, threads, path, self.out)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            code = tropcp.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raising operation is a failed one
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        self.attempted += 1
        report = read_report(self.out) if isinstance(code, int) else None
        self.fail(op, check(op, code, report))
        return wall, cpu, report

    def fail(self, op, reason) -> None:
        if reason is not None:
            self.failures.append(f"{op[0]} {op[2]['spec']}: {reason}")


def tail_stat(op_times: list[float]) -> tuple[float, float]:
    """(value, percentile): the op_s.tail figure of one run.

    The percentile is the highest one that has TAIL_BEYOND samples above it
    in a run of MIN_PASSES passes, so it is the same for every run of a
    workload whatever its length; the value is that percentile of the
    operations' median times, interpolated.
    """
    samples = MIN_PASSES * len(op_times)
    q = max(0, samples - TAIL_BEYOND - 1) / (samples - 1) if samples > 1 else 1.0
    ordered = sorted(op_times)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), 100.0 * q


def measure(ops, client: Client, seconds: float, start_s: float, probe: SpeedProbe) -> dict:
    """End-to-end run: whole passes over the instance set for about `seconds`.

    Every operation's time is its median over the passes, so that a slow or
    fast spell of a shared machine during one pass moves no figure; the
    metrics are taken over these per-operation medians.  Times are scaled
    to the reference machine's speed (SpeedProbe); `info` keeps them raw.
    """
    walls: list[list[float]] = [[] for _ in ops]
    cpus: list[list[float]] = [[] for _ in ops]
    passes = 0
    begin = time.perf_counter()
    truncated = False
    while True:
        pass_begin = time.perf_counter()
        for i, op in enumerate(ops):
            if time.perf_counter() - start_s > HARD_STOP_S:
                truncated = True
                break
            probe.tick()
            wall, op_cpu, _ = client.run(op)
            walls[i].append(wall)
            cpus[i].append(op_cpu)
        passes += 1
        now = time.perf_counter()
        # end at the pass boundary nearest to `seconds`
        if truncated or (passes >= MIN_PASSES and now - begin + (now - pass_begin) / 2 >= seconds):
            break
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    op_wall = [statistics.median(w) for w in walls if w]
    op_cpu = [statistics.median(c) for c in cpus if c]
    tail, pct = tail_stat(op_wall)
    raw = {
        "instances_per_s": len(op_wall) / sum(op_wall),
        "op_s.p50": statistics.median(op_wall),
        "op_s.tail": tail,
        "cpu_s_per_op": statistics.fmean(op_cpu),
    }
    scale = probe.scale()
    return {
        "metrics": {
            "instances_per_s": (raw["instances_per_s"] / scale, "1/s"),
            "op_s.p50": (raw["op_s.p50"] * scale, "s"),
            "op_s.tail": (raw["op_s.tail"] * scale, "s"),
            "cpu_s_per_op": (raw["cpu_s_per_op"] * scale, "s"),
            "peak_rss_mb": ((usage_self + usage_children) / 1024.0, "MB"),
        },
        "info": {
            "passes": passes,
            "operations_per_pass": len(ops),
            "samples": sum(len(w) for w in walls),
            "op_s.tail_percentile": pct,
            "timed_wall_s": sum(map(sum, walls)),
            "loop_s": time.perf_counter() - begin,
            "truncated": truncated,
            "speed_scale": scale,
            "probes": len(probe.times),
            "unscaled": raw,
            "op_s_median_by_op": [
                [op[0], op[2]["spec"], statistics.median(w)] for op, w in zip(ops, walls) if w
            ],
        },
    }


def traced_pass(ops, client: Client, out: Path):
    """One pass: each operation through the CLI, then through the traced chain."""
    from layers import Tracer, chain, reload, same_result

    tr = Tracer()
    overhead = 0.0
    children_cpu = 0.0
    for idx, op in enumerate(ops):
        command, threads, _, path = op
        cli_wall, _, cli_report = client.run(op)
        tr.op = idx
        out.unlink(missing_ok=True)
        with tr.patched(feasibility=threads != 2):
            c0 = _children_cpu_s()
            t0 = time.perf_counter()
            try:
                code, report = chain(tr, cli_argv(command, threads, path, out))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                code, report = f"raised {type(exc).__name__}: {exc}", None
            chain_wall = time.perf_counter() - t0
            children_cpu += _children_cpu_s() - c0
            if isinstance(code, int):
                reload(tr, report)
        client.attempted += 1
        reason = check(op, code, read_report(out))
        client.fail(op, reason or same_result(command, cli_report, report))
        overhead += chain_wall - cli_wall
    return tr, overhead, children_cpu


def serial_nodes(ops, out: Path) -> int:
    """Nodes the serial search (--threads 1) needs on these rank operations."""
    from layers import Tracer, chain

    tr = Tracer()
    with tr.patched(feasibility=False):
        for command, _, _, path in ops:
            chain(tr, cli_argv(command, 1, path, out))
    return tr.counts["rank.nodes"]


def trace(ops, client: Client, workload: str, seconds: float, start_s: float, out: Path) -> dict:
    """Per-layer run: per-pass layer times (mean over passes) and exact counts."""
    from layers import COUNTERS

    passes = []
    begin = time.perf_counter()
    while not passes or (
        time.perf_counter() - begin < seconds and time.perf_counter() - start_s < HARD_STOP_S / 2
    ):
        passes.append(traced_pass(ops, client, out))
    first = passes[0][0]
    for tr, _, _ in passes[1:]:
        if tr.counts != first.counts:
            client.failures.append(f"counters differ between passes: {tr.counts} != {first.counts}")
    k = len(passes)
    per_pass = [tr.span_seconds() for tr, _, _ in passes]
    seconds_by = {m: sum(p[m] for p in per_pass) / k for m in per_pass[0]}
    counts = first.counts
    nodes = counts["rank.nodes"]
    leq_s = seconds_by.pop("rank.leq_s")
    metrics = {m: (v, "s") for m, v in seconds_by.items()}
    for name in COUNTERS:
        if name != "decompose.bound":
            metrics[name] = (counts[name], "count")
    info = {"passes": k, "operations_per_pass": len(ops)}
    metrics["rank.feasible_ratio"] = (
        (nodes - counts["rank.refuted_branches"]) / nodes if nodes else 0.0, "ratio"
    )
    metrics["rank.nodes_per_s"] = (nodes / leq_s if leq_s else 0.0, "1/s")
    metrics["rank.feasibility_s"] = (sum(tr.feasibility_s for tr, _, _ in passes) / k, "s")
    metrics["rank.children_cpu_s"] = (sum(c for _, _, c in passes) / k, "s")
    metrics["decompose.factors_per_bound"] = (
        counts["decompose.factors"] / counts["decompose.bound"] if counts["decompose.bound"] else 0.0,
        "ratio",
    )
    metrics["trace.overhead_s"] = (sum(o for _, o, _ in passes) / k, "s")
    ratio = 0.0
    if workload == "rank-par":
        base = serial_nodes(ops, out)
        ratio = nodes / base
        info["rank.par_node_ratio_base"] = (
            f"rank-par rank.nodes {nodes} over serial (--threads 1) rank.nodes {base} "
            f"on the same {len(ops)} instances"
        )
    metrics["rank.par_node_ratio"] = (ratio, "ratio")
    info["counters"] = counts
    info["spans_first_pass"] = [
        {"op": op, "name": name, "start": s, "end": e, "parent": anc[-1] if anc else None}
        for op, name, s, e, anc in first.spans
    ]
    return {"metrics": metrics, "info": info}


def main(argv=None) -> int:
    start_s = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropcp" / "__init__.py").is_file():
        print(f"error: no tropcp sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tropcp.cli  # noqa: F401 - the first, in-process import

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    probe = SpeedProbe()
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            probe.tick()
            t = import_seconds()
            t0 = time.perf_counter()
            ops = prepare(args.workload, args.seed, workdir / f"setup{k}")
            setups.append(t + time.perf_counter() - t0)
        client = Client(workdir / "out.json")
        for command in {op[0]: op for op in ops}.values():
            client.run(command)  # warm-up, untimed; lazy imports happen here
        if args.trace:
            result = trace(ops, client, args.workload, args.seconds, start_s,
                           workdir / "chain.json")
        else:
            result = measure(ops, client, args.seconds, start_s, probe)
            result["metrics"]["setup_s"] = (statistics.median(setups) * probe.scale(), "s")
            result["info"]["setup_s_repeats"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = result["info"]
    info["failures"] = client.failures[:20]
    info["failed_ratio"] = len(client.failures) / client.attempted
    line = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["metrics"].items())},
    }
    record = {"meta": metadata(args), "info": info, "result": line}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for reason in client.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    summary = {
        k: v
        for k, v in info.items()
        if k not in ("spans_first_pass", "counters", "op_s_median_by_op")
    }
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print("info " + json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
