"""padiclab benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload verify|tables|points --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds 5 --smoke

Run from the repository root (or anywhere: paths are resolved from this
file).  One client calls the program in-process and starts each call after
the previous one returned.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  ``--smoke`` runs the
same checks at tiny sizes in seconds.  ``all`` runs each workload in its own
process, so that peak memory belongs to one workload.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.  Exit code 0 when
every output checked out, 1 when one did not, 2 when padiclab cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workload_points
import workload_tables
import workload_verify
from measure import reference_latencies_ms, reference_pass_s, run_for, tail, timed_setup

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = {"verify": workload_verify, "tables": workload_tables, "points": workload_points}
SETUP_REPS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="padiclab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    return parser.parse_args(argv)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def _declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _end_to_end(tally, setup_s: float, lines: list[str]) -> dict[str, float]:
    latencies_ms = reference_latencies_ms(tally)
    tail_ms, percentile, beyond = tail(latencies_ms)
    passes = len(tally.pass_ns)
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(reference_pass_s(tally)),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines += [
        "  times at the reference speed; machine speed over the passes "
        f"{min(tally.pass_scales):.3f}-{max(tally.pass_scales):.3f} of it, "
        f"median pass wall time {statistics.median(tally.pass_ns) / 1e9:.4f} s",
        f"  setup_s      {metrics['setup_s']:.4f} s    median of {SETUP_REPS} set-ups",
        f"  pass_s       {metrics['pass_s']:.4f} s    median of {passes} passes",
        f"  op_p50_ms    {metrics['op_p50_ms']:.4f} ms   {len(latencies_ms)} samples",
        f"  op_tail_ms   {tail_ms:.4f} ms   p{percentile:.3f}, {beyond} samples beyond, "
        f"{len(latencies_ms)} samples",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB",
    ]
    return metrics


def _traced(pl, ops, seconds: float, lines: list[str], args):
    """Untraced passes for half the time, then traced passes; per-layer metrics."""
    started = time.perf_counter()
    untraced = run_for(ops, seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed(pl):
        traced = run_for(ops, seconds - (time.perf_counter() - started), tracer.end_pass)
    untraced_s = statistics.median(reference_pass_s(untraced))
    traced_s = statistics.median(reference_pass_s(traced))
    metrics = tracer.metrics(untraced_s, traced_s)
    repeat = tracer.enumerations_repeat()
    trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"provenance": _provenance(args), **tracer.dump()}))
    lines.append(
        f"  tracing overhead {metrics['trace.overhead']:.3f}x: traced pass {traced_s:.4f} s "
        f"({len(traced.pass_ns)} passes) vs untraced {untraced_s:.4f} s ({len(untraced.pass_ns)} passes)"
    )
    for p, k, ops_names, nodes, solutions in tracer.pass_enumerations[0]:
        lines.append(f"  oracle ({p},{k}) {'+'.join(ops_names)}: {nodes} nodes, {solutions} solutions")
    lines.append(
        f"  oracle.solutions_per_node {metrics['oracle.solutions_per_node']:.6f} "
        f"(base {metrics['oracle.enumerate_automorphisms.nodes']:.0f} nodes per pass); "
        f"node counts repeat across traced passes: {repeat}"
    )
    lines.append(f"  spans written to {trace_path.relative_to(ROOT)} ({tracer.dropped_spans} over the cap dropped)")
    units = tracing.metric_units()
    for name in sorted(metrics):
        lines.append(f"  {name} {metrics[name]:.6g} {units[name]}")
    return metrics, [untraced, traced], repeat


def run_workload(args) -> int:
    if sys.flags.optimize:
        print("error: run without -O; it strips checks the program runs", file=sys.stderr)
        return 2
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    WORKDIR.mkdir(exist_ok=True)
    module = WORKLOADS[args.workload]
    try:
        pl, workload, setup_s = timed_setup(
            lambda pl: module.build(pl, args.seed, args.smoke, WORKDIR), SETUP_REPS
        )
    except ImportError as exc:
        print(f"error: cannot import padiclab from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(pl.__file__).resolve().parents:
        print(f"error: padiclab was imported from {pl.__file__}, not {src}", file=sys.stderr)
        return 2
    # the benchmark's own inputs stay out of the collector's work, so that
    # collection pauses during the passes come from the program's objects
    gc.collect()
    gc.freeze()

    lines = [f"padiclab benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"]
    if args.trace:
        metrics, tallies, correct = _traced(pl, workload.ops, args.seconds, lines, args)
    else:
        tally = run_for(workload.ops, args.seconds)
        metrics, tallies, correct = _end_to_end(tally, setup_s, lines), [tally], True
    probes = sum((t.probes for t in tallies), start=Counter())
    if workload.finish is not None:
        probes.update(workload.finish())

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = correct and failed == 0
    lines.append(
        f"  error_rate   {failed / attempted:.6f} ({failed} of {attempted} operations on well-formed inputs)"
    )
    if probes:
        total = sum(probes.values())
        mishandled = total - probes["rejected"]
        lines.append(
            f"  malformed    {mishandled} of {total} mishandled ({mishandled / total:.3f}): "
            + ", ".join(f"{label} {probes[label]}" for label in ("rejected", "escaped", "wrong"))
            + " (exit 1 with one error line is the right answer)"
        )
    for tally in tallies:
        lines += [f"  FAILED {error}" for error in tally.errors]
    lines.append("provenance " + json.dumps(_provenance(args), sort_keys=True))

    units = _declared_metrics(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        worst = max(worst, done.returncode)
        if done.returncode not in (0, 1):
            combined["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
