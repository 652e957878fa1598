"""flowevo benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S]   # every workload; rewrites BENCHMARK.json

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it alternates untraced and traced runs of one fixed
window of work and reports per-layer calls and self time, plus the
throughput of the traced windows against the untraced ones. The last line
of standard output is one JSON object; the lines before it give every
metric by name and unit, the sample counts and the run's environment. A
fuller report, and the spans of the first traced window, go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import numpy as np  # noqa: E402  (imported before set-up is timed: it is a dependency, not the package)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MODULES = ("engine", "validator", "mermaid", "operators", "codegen", "graph", "registry", "runconfig", "adapters")

# end-to-end metrics: name, unit, better, bound (share of the parent's median).
# Bounds are about three times the largest spread (quartile distance over
# median) seen over ten seeds on any workload, in two sets of runs: ~9% for
# throughput and p90 on large_rewrite, where a few percent of the rewrites pay
# for the O(E*V) rewiring site list at 300 nodes and take a third of the time;
# ~6% for p50 on evolve_demo; ~3% for peak RSS on large_rewrite. setup_s gets
# the widest bound: its spread is not bounded, only the drift of its median.
END_TO_END = (
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_ms.p50", "ms", "lower", 0.2),
    ("latency_ms.p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

TIMED_LAYERS = (
    "mermaid.parse", "mermaid.lower", "mermaid.serialize",
    "validator.soft_check", "validator.validate",
    "operators.apply_random", "graph.with_changes",
    "engine.propose", "engine.check", "engine.judge", "engine.evaluate",
    "sampling",
    "adapters.propose", "adapters.judge", "adapters.evaluate",
    "codegen.lower_to_ir", "codegen.emit", "codegen.structural_diff",
)
OPERATOR_KINDS = ("substitution", "addition", "rewiring", "deletion", "subgraph_mutation", "crossover")

# per-layer metrics: name, unit, better
PER_LAYER = (
    tuple((f"{layer}.{stat}", unit, "lower") for layer in TIMED_LAYERS for stat, unit in (("calls", "count"), ("self_ms", "ms")))
    + (
        ("validator.accept_ratio", "ratio", "higher"),
        ("operators.guard_validate.calls", "count", "lower"),
        ("operators.none_ratio", "ratio", "lower"),
        ("graph.nodes_mean", "nodes", "lower"),
        ("engine.check.accept_ratio", "ratio", "higher"),
        ("engine.rounds_skipped", "count", "lower"),
        ("engine.candidates_per_round", "count", "higher"),
        ("trace.throughput_ratio", "ratio", "higher"),
    )
    + tuple((f"operators.{kind}.applied", "count", "higher") for kind in OPERATOR_KINDS)
)

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 25,
    "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
    "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}


# -- set-up ------------------------------------------------------------------------------


def import_flowevo():
    """Fresh import of the package from ``src/``; returns its modules."""
    for name in [n for n in sys.modules if n == "flowevo" or n.startswith("flowevo.")]:
        del sys.modules[name]
    package = importlib.import_module("flowevo")
    where = Path(package.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"flowevo was imported from {where}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{name: importlib.import_module(f"flowevo.{name}") for name in MODULES})


def set_up(cls, seed, repeats):
    """Import the package and build the workload ``repeats`` times; keep the last.

    Returns the package modules, the workload and the scaled seconds of each set-up.
    """
    times = []
    workload = None
    for i in range(repeats):
        before = speed.probe()
        start = speed.clock()
        fe = import_flowevo()
        candidate = cls(fe, ROOT, seed)
        stop = speed.clock()
        times.append(speed.scale(stop - start, before, speed.probe()))
        if i < repeats - 1:
            candidate.close()
        else:
            workload = candidate
    return fe, workload, times


# -- measuring -----------------------------------------------------------------------------


def run_window(workload, index, tracer=None):
    """One window; an exception counts as one failed op and the run goes on."""
    try:
        return workload.window(index, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return workloads.Window(ops=1, failed=1, digest="error")


def measure(workload, seconds):
    """End-to-end metrics, tracing off: windows 0, 1, ... until ``seconds`` pass."""
    windows = []
    start = time.perf_counter()
    while not windows or time.perf_counter() - start < seconds:
        windows.append(run_window(workload, len(windows)))
    # replay the first window: its outputs must repeat exactly for the same seed
    replay = run_window(workload, 0)
    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed for w in windows)
    if replay.digest != windows[0].digest:
        print("replay of window 0 gave different outputs", file=sys.stderr)
        failed += windows[0].ops
    timed = [w for w in windows if w.latencies]
    latencies = [x for w in timed for x in w.latencies]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "throughput_ops_s": sum(w.ops for w in timed) / sum(latencies),
        "latency_ms.p50": 1000 * deciles[4],
        "latency_ms.p90": 1000 * deciles[8],
    }
    notes = {
        "throughput_ops_s": f"{sum(w.ops for w in timed)} ops in {len(timed)} windows",
        "latency_ms.p50": f"{len(latencies)} samples",
        "latency_ms.p90": f"{len(latencies)} samples",
    }
    return metrics, notes, attempted, failed, windows[0].digest


def _unit_summary(tracer):
    totals = tracer.layer_totals()
    return {
        "calls": {name: calls for name, (calls, _) in totals.items()},
        "self_ms": {name: 1000 * s for name, (_, s) in totals.items()},
        "counts": dict(tracer.counts),
        "sums": dict(tracer.sums),
    }


def trace(fe, workload, seconds, spans_path):
    """Alternate untraced and traced runs of window 0 until ``seconds`` pass."""
    untraced, traced, units = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_window(workload, 0))
        tracer = spans.Tracer()
        workloads.install_tracing(tracer, fe)
        try:
            traced.append(run_window(workload, 0, tracer))
        finally:
            tracer.restore()
        units.append(_unit_summary(tracer))
        if len(units) == 1:
            first_tracer = tracer
    first_tracer.write(spans_path)
    windows = untraced + traced
    failed = sum(w.failed for w in windows)
    first = units[0]
    for unit, window in zip(units[1:], traced[1:]):
        if {k: unit[k] for k in ("calls", "counts", "sums")} != {k: first[k] for k in ("calls", "counts", "sums")}:
            print("per-layer counts differ between traced windows", file=sys.stderr)
            failed += window.ops
    for window in windows[1:]:
        if window.digest != windows[0].digest:
            print("window digests differ between repeats of window 0", file=sys.stderr)
            failed += window.ops

    calls, counts, sums = first["calls"], first["counts"], first["sums"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_ms"] = statistics.median(u["self_ms"].get(layer, 0.0) for u in units)
    metrics.update({
        "validator.accept_ratio": ratio(counts.get("validator.accept", 0), calls.get("validator.validate", 0)),
        "operators.guard_validate.calls": calls.get("operators.guard_validate", 0),
        "operators.none_ratio": ratio(counts.get("operators.none", 0), calls.get("operators.apply_random", 0)),
        "graph.nodes_mean": ratio(sums.get("graph.nodes", 0), calls.get("validator.soft_check", 0)),
        "engine.check.accept_ratio": ratio(counts.get("engine.check.accept", 0), calls.get("engine.check", 0)),
        "engine.rounds_skipped": counts.get("engine.rounds_skipped", 0),
        "engine.candidates_per_round": ratio(sums.get("engine.candidates", 0), calls.get("engine.judge", 0)),
        "trace.throughput_ratio": statistics.median(w.throughput for w in traced if w.latencies)
        / statistics.median(w.throughput for w in untraced if w.latencies),
    })
    for kind in OPERATOR_KINDS:
        metrics[f"operators.{kind}.applied"] = counts.get(f"operators.{kind}", 0)
    notes = {
        "trace.throughput_ratio": f"median of {len(traced)} traced against median of {len(untraced)} untraced runs of window 0",
    }
    for layer in TIMED_LAYERS:
        notes[f"{layer}.self_ms"] = f"median of {len(units)} traced runs of window 0, unscaled"
    return metrics, notes, sum(w.ops for w in windows), failed, windows[0].digest


# -- reporting -----------------------------------------------------------------------------


def git_sha():
    """The checked-out commit, read from ``.git`` without running git; None outside a repository."""
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
    return None


def environment(cls, seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "workload": cls.name,
        "why": cls.why,
        "seed": seed,
        "window_seeds": f"window i uses random.Random('{seed}/i')"
        if not issubclass(cls, workloads._Evolve)
        else f"window i evolves with seed {seed}*7919+i",
    }


def run_all(args):
    """Write BENCHMARK.json, then run every workload, untraced and traced, one at a time."""
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n", encoding="utf-8")
    correct = True
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            print(f"== {name} --trace {traced}", flush=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(traced)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("# why")), flush=True)
            correct = correct and json.loads(lines[-1])["correct"]
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    cls = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    env = environment(cls, args.seed)
    # Only one process of the run works at a time: adapter processes run while
    # this one waits for them. Keeping them all on one CPU lets the probe taken
    # here (speed.py) see the speed the adapters run at as well.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env["cpu"] = min(os.sched_getaffinity(0))
    fe, workload, setup_times = set_up(cls, args.seed, 1 if args.trace else SETUP_REPEATS)
    try:
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            metrics, notes, attempted, failed, digest = trace(fe, workload, args.seconds, OUT_DIR / f"{tag}.spans.jsonl")
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            metrics, notes, attempted, failed, digest = measure(workload, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            notes["setup_s"] = f"median of {len(setup_times)} set-ups"
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        workload.close()

    env["window0_digest"] = digest
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {name: {"value": value, "unit": units[name], "note": notes.get(name, "")} for name, value in metrics.items()},
    }, indent=2) + "\n", encoding="utf-8")

    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {failed / attempted:.6g}  ({failed} failed of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
