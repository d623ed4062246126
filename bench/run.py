"""Benchmark ncqo end to end on one workload and print the metrics as JSON.

    python3 bench/run.py --workload closed_panels --seed 1 --seconds 25 --trace 0

ncqo is imported from the `src` directory next to `bench`. The run first
times the set-up (a fresh interpreter importing ncqo and building the
first round of inputs) in SETUP_PROBES child processes, then runs whole
rounds of calls until both `--seconds` of timed calls and MIN_CALLS calls
are done. Every call's output is checked outside the timed part; a call
that raises or fails a check counts as failed.

With `--trace 0` the last line of stdout holds the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run. Diagnostics go to
stderr. See README.md for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 9  # after one discarded warm-up probe
PROBE_TIMEOUT_S = 60
MIN_CALLS = 100  # so that ten calls lie beyond the p90


def _import_ncqo() -> None:
    if not os.path.isfile(os.path.join(SRC, "ncqo", "__init__.py")):
        sys.exit(f"error: no ncqo sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import ncqo.figrun  # noqa: F401  (loads every module the tracer wraps)

    if not os.path.abspath(ncqo.figrun.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ncqo was imported from {ncqo.figrun.__file__}, not from {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _probe(args) -> None:
    """Child side of a set-up probe: import, build round 0, report the clock."""
    _import_ncqo()
    import workloads

    workloads.make_round(args.workload, args.seed, 0, OUT_DIR)
    print(repr(time.monotonic()), flush=True)


def _setup_seconds(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up probe exited with code {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - start)
    print(f"setup probes (s): {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)
    return statistics.median(times[1:])


@dataclass
class RunStats:
    durations: list = field(default_factory=list)  # seconds per call
    cpu_s: float = 0.0  # process CPU time spent in calls
    failed: int = 0
    wrong: int = 0  # failed calls whose output failed a check
    good_cells: int = 0  # checked, finite cells of calls that did not fail
    scanned_cells: int = 0  # rows returned by run_scan
    emitted_bytes: int = 0
    rounds: int = 0


def _run(args, workdir: str, tracer) -> RunStats:
    from ncqo.errors import NcqoError
    from reference import CheckFailed
    import workloads

    stats = RunStats()
    while sum(stats.durations) < args.seconds or len(stats.durations) < MIN_CALLS:
        for call in workloads.make_round(args.workload, args.seed, stats.rounds, workdir):
            out = None
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.active = True
                out = call.run()
            except NcqoError as exc:
                print(f"call failed: {call}: {exc!r}", file=sys.stderr)
            except Exception:  # a call must not end the run; its traceback is kept
                traceback.print_exc()
            finally:
                if tracer is not None:
                    tracer.active = False
                stats.durations.append(time.perf_counter() - start)
                stats.cpu_s += time.process_time() - cpu
            if out is None:
                stats.failed += 1
                continue
            if isinstance(call, workloads.PanelCall):
                stats.scanned_cells += len(out.rows)
                stats.emitted_bytes += os.path.getsize(call.path)
            try:
                stats.good_cells += call.check(out)
            except (CheckFailed, NcqoError) as exc:
                stats.failed += 1
                stats.wrong += 1
                print(f"check failed: {exc}", file=sys.stderr)
        stats.rounds += 1
    return stats


def _end_to_end(stats: RunStats, setup_s: float) -> dict:
    ms = [d * 1e3 for d in stats.durations]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "cells_per_s": {"value": stats.good_cells / sum(stats.durations), "unit": "1/s"},
        "call_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "call_ms_p90": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def _per_layer(tracer, stats: RunStats) -> dict:
    from tracing import SPAN_NAMES

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = {"value": tracer.calls[name], "unit": "count"}
        out[f"{name}.self_ms"] = {"value": tracer.self_s[name] * 1e3, "unit": "ms"}
    out["scan.run_scan.self_us_per_cell"] = {
        "value": tracer.self_s["scan.run_scan"] * 1e6 / max(stats.scanned_cells, 1), "unit": "us"
    }
    out["scan.emit.us_per_cell"] = {
        "value": tracer.self_s["scan.emit"] * 1e6 / max(stats.scanned_cells, 1), "unit": "us"
    }
    out["scan.emit.bytes"] = {"value": stats.emitted_bytes, "unit": "bytes"}
    out["states.cutoff_mean"] = {
        "value": tracer.cutoff_sum / max(tracer.states_built, 1), "unit": "count"
    }
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, BENCH_DIR)
    if args.setup_probe:
        _probe(args)
        return 0
    _import_ncqo()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup_s = None if args.trace else _setup_seconds(args)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wall = time.perf_counter()
        stats = _run(args, workdir, tracer)
        wall = time.perf_counter() - wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed = sum(stats.durations)
    workers = os.environ.get("NCQO_THREADS") or os.cpu_count()
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {stats.rounds} rounds, "
        f"{len(stats.durations)} calls, {stats.failed} failed, {stats.good_cells} checked cells, "
        f"{timed:.2f} s timed ({stats.cpu_s:.2f} s CPU) of {wall:.2f} s, {stats.good_cells / timed:.1f} cells/s, "
        f"NCQO_THREADS={os.environ.get('NCQO_THREADS')!r} -> {workers} workers",
        file=sys.stderr,
    )
    metrics = _per_layer(tracer, stats) if args.trace else _end_to_end(stats, setup_s)
    result = {
        "correct": stats.wrong == 0,
        "attempted": len(stats.durations),
        "failed": stats.failed,
        "metrics": metrics,
    }
    name = f"result_{args.workload}_{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
