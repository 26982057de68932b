"""Benchmark of iotsla: three seeded workloads, checked against an oracle.

Usage, from the repository root::

    python3 bench/run.py --workload monitor_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced for half the time and traced for the other half, then prints the
per-layer metrics and the tracing overhead.  The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
program is imported from ``src/`` next to this directory, never from an
installed copy, and is given nothing but the generated inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import selfcheck
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_OPS = 100  # op_p90_ms needs at least 10 samples beyond it
STARTUP_REPEATS = 7

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def setup_once(workload, tracer) -> float:
    """Import iotsla afresh, load the catalog cold and make the inputs."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "iotsla" or m.startswith("iotsla.")]:
        del sys.modules[name]
    sla = importlib.import_module("iotsla")
    importlib.import_module("iotsla.cli")
    load = sla.load_builtin_catalog
    catalog = tracer.call(spans.CATALOG_SPAN, load) if tracer else load()
    workload.prepare(sla, catalog)
    return time.perf_counter() - start


def run_loop(workload, seconds: float, min_ops: int = 0):
    """Closed loop from op 0 for ``seconds``, then on to ``min_ops`` ops if
    it has fewer, but never past three times ``seconds``."""
    latencies, failed, i = [], 0, 0
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 3 * seconds
    while (now := time.perf_counter()) < deadline or (len(latencies) < min_ops
                                                       and now < cutoff):
        if workload.tracer is not None:
            workload.tracer.op = i
            sized = workload.size(i)
            if sized is not None:
                workload.tracer.sizes[i] = sized
        try:
            elapsed, problems = workload.op(i)
        except Exception:
            # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            elapsed, problems = None, ["raised"]
        if problems:
            failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        if elapsed is not None:
            latencies.append(elapsed)
        i += 1
    return latencies, i, failed, time.perf_counter() - start


def startup_s() -> float:
    """Median of `python -c "import iotsla.cli"` minus bare `python -c pass`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs: dict[str, list[float]] = {"import iotsla.cli": [], "pass": []}
    for _ in range(STARTUP_REPEATS):
        for code, times in runs.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True, timeout=60)
            times.append(time.perf_counter() - start)
    return statistics.median(runs["import iotsla.cli"]) - statistics.median(runs["pass"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iotsla" / "__init__.py").is_file():
        print(f"error: no iotsla sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = spans.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        setups = [setup_once(workload, tracer) for _ in range(SETUP_REPEATS)]
        sla = importlib.import_module("iotsla")
        problems = selfcheck.run(sla, sla.load_builtin_catalog())
        for problem in problems:
            print(f"self-check failed: {problem}", file=sys.stderr)
        for i in range(workload.warmup_ops):
            # fill caches; the same ops run, and count, again when timed
            try:
                workload.op(i)
            except Exception:
                traceback.print_exc()

        if not args.trace:
            latencies, attempted, failed, wall = run_loop(
                workload, args.seconds, min_ops=MIN_OPS)
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(latencies) / wall,
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            units = dict(END_TO_END)
            print(f"{args.workload}: seed {args.seed}, {attempted} ops, {failed} failed, "
                  f"error_rate {failed / attempted:g}, op_p90_ms from "
                  f"{len(latencies)} samples")
        else:
            half = args.seconds / 2
            plain, attempted, failed, plain_wall = run_loop(workload, half)
            workload.tracer = tracer
            tracer.install()
            try:
                traced, traced_ops, traced_failed, wall = run_loop(workload, half)
            finally:
                tracer.uninstall()
                workload.tracer = None
            attempted += traced_ops
            failed += traced_failed
            metrics = tracer.layer_metrics(wall)
            metrics["cli.startup_s"] = startup_s()
            metrics["trace.overhead_pct"] = 100 * (
                (wall / len(traced)) / (plain_wall / len(plain)) - 1)
            units = layer_units()
            out = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl"
            out.parent.mkdir(exist_ok=True)
            tracer.dump(out)
            print(f"{args.workload}: seed {args.seed}, {attempted} ops, {failed} failed, "
                  f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    finally:
        workload.close()

    for name, value in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": unit for fn in spans.FUNCTIONS for stat, unit in spans.STATS}
    units.update(spans.COUNTS)
    units["cli.startup_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


if __name__ == "__main__":
    sys.exit(main())
