"""Time each layer of iotsla at three input sizes; write BENCH_<layer>.json.

Run from the repository root:

    python tests/bench_layers.py [--scale N] [--runs K] [--out DIR]

Each layer runs on seeded input from ``support.py``'s generators, built
from agreements of N, 4N and 16N services (N = 24 by default, so the
largest agreement is about 90 KB), and its time at each size is the median
of K runs (default 7) after one warm-up run.  One file per layer goes to
DIR (default: the repository root).  It records the sizes, the median
times, the growth exponent (the least-squares slope of log time against
log size: 1 is linear), the number of Python calls cProfile counts at each
size, and what the times depend on: the Python version, the number of
CPUs, the commit, a digest of the ``src/`` files measured (which tells a
working tree from its commit), the bytecode state and the state of the
cyclic garbage collector.  Every layer runs each time, so a run on any
commit that has this script gives the same files to compare.

The script only measures: it exits non-zero when a layer raises, never
because of a time.  The package is imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import pstats
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import iotsla  # noqa: E402

from support import gen_offer_texts, gen_scaled_agreement, gen_scaled_telemetry  # noqa: E402

CATALOG = iotsla.load_builtin_catalog()
OFFERS = 24  # offers ranked against each agreement's requirements, as in one bench op


def _agreement(services: int):
    text = gen_scaled_agreement(random.Random(5), services)
    return text, iotsla.parse(text)


def _requirements(doc) -> list:
    return [c for s in doc.services if s.kind == "ingestion"
            for slo in s.slos for c in slo.constraints]


# Each input builder takes the number of services and gives (the size of
# the input, the call to time).
def _parse(services):
    text, _ = _agreement(services)
    return len(text), lambda: iotsla.parse(text)


def _validate(services):
    text, doc = _agreement(services)
    return len(text), lambda: iotsla.validate(doc, CATALOG)


def _serialize(services):
    text, doc = _agreement(services)
    return len(text), lambda: iotsla.serialize(doc)


def _interchange(services):
    text, doc = _agreement(services)
    return len(text), lambda: iotsla.from_interchange(iotsla.to_interchange(doc))


def _load_offer(services):
    offers = gen_offer_texts(random.Random(6), "ingestion", services)
    return sum(map(len, offers)), lambda: [iotsla.load_offer(o, CATALOG) for o in offers]


def _rank_offers(services):
    _, doc = _agreement(services)
    requirements = _requirements(doc)
    offers = [iotsla.load_offer(o, CATALOG)
              for o in gen_offer_texts(random.Random(6), "ingestion", OFFERS)]
    return len(requirements), lambda: iotsla.rank_offers(requirements, offers, None, CATALOG)


def _telemetry(services):
    _, doc = _agreement(services)
    return gen_scaled_telemetry(random.Random(7), doc, 20 * services), doc


def _parse_telemetry(services):
    telemetry, _ = _telemetry(services)
    return len(telemetry), lambda: iotsla.parse_telemetry(telemetry)


def _monitor_fold(services):
    telemetry, doc = _telemetry(services)
    records = iotsla.parse_telemetry(telemetry)[0]
    return len(records), lambda: iotsla.monitor_document(doc, records, 60, CATALOG)


# layer -> (what its size counts, what it runs, its input builder)
LAYERS = {
    "parse": ("agreement bytes", "iotsla.parse: tokenize, parse and build", _parse),
    "validate": ("agreement bytes", "iotsla.validate on the parsed agreement", _validate),
    "serialize": ("agreement bytes", "iotsla.serialize on the parsed agreement", _serialize),
    "interchange": ("agreement bytes", "from_interchange(to_interchange(doc))", _interchange),
    "load_offer": ("offer bytes", "iotsla.load_offer on one offer per service", _load_offer),
    "rank_offers": ("requirements", f"iotsla.rank_offers: the agreement's ingestion "
                    f"requirements against {OFFERS} offers", _rank_offers),
    "parse_telemetry": ("telemetry bytes", "iotsla.parse_telemetry, 20 lines per service",
                        _parse_telemetry),
    "monitor_fold": ("records", "iotsla.monitor_document over the parsed records",
                     _monitor_fold),
}


def _median_time(run, runs: int) -> float:
    run()  # the warm-up fills lazy tables
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _calls(run) -> int:
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


def growth_exponent(sizes: list[int], times: list[float]) -> float | None:
    """The least-squares slope of log(time) against log(size); None when the
    sizes do not differ or a size or time is 0, as at the smallest scales."""
    if min(sizes) <= 0 or min(times) <= 0 or len(set(sizes)) < 2:
        return None
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            / sum((x - mean_x) ** 2 for x in xs))


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the path and bytes of each file under ``src/``, in path order."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """What the times depend on besides the code."""
    modules = [m for name, m in sys.modules.items() if name.startswith("iotsla")]
    cached = [m for m in modules
              if getattr(m, "__cached__", None) and Path(m.__cached__).exists()]
    status = _git("status", "--porcelain", "--", "src")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "src_sha256": src_digest(),
        "bytecode": {
            "dont_write_bytecode": sys.dont_write_bytecode,
            "pycache_prefix": sys.pycache_prefix,
            "modules_loaded": len(modules),
            "modules_with_cached_bytecode": len(cached),
        },
        "gc": {"enabled": gc.isenabled(), "thresholds": list(gc.get_threshold())},
        "clock": "time.perf_counter",
    }


def measure(layer: str, scale: int, runs: int) -> dict:
    unit, what, build = LAYERS[layer]
    services = [scale, 4 * scale, 16 * scale]
    sizes, times, calls = [], [], []
    for n in services:
        size, run = build(n)
        sizes.append(size)
        times.append(_median_time(run, runs))
        calls.append(_calls(run))
    return {
        "layer": layer,
        "what": what,
        "services": services,
        "size_unit": unit,
        "sizes": sizes,
        "runs": runs,
        "median_s": times,
        "growth_exponent": growth_exponent(sizes, times),
        "calls": calls,
        **environment(),
    }


def main(argv: list[str] | None = None) -> int:
    options = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    options.add_argument("--scale", type=int, default=24,
                         help="services in the smallest agreement (default 24)")
    options.add_argument("--runs", type=int, default=7, help="timed runs per size (default 7)")
    options.add_argument("--out", type=Path, default=ROOT,
                         help="directory for the BENCH_<layer>.json files")
    args = options.parse_args(argv)
    if args.scale < 1 or args.runs < 1:
        options.error("--scale and --runs must be at least 1")
    args.out.mkdir(parents=True, exist_ok=True)
    for layer in LAYERS:
        result = measure(layer, args.scale, args.runs)
        path = args.out / f"BENCH_{layer}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        medians = ", ".join(f"{t * 1e3:.2f}" for t in result["median_s"])
        growth = result["growth_exponent"]
        print(f"{layer}: {medians} ms at {result['sizes']} {result['size_unit']}, growth "
              f"{'n/a' if growth is None else f'{growth:.2f}'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
