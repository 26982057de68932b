"""Time each layer of iotsla at three input sizes, and each command end to
end; write BENCH_<layer>.json and BENCH_cli.json.

Run from the repository root:

    python tests/bench_layers.py [--scale N] [--runs K] [--out DIR]

Each layer runs on seeded input from ``support.py``'s generators, built
from agreements of N, 4N and 16N services (N = 24 by default, so the
largest agreement is about 90 KB), and its time at each size is the median
of K runs (default 7) after one warm-up run.  A layer may prepare each run
outside the timed call, as ``monitor_cold`` parses a fresh agreement.  One
file per layer goes to DIR (default: the repository root).  It records the
sizes, the median times, the growth exponent (the least-squares slope of
log time against log size: 1 is linear), the number of Python calls
cProfile counts at each size, and what the times depend on: the Python
version, the number of CPUs, the commit, a digest of the ``src/`` files
measured (which tells a working tree from its commit), the bytecode state
and the state of the cyclic garbage collector.  Every layer runs each
time, so a run on any commit that has this script gives the same files to
compare.

Then five commands (``validate --json``, ``fmt --check``, ``vocab
export``, ``match --json`` and ``monitor --json``) each run as their own
``python -m iotsla`` process on seeded input for 4N services, written to a
temporary directory, beside ``python -c pass``, the interpreter's floor.  Each
command's time is the median of K runs after one untimed run, given raw
and above the floor's median; the runs of all commands and the floor
interleave, so they share the machine's state.  BENCH_cli.json also
records whether the child processes could read and write bytecode.

The script only measures: it exits non-zero when a layer raises or a
command crashes, never because of a time.  The package is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import pstats
import random
import statistics
import subprocess
import sys
import tempfile
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
# the input, the call to time), and may add a call that prepares each run
# outside the timed one.
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


def _monitor_cold(services):
    text, doc = _agreement(services)
    records = iotsla.parse_telemetry(gen_scaled_telemetry(random.Random(7), doc, 20 * services))[0]
    fresh = [doc]

    def parse_again():  # an equal agreement, as an object the monitor has not seen
        fresh[0] = iotsla.parse(text)

    return len(records), lambda: iotsla.monitor_document(fresh[0], records, 60, CATALOG), \
        parse_again


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
    "monitor_fold": ("records", "iotsla.monitor_document over the parsed records, "
                     "reusing the index it built for the agreement in the warm-up run",
                     _monitor_fold),
    "monitor_cold": ("records", "iotsla.monitor_document over the parsed records, on an "
                     "agreement parsed again before each run, so each run builds its index",
                     _monitor_cold),
}


def _median_time(run, runs: int, prepare=None) -> float:
    times = []
    for _ in range(runs + 1):  # the first, a warm-up, fills lazy tables
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def _calls(run, prepare=None) -> int:
    if prepare is not None:
        prepare()
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


def _current_bytecode(source: Path) -> bool:
    """True when ``source`` has cached bytecode that this interpreter would
    use: the magic number, and the source's mtime and size, match."""
    try:
        header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
    except OSError:
        return False
    stat = source.stat()
    return header[:8] == importlib.util.MAGIC_NUMBER + bytes(4) and header[8:] == (
        (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
        + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little"))


def environment() -> dict:
    """What the times depend on besides the code."""
    modules = [m for name, m in sys.modules.items() if name.startswith("iotsla")]
    cached = [m for m in modules if _current_bytecode(Path(m.__file__))]
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
            "modules_with_current_bytecode": len(cached),
        },
        "gc": {"enabled": gc.isenabled(), "thresholds": list(gc.get_threshold())},
        "clock": "time.perf_counter",
    }


def measure(layer: str, scale: int, runs: int) -> dict:
    unit, what, build = LAYERS[layer]
    services = [scale, 4 * scale, 16 * scale]
    sizes, times, calls = [], [], []
    for n in services:
        size, run, *prepare = build(n)
        sizes.append(size)
        times.append(_median_time(run, runs, *prepare))
        calls.append(_calls(run, *prepare))
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


FLOOR = "python -c pass"


def _cli_inputs(directory: Path, services: int) -> tuple[dict, dict[str, list[str]]]:
    """Write seeded inputs for ``services`` services into ``directory``;
    give their sizes and each command's arguments after ``python -m iotsla``."""
    text, doc = _agreement(services)
    telemetry = gen_scaled_telemetry(random.Random(7), doc, 20 * services)
    offers = gen_offer_texts(random.Random(6), "ingestion", OFFERS)
    (directory / "agreement.sla").write_text(text, encoding="utf-8")
    (directory / "agreement.telemetry").write_text(telemetry, encoding="utf-8")
    for i, offer in enumerate(offers):
        (directory / f"offer{i}.json").write_text(offer, encoding="utf-8")
    offer_paths = [f"offer{i}.json" for i in range(len(offers))]
    sizes = {"agreement_bytes": len(text.encode()), "telemetry_lines": telemetry.count("\n"),
             "offers": len(offers)}
    return sizes, {
        "validate --json": ["validate", "agreement.sla", "--json"],
        "fmt --check": ["fmt", "--check", "agreement.sla"],
        "vocab export": ["vocab", "export"],
        "match --json": ["match", "agreement.sla", *offer_paths, "--json"],
        "monitor --json": ["monitor", "agreement.sla", "agreement.telemetry", "--json"],
    }


def _run_process(argv: list[str], cwd: str, env: dict) -> float:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    # exit 1 is a verdict (diagnostics, violations); anything else is a crash
    if done.returncode not in (0, 1) or b"Traceback" in done.stderr:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: "
                           f"{done.stderr.decode(errors='replace')[-2000:]}")
    return elapsed


def _child_bytecode(env: dict) -> dict:
    """Whether a child process may write bytecode, and how many package
    modules have current bytecode cached next to their source."""
    sources = sorted((ROOT / "src" / "iotsla").glob("*.py"))
    return {
        "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONPYCACHEPREFIX": env.get("PYTHONPYCACHEPREFIX"),
        "modules": len(sources),
        "modules_with_current_bytecode": sum(map(_current_bytecode, sources)),
    }


def measure_cli(scale: int, runs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    services = 4 * scale
    with tempfile.TemporaryDirectory() as directory:
        sizes, commands = _cli_inputs(Path(directory), services)
        argvs = {FLOOR: [sys.executable, "-c", "pass"],
                 **{name: [sys.executable, "-m", "iotsla", *args]
                    for name, args in commands.items()}}
        before = _child_bytecode(env)
        times: dict[str, list[float]] = {name: [] for name in argvs}
        for _ in range(runs + 1):  # the first round, untimed, may write bytecode
            for name, argv in argvs.items():
                times[name].append(_run_process(argv, directory, env))
        after = _child_bytecode(env)
    medians = {name: statistics.median(spent[1:]) for name, spent in times.items()}
    floor = medians.pop(FLOOR)
    return {
        "layer": "cli",
        "what": "python -m iotsla COMMAND, one process per run, beside the floor",
        "services": services,
        "inputs": sizes,
        "runs": runs,
        "floor": FLOOR,
        "floor_median_s": floor,
        "commands": {name: {"arguments": commands[name], "median_s": median,
                            "above_floor_s": median - floor}
                     for name, median in medians.items()},
        "child_bytecode": {"before": before, "after": after},
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
    result = measure_cli(args.scale, args.runs)
    (args.out / "BENCH_cli.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"cli floor ({FLOOR}): {result['floor_median_s'] * 1e3:.1f} ms", flush=True)
    for name, timing in result["commands"].items():
        print(f"cli {name}: {timing['median_s'] * 1e3:.1f} ms, "
              f"{timing['above_floor_s'] * 1e3:.1f} ms above the floor", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
