"""In-memory spans around the public calls into iotsla.

:meth:`Tracer.install` replaces each traced function, in every loaded
``iotsla`` module that holds it, with a wrapper that records a span: name,
start, end, parent span and op id.  Spans stay in a list until the run
ends; :meth:`Tracer.dump` writes them out.  Self time is a span's duration
minus the time its direct child spans cover.  The program runs one op at a
time on one thread, so no layer ever waits: there is no wait time to record.

Counts are taken at the same boundaries, from each call's arguments and
result, after its span has closed.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function); the name's first part is the layer
TRACED = {
    "parser.parse": ("iotsla.parser", "parse"),
    "parser.serialize": ("iotsla.parser", "serialize"),
    "validator.validate": ("iotsla.validator", "validate"),
    "interchange.to_interchange": ("iotsla.interchange", "to_interchange"),
    "interchange.from_interchange": ("iotsla.interchange", "from_interchange"),
    "matcher.load_offer": ("iotsla.matcher", "load_offer"),
    "matcher.rank_offers": ("iotsla.matcher", "rank_offers"),
    "monitor.parse_telemetry": ("iotsla.monitor", "parse_telemetry"),
    "monitor.monitor_document": ("iotsla.monitor", "monitor_document"),
    "cli.main": ("iotsla.cli", "main"),
}
# Spanned by hand around its first, cold call only: warm calls hit a cache.
CATALOG_SPAN = "vocabulary.load_builtin_catalog"
FUNCTIONS = [*TRACED, CATALOG_SPAN]

# (stat, unit) reported for every function
STATS = [("calls", "count"), ("busy_s", "s"), ("share", "ratio"), ("p50_us", "us"),
         ("errors", "count"), ("growth_exp", "slope")]
COUNTS = [("parser.bytes", "bytes"), ("validator.diagnostics", "count"),
          ("matcher.verdicts", "count"), ("matcher.satisfied_ratio", "ratio"),
          ("monitor.lines", "count"), ("monitor.records", "count"),
          ("monitor.skipped_values", "count"), ("monitor.unknown_records", "count"),
          ("monitor.violations", "count"), ("monitor.used_ratio", "ratio"),
          ("monitor.monitor_document.us_per_record_slo", "us")]


def _line_count(text: str) -> int:
    return text.count("\n") + (1 if text and not text.endswith("\n") else 0)


def _count(name: str, args, result, counts: Counter) -> None:
    if name == "parser.parse":
        text = args[0]
        counts["parser.bytes"] += len(text.encode() if isinstance(text, str) else text)
    elif name == "validator.validate":
        counts["validator.diagnostics"] += len(result)
    elif name == "matcher.rank_offers":
        for report in result:
            counts["matcher.verdicts"] += len(report.verdicts)
            counts["matcher.satisfied"] += report.verdicts.count("satisfied")
    elif name == "monitor.parse_telemetry":
        counts["monitor.lines"] += _line_count(args[0])
        counts["monitor.records"] += len(result[0])
        counts["monitor.skipped_values"] += result[1]
    elif name == "monitor.monitor_document":
        doc, records = args[0], args[1]
        counts["monitor.unknown_records"] += result.skipped_records
        counts["monitor.violations"] += len(result.violations)
        counts["monitor.record_slos"] += len(records) * len(doc.all_slos())


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, op id, raised SlaError]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # -1 while setting up
        self.sizes: dict[int, tuple[int, int]] = {}  # op -> (size class, size)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, False]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # by name: each fresh import of iotsla makes a new class
            span[5] = any(k.__name__ == "SlaError" for k in type(exc).__mro__)
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        _count(name, args, result, self.counts)
        return result

    def install(self) -> None:
        """Wrap every traced function wherever an iotsla module holds it."""
        for name, (module, attr) in TRACED.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "iotsla" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def _wrap(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def adopt(self, child: dict, parent: int) -> None:
        """Take in the spans and counts a traced child process wrote."""
        offset = len(self.spans)
        for name, start, end, up, _op, error in child["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + offset,
                               self.op, error])
        self.counts.update(child["counts"])

    def dump(self, path) -> None:
        keys = ["name", "start_ns", "end_ns", "parent", "op", "error"]
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    def self_times(self) -> list[int]:
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function stats and counts, named ``<layer>.<fn>.<stat>``."""
        own = self.self_times()
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            spans = by_name.get(name, [])
            busy = sum(own[i] for i in spans) / 1e9
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.busy_s"] = busy
            out[f"{name}.share"] = busy / wall_s
            out[f"{name}.p50_us"] = statistics.median(
                (self.spans[i][2] - self.spans[i][1]) / 1e3 for i in spans) if spans else 0
            out[f"{name}.errors"] = sum(1 for i in spans if self.spans[i][5])
            out[f"{name}.growth_exp"] = self._growth([(i, own[i]) for i in spans])
        c = self.counts
        for key in ("parser.bytes", "validator.diagnostics", "matcher.verdicts",
                    "monitor.lines", "monitor.records", "monitor.skipped_values",
                    "monitor.unknown_records", "monitor.violations"):
            out[key] = c[key]
        out["matcher.satisfied_ratio"] = c["matcher.satisfied"] / c["matcher.verdicts"] \
            if c["matcher.verdicts"] else 0
        out["monitor.used_ratio"] = c["monitor.used"] / c["monitor.lines"] \
            if c["monitor.lines"] else 0
        out["monitor.monitor_document.us_per_record_slo"] = (
            out["monitor.monitor_document.busy_s"] * 1e6 / c["monitor.record_slos"]
            if c["monitor.record_slos"] else 0)
        return out

    def _growth(self, timed: list[tuple[int, int]]) -> float:
        """Slope of log self time against log input size across size classes.

        Each size class contributes its median size and median self time per
        call; 0 when the spans cover fewer than two classes.
        """
        classes: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
        for i, own in timed:
            sized = self.sizes.get(self.spans[i][4])
            if sized is not None and own > 0:
                classes[sized[0]][0].append(sized[1])
                classes[sized[0]][1].append(own)
        points = [(math.log(statistics.median(s)), math.log(statistics.median(t)))
                  for s, t in classes.values()]
        if len({x for x, _ in points}) < 2:
            return 0
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        return (sum((x - mx) * (y - my) for x, y in points)
                / sum((x - mx) ** 2 for x, _ in points))
