"""The three workloads: closed loops, one caller, one op at a time.

Each workload makes its inputs and their expected outputs in
:meth:`prepare`, from the seed alone.  :meth:`op` runs op ``i`` (inputs
cycle in a fixed order), times only the calls into iotsla, then checks the
outputs against the oracle and returns ``(seconds, problems)``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
import oracle

FIVE_KINDS = ["sensing", "networking", "ingestion", "stream_processing", "database"]


def _requirements(plan: gen.Plan) -> list[gen.Constraint]:
    """Constraints on ingestion services, in document order, as `match` takes them."""
    return [c for s in plan.services if s.kind == "ingestion"
            for slo in plan.slos if slo.target == s.id for c in slo.constraints]


def _violations(report) -> tuple:
    return tuple(sorted((e.slo_id, e.window_start, e.constraint.metric, e.observed.value)
                        for e in report.violations))


class Workload:
    name = ""
    warmup_ops = 3

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.tracer = None  # a spans.Tracer during the traced loop

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def prepare(self, sla, catalog) -> None:
        raise NotImplementedError

    def op(self, i: int) -> tuple[float, list[str]]:
        raise NotImplementedError

    def size(self, i: int) -> tuple[int, int] | None:
        """(size class, input size) of op ``i``, for growth exponents."""
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class MonitorDense(Workload):
    """One large agreement; one op folds one window-aligned telemetry batch."""

    name = "monitor_dense"
    BATCH_WINDOWS = (1, 2, 4)  # the three input sizes
    ROUNDS = 4

    def prepare(self, sla, catalog):
        self.sla, self.catalog = sla, catalog
        rng = self.rng()
        vocab = oracle.vocabulary_tables(catalog, sla.application_slo_terms())
        plan = gen.agreement(rng, "dense", FIVE_KINDS, n_services=60,
                             n_resource_slos=4)
        self.doc = sla.parse(gen.render(plan))
        self.batches = []
        window = 0
        for _ in range(self.ROUNDS):
            for size_class, width in enumerate(self.BATCH_WINDOWS):
                samples = gen.telemetry(rng, plan, window, width, per_metric=2)
                window += width
                text = "".join(s.line() + "\n" for s in samples)
                self.batches.append((size_class, text,
                                     oracle.expect_monitor(plan, vocab, samples)))

    def size(self, i):
        size_class, _text, expected = self.batches[i % len(self.batches)]
        return size_class, expected.lines

    def op(self, i):
        _cls, text, expected = self.batches[i % len(self.batches)]
        sla = self.sla
        start = time.perf_counter()
        records, skipped = sla.parse_telemetry(text)
        report = sla.monitor_document(self.doc, records, None, self.catalog)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.counts["monitor.used"] += expected.used
        problems = []
        if _violations(report) != expected.violations:
            problems.append(f"batch {i % len(self.batches)}: violations differ from the oracle")
        counts = (len(records), skipped, report.skipped_records)
        if counts != (expected.records, expected.skipped_values, expected.unknown_records):
            problems.append(f"batch {i % len(self.batches)}: line counts {counts} differ")
        return elapsed, problems


@dataclass
class CorpusEntry:
    size_class: int
    text: str
    codes: list[str]
    offers: list[str]
    weights: dict[str, Fraction] | None
    ranking: list


class AgreementCorpus(Workload):
    """Agreements at three sizes, some mutated; one op takes one agreement
    through parse, validate, serialize, interchange and offer ranking."""

    name = "agreement_corpus"
    SERVICES = (5, 46, 335)  # about 2 KB, 13 KB and 90 KB of text
    PER_SIZE = 6  # two clean agreements and four mutants per size
    OFFERS = 24

    def prepare(self, sla, catalog):
        self.sla, self.catalog = sla, catalog
        rng = self.rng()
        vocab = oracle.vocabulary_tables(catalog, ())
        directions = {term: row[2] for term, row in vocab["ingestion"].items()}
        codes = list(gen.VALIDATION_CODES)
        rng.shuffle(codes)
        self.entries = []
        for k in range(self.PER_SIZE):
            for size_class, n_services in enumerate(self.SERVICES):
                plan = gen.agreement(rng, f"corpus_{size_class}_{k}", FIVE_KINDS, n_services,
                                     n_resource_slos=n_services // 8)
                expected_codes = []
                if k >= 2:
                    expected_codes = [codes.pop()]
                    plan = gen.mutate(plan, expected_codes[0])
                offers = gen.offers(rng, self.OFFERS)
                weights = gen.OFFER_WEIGHTS if k % 2 else None
                ranking = oracle.expect_ranking(
                    _requirements(plan), [(pid, caps) for pid, caps, _ in offers],
                    directions, weights)
                self.entries.append(CorpusEntry(size_class, gen.render(plan), expected_codes,
                                                [text for *_, text in offers], weights, ranking))

    def size(self, i):
        entry = self.entries[i % len(self.entries)]
        return entry.size_class, len(entry.text)

    def op(self, i):
        entry = self.entries[i % len(self.entries)]
        sla, catalog = self.sla, self.catalog
        start = time.perf_counter()
        doc = sla.parse(entry.text)
        diagnostics = sla.validate(doc, catalog)
        canonical = sla.serialize(doc)
        back = sla.from_interchange(sla.to_interchange(doc))
        offers = [sla.load_offer(text, catalog) for text in entry.offers]
        requirements = [c for s in doc.services if s.kind == "ingestion"
                        for slo in s.slos for c in slo.constraints]
        reports = sla.rank_offers(requirements, offers, entry.weights, catalog)
        elapsed = time.perf_counter() - start
        problems = []
        where = f"agreement {i % len(self.entries)}"
        if sorted(d.code for d in diagnostics) != entry.codes:
            problems.append(f"{where}: codes {[d.code for d in diagnostics]}, "
                            f"expected {entry.codes}")
        if canonical != entry.text:
            problems.append(f"{where}: serialize is not a fixed point")
        if back != doc:
            problems.append(f"{where}: interchange round trip changed the document")
        got = [(r.provider_id, r.rank, r.score, r.verdicts) for r in reports]
        if got != entry.ranking:
            problems.append(f"{where}: ranking differs from the witness-set oracle")
        return elapsed, problems


def json_stream(text: str) -> list:
    """Every JSON value in ``text``, with exact numbers."""
    decoder = json.JSONDecoder(parse_float=Fraction, parse_int=Fraction)
    values, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return values
        value, pos = decoder.raw_decode(text, pos)
        values.append(value)


class CliSession(Workload):
    """One op is one ``iotsla`` process; the commands run in turn."""

    name = "cli_session"
    warmup_ops = 5
    WINDOWS = 1500  # about 20k telemetry lines
    OFFERS = 12

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.workdir = root / ".bench_work" / f"{self.name}-{seed}-{os.getpid()}"

    def prepare(self, sla, catalog):
        rng = self.rng()
        vocab = oracle.vocabulary_tables(catalog, sla.application_slo_terms())
        plan = gen.agreement(rng, "edge", ["sensing", "ingestion", "stream_processing"], 3,
                             n_resource_slos=0)
        # a sparse agreement: end to end, each service's time metric, and
        # the ingestion service's quality SLO
        plan.slos = [s for s in plan.slos if s.id == "app_e2e" or s.id.endswith("_t")
                     or (s.id.endswith("_q") and s.target.startswith("ingest"))]
        samples = gen.telemetry(rng, plan, 0, self.WINDOWS, per_metric=4)
        self.expected = oracle.expect_monitor(plan, vocab, samples)
        offers = gen.offers(rng, self.OFFERS)
        vocab_ingestion = {t: row[2] for t, row in vocab["ingestion"].items()}
        self.ranking = oracle.expect_ranking(
            _requirements(plan), [(pid, caps) for pid, caps, _ in offers],
            vocab_ingestion, gen.OFFER_WEIGHTS)
        self.catalog_keys = {(e.concept, e.term) for e in catalog}

        self.workdir.mkdir(parents=True, exist_ok=True)
        agreement = self.workdir / "edge.sla"
        agreement.write_text(gen.render(plan), encoding="utf-8")
        tele = self.workdir / "edge.telemetry"
        tele.write_text("".join(s.line() + "\n" for s in samples), encoding="utf-8")
        offer_paths = []
        for pid, _caps, text in offers:
            path = self.workdir / f"{pid}.offer.json"
            path.write_text(text, encoding="utf-8")
            offer_paths.append(str(path))
        weights = self.workdir / "weights.json"
        weights.write_text(json.dumps({k: int(v) for k, v in gen.OFFER_WEIGHTS.items()}),
                           encoding="utf-8")
        self.commands = [
            ("validate", ["validate", str(agreement), "--json"]),
            ("fmt", ["fmt", str(agreement), "--check"]),
            ("vocab", ["vocab", "export"]),
            ("match", ["match", str(agreement), *offer_paths, "--weights", str(weights),
                       "--json"]),
            ("monitor", ["monitor", str(agreement), str(tele), "--json"]),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.spans_file = self.workdir / "child-spans.json"

    def op(self, i):
        kind, args = self.commands[i % len(self.commands)]
        if self.tracer is None:
            command = [sys.executable, "-m", "iotsla", *args]
            start = time.perf_counter()
            proc = self._run(command)
            elapsed = time.perf_counter() - start
        else:
            command = [sys.executable, str(Path(__file__).parent / "child.py"),
                       str(self.spans_file), *args]
            parent = len(self.tracer.spans)
            start = time.perf_counter()
            proc = self.tracer.call("cli.subprocess", self._run, command)
            elapsed = time.perf_counter() - start
            self.tracer.adopt(json.loads(self.spans_file.read_text()), parent)
            if kind == "monitor":
                self.tracer.counts["monitor.used"] += self.expected.used
        return elapsed, self._check(kind, proc)

    def _run(self, command):
        return subprocess.run(command, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120)

    def _check(self, kind: str, proc) -> list[str]:
        out = proc.stdout
        if kind == "validate":
            ok = proc.returncode == 0 and json_stream(out) == [[]]
        elif kind == "fmt":
            ok = proc.returncode == 0 and out == ""
        elif kind == "vocab":
            ok = proc.returncode == 0 and {
                (e["concept"], e["term"]) for e in json_stream(out)[0]} == self.catalog_keys
        elif kind == "match":
            reports = json_stream(out)[0]["reports"] if proc.returncode == 0 else []
            ok = [(r["provider_id"], r["rank"], Fraction(r["score"]), tuple(r["verdicts"]))
                  for r in reports] == self.ranking
        else:
            expected = self.expected
            *events, summary = json_stream(out) or [{}]
            summary = summary.get("summary", {})
            got = tuple(sorted((e["slo_id"], e["window_start"], e["constraint"]["metric"],
                                Fraction(e["observed"])) for e in events))
            ok = (proc.returncode == (1 if expected.violations else 0)
                  and got == expected.violations
                  and (summary.get("records"), summary.get("skipped_values"),
                       summary.get("unknown_records"))
                  == (expected.records, expected.skipped_values, expected.unknown_records))
        if ok:
            return []
        return [f"{kind}: exit {proc.returncode}, output differs from the oracle; "
                f"stderr {proc.stderr[-300:]!r}"]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MonitorDense, AgreementCorpus, CliSession)}
