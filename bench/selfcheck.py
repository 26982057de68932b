"""The benchmark's own self-check: its oracle and iotsla agree on known cases.

1. The agreement of ``tests/fixtures/rhms.sla`` with the telemetry of
   ``spike.telemetry``: one violation, window [120,180), observed 9.
2. Three activities with per-window maxima {1,2,1}, {2,3,2} and {1,1,1}:
   sums 4, 7 and 3 against ``<= 5`` flag window 60 alone, with sum 7.

Both cases are rebuilt here from data, so the check needs only the
benchmark's files and ``src``.  Run standalone with
``python3 bench/selfcheck.py`` from the repository root.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import gen
import oracle
from gen import Constraint, Plan, Sample, ServicePlan, SloPlan
from oracle import E2E

RHMS = Plan(
    id="rhms", title="Remote Health Monitoring Service", application="smart_health",
    starts="2026-01-01", ends="2027-01-01",
    parties=[("hospital", "City Hospital Group", "consumer"),
             ("cloudco", "CloudCo Ltd", "provider")],
    slos=[SloPlan("app_response", "app", [Constraint(E2E, "<=", Fraction(5), "time_unit")]),
          SloPlan("net_quality", "net_svc",
                  [Constraint("network_delay", "<=", Fraction(1), "time_unit")])],
    activities=[("capture", "capture_eoi", ["hb_sensing"]),
                ("ingest", "ingest_data", ["ingest_svc"]),
                ("analyse_rt", "small_scale_rt_analysis", ["stream_svc"])],
    services=[ServicePlan("hb_sensing", "sensing", "hb_sensor",
                          [("sampling_rate", Fraction(5), "hz")]),
              ServicePlan("net_svc", "networking", "home_gateway"),
              ServicePlan("ingest_svc", "ingestion", "cloud_vm",
                          [("replication_factor", Fraction(3), None)]),
              ServicePlan("stream_svc", "stream_processing", "cloud_vm",
                          [("time_based_window_size", Fraction(60), "time_unit")])],
    resources=[("hb_sensor", "iot_device"), ("home_gateway", "edge_resource"),
               ("cloud_vm", "cloud_resource")],
)


def _sample(ts: int, target: str, metric: str, shown: str) -> Sample:
    return Sample(ts, target, metric, Fraction(shown.split(" ")[0]), shown)


def spike() -> list[Sample]:
    rows = []
    for base in (0, 60, 120):
        rows += [(base + 5, "hb_sensing", "data_freshness", "1 time_unit"),
                 (base + 10, "ingest_svc", "latency", "2"),
                 (base + 15, "stream_svc", "latency", "1"),
                 (base + 20, "net_svc", "network_delay", "0.5 time_unit")]
    rows.append((165, "ingest_svc", "latency", "7"))
    return [_sample(*row) for row in rows]


def three_activities() -> list[Sample]:
    rows = []
    for base, capture, ingest, analyse in ((0, 1, 2, 1), (60, 2, 3, 2), (120, 1, 1, 1)):
        rows += [(base + 1, "hb_sensing", "data_freshness", f"{capture} time_unit"),
                 (base + 2, "hb_sensing", "data_freshness", "1 time_unit"),
                 (base + 3, "ingest_svc", "latency", str(ingest)),
                 (base + 4, "stream_svc", "latency", str(analyse))]
    return [_sample(*row) for row in rows]


CASES = [("rhms + spike", spike, [("app_response", 120, E2E, Fraction(9))]),
         ("three activities", three_activities, [("app_response", 60, E2E, Fraction(7))])]


def run(sla, catalog) -> list[str]:
    """Problems found; empty when oracle, program and known answers agree."""
    problems = []
    text = gen.render(RHMS)
    doc = sla.parse(text)
    if sla.serialize(doc) != text:
        problems.append("rhms: the generator's text is not the canonical form")
    vocab = oracle.vocabulary_tables(catalog, sla.application_slo_terms())
    for name, make, known in CASES:
        samples = make()
        records, _ = sla.parse_telemetry("".join(s.line() + "\n" for s in samples))
        report = sla.monitor_document(doc, records, None, catalog)
        got = sorted((e.slo_id, e.window_start, e.constraint.metric, e.observed.value)
                     for e in report.violations)
        expected = list(oracle.expect_monitor(RHMS, vocab, samples).violations)
        if not got == expected == known:
            problems.append(f"{name}: program {got}, oracle {expected}, known {known}")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import iotsla

    found = run(iotsla, iotsla.load_builtin_catalog())
    for problem in found:
        print(problem)
    print("self-check:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
