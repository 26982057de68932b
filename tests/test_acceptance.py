"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Each criterion carries a pinned runtime budget; exceeding it
fails the criterion even when the checks themselves pass.
"""

import json
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from iotsla import (
    MetricConstraint,
    ParseError,
    ProviderOffer,
    SATISFIED,
    TypedValue,
    VIOLATED,
    application_slo_terms,
    check_constraint_against_value,
    load_builtin_catalog,
    parse,
    serialize,
    validate,
)
from iotsla.cli import main
from iotsla.constraints import mean
from iotsla.matcher import rank_offers, score_offer
from iotsla.monitor import (
    data_completeness,
    end_to_end_response,
    monitor_document,
    parse_telemetry,
)

from support import (
    FIXTURES,
    fixture_text,
    gen_document,
    gen_matcher_instance,
    oracle_ranks,
    oracle_score,
    oracle_verdict,
)

# Every (concept, term) the builtin catalog must define, grouped by
# concept with the group's expected row count.  124 rows in total.
CATALOG_CHECKLIST = [
    # iot_device: 12 entries
    ("iot_device", "battery_life"),
    ("iot_device", "communication_mechanism"),
    ("iot_device", "communication_technology"),
    ("iot_device", "cpu_capacity"),
    ("iot_device", "device_accuracy"),
    ("iot_device", "device_precision"),
    ("iot_device", "memory_capacity"),
    ("iot_device", "mobility_of_devices"),
    ("iot_device", "number_of_devices"),
    ("iot_device", "storage_size"),
    ("iot_device", "type_of_device"),
    ("iot_device", "warranty_period"),
    # edge_resource: 12 entries
    ("edge_resource", "availability"),
    ("edge_resource", "communication_mechanism"),
    ("edge_resource", "communication_technology"),
    ("edge_resource", "cpu_capacity"),
    ("edge_resource", "gateway_delay"),
    ("edge_resource", "gateway_throughput"),
    ("edge_resource", "memory_capacity"),
    ("edge_resource", "mobility_of_devices"),
    ("edge_resource", "number_of_devices"),
    ("edge_resource", "publishing_rate"),
    ("edge_resource", "storage_buffer_size"),
    ("edge_resource", "type_of_device"),
    # cloud_resource: 19 entries
    ("cloud_resource", "access_protocols"),
    ("cloud_resource", "availability"),
    ("cloud_resource", "cpu_utilization"),
    ("cloud_resource", "horizontal_scale_down_limit"),
    ("cloud_resource", "horizontal_scale_up_limit"),
    ("cloud_resource", "input_output_storage_operations"),
    ("cloud_resource", "memory_capacity"),
    ("cloud_resource", "network_bandwidth"),
    ("cloud_resource", "num_cores_per_vm"),
    ("cloud_resource", "num_vcpus"),
    ("cloud_resource", "outage_length"),
    ("cloud_resource", "replication_factor"),
    ("cloud_resource", "storage_bandwidth"),
    ("cloud_resource", "storage_size"),
    ("cloud_resource", "storage_type"),
    ("cloud_resource", "throughput"),
    ("cloud_resource", "vcpu_capacity"),
    ("cloud_resource", "vertical_scale_down_limit"),
    ("cloud_resource", "vertical_scale_up_limit"),
    # sensing: 6 entries
    ("sensing", "availability"),
    ("sensing", "data_accuracy"),
    ("sensing", "data_freshness"),
    ("sensing", "data_integrity"),
    ("sensing", "data_type"),
    ("sensing", "sampling_rate"),
    # networking: 8 entries
    ("networking", "availability"),
    ("networking", "data_in_rate"),
    ("networking", "data_integrity"),
    ("networking", "data_out_rate"),
    ("networking", "jitter"),
    ("networking", "link_bandwidth"),
    ("networking", "network_delay"),
    ("networking", "packet_loss_rate"),
    # ingestion: 14 entries
    ("ingestion", "availability"),
    ("ingestion", "data_compression_support"),
    ("ingestion", "data_encryption_support"),
    ("ingestion", "data_in_rate"),
    ("ingestion", "data_integrity"),
    ("ingestion", "data_out_rate"),
    ("ingestion", "data_retention_time_limit"),
    ("ingestion", "delivery_guarantee_mechanism"),
    ("ingestion", "latency"),
    ("ingestion", "name_of_ingestion_framework"),
    ("ingestion", "publishing_rate"),
    ("ingestion", "replication_factor"),
    ("ingestion", "storage_size"),
    ("ingestion", "throughput"),
    # stream_processing: 18 entries
    ("stream_processing", "data_arrival_rate"),
    ("stream_processing", "data_completeness"),
    ("stream_processing", "data_compression_support"),
    ("stream_processing", "data_encryption_support"),
    ("stream_processing", "data_integrity"),
    ("stream_processing", "event_based_window_size"),
    ("stream_processing", "latency"),
    ("stream_processing", "micro_batch_size"),
    ("stream_processing", "miss_ratio"),
    ("stream_processing", "name_of_stream_processing_framework"),
    ("stream_processing", "read_capacity"),
    ("stream_processing", "replication_factor"),
    ("stream_processing", "sliding_window"),
    ("stream_processing", "throughput"),
    ("stream_processing", "time_based_window_size"),
    ("stream_processing", "total_number_of_queries"),
    ("stream_processing", "tumbling_window"),
    ("stream_processing", "write_capacity"),
    # batch_processing: 17 entries
    ("batch_processing", "batch_size"),
    ("batch_processing", "data_compression_support"),
    ("batch_processing", "data_encryption_support"),
    ("batch_processing", "data_integrity"),
    ("batch_processing", "max_memory_of_map_task"),
    ("batch_processing", "max_memory_of_reduce_task"),
    ("batch_processing", "name_of_batch_processing_framework"),
    ("batch_processing", "num_batch_jobs"),
    ("batch_processing", "num_mappers"),
    ("batch_processing", "num_reducers"),
    ("batch_processing", "process_running_frequency"),
    ("batch_processing", "read_capacity"),
    ("batch_processing", "replication_factor"),
    ("batch_processing", "response_time"),
    ("batch_processing", "throughput"),
    ("batch_processing", "total_number_of_queries"),
    ("batch_processing", "write_capacity"),
    # machine_learning: 5 entries
    ("machine_learning", "accuracy"),
    ("machine_learning", "class_of_ml"),
    ("machine_learning", "data_integrity"),
    ("machine_learning", "name_of_ml_algorithm"),
    ("machine_learning", "way_to_run_ml_algorithm"),
    # database: 13 entries
    ("database", "cache_hit_ratio"),
    ("database", "compression_support"),
    ("database", "data_encryption_support"),
    ("database", "data_integrity"),
    ("database", "read_capacity"),
    ("database", "read_error_rate"),
    ("database", "replication_factor"),
    ("database", "response_time"),
    ("database", "throughput"),
    ("database", "type_of_database"),
    ("database", "type_of_nosql"),
    ("database", "write_capacity"),
    ("database", "write_error_rate"),
]
EXPECTED_CATALOG_SIZE = 124


def _report(number: int, name: str, started: float, budget: float | None,
            failures: list[str]):
    elapsed = time.perf_counter() - started
    over = budget is not None and elapsed > budget
    ok = not failures and not over
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]"
    print(line, file=sys.stderr)
    if over:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    assert ok, "; ".join(failures)


def test_criterion_1_catalog_completeness():
    started = time.perf_counter()
    failures = []
    catalog = load_builtin_catalog()
    for concept, term in CATALOG_CHECKLIST:
        entry = catalog.lookup(term, concept)
        if entry is None:
            failures.append(f"missing ({concept}, {term})")
        elif entry.term != term:
            failures.append(f"({concept}, {term}) resolves to {entry.term}")
    if len(CATALOG_CHECKLIST) != EXPECTED_CATALOG_SIZE:
        failures.append("checklist size drifted")
    if len(catalog) != EXPECTED_CATALOG_SIZE:
        failures.append(f"catalog has {len(catalog)} entries, "
                        f"expected {EXPECTED_CATALOG_SIZE}")
    _report(1, "catalog completeness", started, 1.0, failures)


def test_criterion_2_worked_values():
    started = time.perf_counter()
    failures = []
    catalog = load_builtin_catalog()

    completeness = data_completeness(15, 30)
    if (completeness.value, completeness.unit) != (Fraction(50), "percent"):
        failures.append(f"data_completeness(15, 30) = {completeness}")

    availability = next(e for e in application_slo_terms()
                        if e.term == "availability")
    uptime = MetricConstraint("availability", ">=",
                              TypedValue.numeric(Fraction(9995, 100), "percent"))
    low = check_constraint_against_value(
        uptime, TypedValue.numeric(Fraction(999, 10), "percent"), availability)
    full = check_constraint_against_value(
        uptime, TypedValue.numeric(100, "percent"), availability)
    if low != VIOLATED:
        failures.append(f"99.90 vs >= 99.95 gave {low}")
    if full != SATISFIED:
        failures.append(f"100 vs >= 99.95 gave {full}")

    cpu = catalog.lookup("cpu_utilization", "cloud_resource")
    threshold = MetricConstraint("cpu_utilization", ">",
                                 TypedValue.numeric(80, "percent"))
    folded = mean([Fraction(85), Fraction(90)])
    if folded != Fraction(175, 2):
        failures.append(f"mean(85, 90) = {folded}")
    verdict = check_constraint_against_value(
        threshold, TypedValue.numeric(folded, "percent"), cpu)
    if verdict != SATISFIED:
        failures.append(f"mean 87.5 vs > 80 gave {verdict}")

    _report(2, "worked values, exact arithmetic", started, None, failures)


def test_criterion_3_parser_robustness():
    started = time.perf_counter()
    failures = []

    rng = random.Random(0xC3)
    for i in range(1000):
        doc = gen_document(rng)
        text = serialize(doc)
        try:
            if serialize(parse(text)) != text:
                failures.append(f"round-trip {i} not a fixed point")
                break
        except ParseError as exc:
            failures.append(f"round-trip {i} failed to reparse: {exc}")
            break

    seed_text = fixture_text("rhms.sla").encode()
    fuzz_rng = random.Random(0xF0)
    for i in range(100_000):
        if i % 3 == 0:
            data = fuzz_rng.randbytes(fuzz_rng.randint(0, 64))
        else:
            # mutate structured input: better coverage of deep parse paths
            data = bytearray(seed_text)
            for _ in range(fuzz_rng.randint(1, 8)):
                data[fuzz_rng.randrange(len(data))] = fuzz_rng.randrange(256)
            data = bytes(data)
        try:
            parse(data)
        except ParseError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point of the fuzz
            failures.append(f"fuzz input {i}: {type(exc).__name__}: {exc}")
            break

    _report(3, "parser round-trips and fuzzing", started, 120.0, failures)


def test_criterion_4_validator_fixtures():
    started = time.perf_counter()
    failures = []
    diags = validate(parse(fixture_text("rhms.sla")))
    if diags:
        failures.append(f"reference document has {len(diags)} diagnostics")
    for number in range(1, 14):
        code = f"V{number:03d}"
        doc = parse(fixture_text(f"mut_{code.lower()}.sla"))
        got = [d.code for d in validate(doc)]
        if got != [code]:
            failures.append(f"mut_{code.lower()} gave {got}")
    _report(4, "validator fixtures", started, 1.0, failures)


def test_criterion_5_matcher_oracle():
    started = time.perf_counter()
    failures = []
    catalog = load_builtin_catalog()
    rng = random.Random(0x5CA1E)

    for i in range(500):
        concept, reqs, offers, weights = gen_matcher_instance(rng)
        metrics = [c.metric for c in reqs]
        scores = {}
        for offer in offers:
            verdicts = []
            for c in reqs:
                entry = catalog.lookup(c.metric, concept)
                cap = offer.capabilities.get(c.metric)
                verdicts.append(oracle_verdict(
                    entry.direction, c.comparator, c.value.value,
                    cap.value if cap is not None else None))
            scores[offer.provider_id] = oracle_score(verdicts, metrics, weights)
        ranks = oracle_ranks(scores)

        reports = rank_offers(reqs, offers, weights, catalog)
        for report in reports:
            if report.score != scores[report.provider_id]:
                failures.append(f"instance {i}: score mismatch for "
                                f"{report.provider_id}")
            if report.rank != ranks[report.provider_id]:
                failures.append(f"instance {i}: rank mismatch for "
                                f"{report.provider_id}")
        if failures:
            break

        # weight-scale invariance (complete weights, common factor 10)
        full = {c.metric: Fraction((weights or {}).get(c.metric, 1))
                for c in reqs}
        scaled = {k: v * 10 for k, v in full.items()}
        if rank_offers(reqs, offers, full, catalog) != \
                rank_offers(reqs, offers, scaled, catalog):
            failures.append(f"instance {i}: weight scaling changed results")
            break

        # dominance monotonicity: improving one directional bound never
        # lowers the offer's score
        offer = rng.choice(offers)
        for metric, cap in offer.capabilities.items():
            direction = catalog.lookup(metric, concept).direction
            if direction == "lower_is_better":
                better = cap.value / 2
            elif direction == "higher_is_better":
                better = cap.value * 2
            else:
                continue
            improved_caps = dict(offer.capabilities)
            improved_caps[metric] = TypedValue.numeric(better, cap.unit)
            improved = ProviderOffer(offer.provider_id, concept, improved_caps)
            if score_offer(reqs, improved, weights, catalog) < \
                    score_offer(reqs, offer, weights, catalog):
                failures.append(f"instance {i}: improving {metric} "
                                "lowered the score")
        if failures:
            break

    _report(5, "matcher vs brute-force oracle", started, 30.0, failures)


def test_criterion_6_monitor_end_to_end():
    started = time.perf_counter()
    failures = []
    catalog = load_builtin_catalog()
    doc = parse(fixture_text("rhms.sla"))

    calm, _ = parse_telemetry(fixture_text("calm.telemetry"))
    report = monitor_document(doc, calm)
    if report.violations:
        failures.append(f"calm telemetry produced {len(report.violations)} "
                        "violations")

    spike, _ = parse_telemetry(fixture_text("spike.telemetry"))
    report = monitor_document(doc, spike)
    if len(report.violations) != 1:
        failures.append(f"spike telemetry produced {len(report.violations)} "
                        "violations, expected 1")
    else:
        event = report.violations[0]
        if (event.window_start, event.window_end) != (120, 180):
            failures.append(f"violation in window [{event.window_start},"
                            f"{event.window_end}), expected [120,180)")
        if event.observed.value != 9:
            failures.append(f"observed {event.observed.value}, expected 9")

    # three activities with per-window maxima {1,2,1} / {2,3,2} / {1,1,1}:
    # sums 4, 7, 3 against <= 5 flag exactly the middle window
    def tele(base, cap, ing, ana):
        return (f"{base + 1}\thb_sensing\tdata_freshness\t{cap} time_unit\n"
                f"{base + 2}\thb_sensing\tdata_freshness\t1 time_unit\n"
                f"{base + 3}\tingest_svc\tlatency\t{ing}\n"
                f"{base + 4}\tstream_svc\tlatency\t{ana}\n")

    text = tele(0, 1, 2, 1) + tele(60, 2, 3, 2) + tele(120, 1, 1, 1)
    records, _ = parse_telemetry(text)
    events = end_to_end_response(doc, records, 60, catalog)
    got = [(e.window_start, e.observed.value) for e in events]
    if got != [(60, 7)]:
        failures.append(f"three-activity windows flagged {got}, "
                        "expected [(60, 7)]")

    baseline = monitor_document(doc, spike)
    shuffle_rng = random.Random(0x5E7)
    for i in range(100):
        shuffled = spike[:]
        shuffle_rng.shuffle(shuffled)
        shuffled_report = monitor_document(doc, shuffled)
        if shuffled_report.violations != baseline.violations or \
                shuffled_report.slo_violation_counts != baseline.slo_violation_counts:
            failures.append(f"shuffle {i} changed the outcome")
            break

    _report(6, "monitor end to end", started, 10.0, failures)


def test_criterion_7_cli_contract(capsys):
    started = time.perf_counter()
    failures = []

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        broken_telemetry = tmp_path / "broken.telemetry"
        broken_telemetry.write_text("not\ttabbed\tright\n")
        garbage_sla = tmp_path / "garbage.sla"
        garbage_sla.write_text("this is not an agreement")
        missing = str(tmp_path / "missing_file")

        def fx(name):
            return str(FIXTURES / name)

        table = [
            # command argv, expected exit code
            (["validate", fx("rhms.sla")], 0),
            (["validate", fx("mut_v001.sla")], 1),
            (["validate", str(garbage_sla)], 1),
            (["validate", missing], 2),
            (["vocab", "show", "latency", "ingestion"], 0),
            (["vocab", "show", "latency", "weather"], 2),
            (["vocab", "list"], 0),
            (["match", fx("procure.sla"), fx("alpha.offer.json"),
              fx("beta.offer.json")], 0),
            (["match", fx("mut_v001.sla"), fx("alpha.offer.json")], 1),
            (["match", fx("procure.sla"), missing], 2),
            (["monitor", fx("rhms.sla"), fx("calm.telemetry")], 0),
            (["monitor", fx("rhms.sla"), fx("spike.telemetry")], 1),
            (["monitor", fx("rhms.sla"), str(broken_telemetry)], 2),
            (["monitor", fx("rhms.sla"), missing], 2),
            (["fmt", fx("rhms.sla"), "--check"], 0),
            (["fmt", fx("messy.sla"), "--check"], 1),
            (["fmt", str(garbage_sla)], 2),
            ([], 2),
        ]
        for argv, expected in table:
            code = main(argv)
            if code != expected:
                failures.append(f"iotsla {' '.join(argv)!s} exited {code}, "
                                f"expected {expected}")
        capsys.readouterr()  # swallow the table's output

        result = subprocess.run(
            [sys.executable, "-m", "iotsla", "validate", fx("rhms.sla")],
            capture_output=True,
        )
        if result.returncode != 0:
            failures.append("module entry point failed")

    _report(7, "CLI exit-code contract", started, 10.0, failures)
