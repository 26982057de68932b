"""Windowed SLO evaluation over telemetry."""

import copy
import dataclasses
import pickle
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from iotsla import (
    SATISFIED,
    VIOLATED,
    Catalog,
    EmptyWindowError,
    MetricConstraint,
    ParseError,
    Slo,
    SourceSpan,
    TelemetryFormatError,
    TypedValue,
    UnitMismatchError,
    VocabularyEntry,
    check_constraint_against_value,
    load_builtin_catalog,
    parse,
)
from iotsla import monitor
from iotsla.constraints import decimal_repr
from iotsla.monitor import (
    CoverageGap,
    EvaluationWindow,
    TelemetryRecord,
    ViolationEvent,
    WindowAggregate,
    availability_ratio,
    data_completeness,
    end_to_end_response,
    evaluate_window,
    miss_ratio,
    monitor_document,
    parse_telemetry,
)
from iotsla.validator import validate

from support import (
    ACCURACY_MIN,
    ACCURACY_TELEMETRY,
    E2E_TEXT,
    E2E_TEXT_TELEMETRY,
    ENCRYPTION_SLO,
    ENCRYPTION_TELEMETRY,
    fixture_text,
    with_accuracy_slo,
    with_slo,
    with_text_e2e_bound,
)


def _records(name):
    records, skipped = parse_telemetry(fixture_text(name))
    assert skipped == 0
    return records


def rec(ts, target, metric, value, unit=None):
    return TelemetryRecord(ts, target, metric, TypedValue.numeric(value, unit))


# --- telemetry reading ---------------------------------------------------------

def test_parse_telemetry_fixture():
    records = _records("calm.telemetry")
    assert len(records) == 12
    first = records[0]
    assert first.timestamp == 5
    assert (first.target_id, first.metric) == ("hb_sensing", "data_freshness")
    assert first.value.value == 1 and first.value.unit == "time_unit"
    # unit column optional
    assert records[1].value.unit is None


def test_parse_telemetry_value_variants():
    records, skipped = parse_telemetry(
        "1\tt\tm\t2.5\n"
        "2\tt\tm\ttrue\n"
        "3\tt\tm\twifi\n"
        "4\tt\tm\tnot a value\n"
        "5\tt\tm\t\n"
    )
    assert [r.value.tag for r in records] == ["numeric", "boolean", "text"]
    assert records[0].value.value == Fraction(5, 2)
    assert skipped == 2


@pytest.mark.parametrize("line,line_no", [
    ("1\tt\tm", 1),
    ("x\tt\tm\t5", 1),
    ("-3\tt\tm\t5", 1),
    ("9\t\tm\t5", 1),
    ("1\tt\tm\t1\n2\tt\tm\t2\nbroken here", 3),
    ("1_000\tt\tm\t5", 1),
    (" 7\tt\tm\t5", 1),
    ("1\tt\tm\t5\n+8\tt\tm\t5", 2),
    ("\u0663\tt\tm\t5", 1),
])
def test_framing_errors_are_fatal(line, line_no):
    with pytest.raises(TelemetryFormatError) as info:
        parse_telemetry(line)
    assert info.value.line_no == line_no


@pytest.mark.parametrize("value", ["9" * 5000, "1." + "9" * 5000, "9" * 5000 + " ms"],
                         ids=["integer", "decimal", "with_unit"])
def test_over_long_values_are_unreadable(value):
    # beyond Python's int digit limit: a counted skip, not a ValueError
    records, skipped = parse_telemetry(f"1\tt\tm\t{value}\n2\tt\tm\t5\n")
    assert len(records) == 1 and skipped == 1


def test_timestamp_messages_are_kept():
    for line, message in [("x\tt\tm\t5", "bad timestamp 'x'"),
                          ("+8\tt\tm\t5", "bad timestamp '+8'"),
                          ("-3\tt\tm\t5", "timestamp must be non-negative")]:
        with pytest.raises(TelemetryFormatError) as info:
            parse_telemetry(line)
        assert info.value.message == message


def test_only_ascii_digits_make_numbers():
    # Arabic-Indic three-three is text, not the number 33
    records, skipped = parse_telemetry("1\tt\tm\t\u0663\u0663\n2\tt\tm\t33\n")
    assert [r.value for r in records] == [TypedValue.text("\u0663\u0663"),
                                          TypedValue.numeric(33)]
    assert skipped == 0


def test_over_long_timestamp_is_a_format_error():
    with pytest.raises(TelemetryFormatError) as info:
        parse_telemetry("9" * 5000 + "\tt\tm\t5")
    assert info.value.line_no == 1


def _mostly(common, *rare):
    """``common`` three times as often as each of ``rare``."""
    return st.sampled_from([common] * 3 + list(rare)).flatmap(lambda strategy: strategy)


# Numerals near and past the 4300-digit bound, in total or on one side of
# the point, mostly with ASCII digits.
_RUNS = st.builds(str.__mul__, _mostly(st.sampled_from("019"), st.sampled_from("\u0663\uff19")),
                  st.integers(1, 5000) | st.integers(1, 4))
_NUMERALS = st.builds(
    lambda whole, point, fraction, unit: whole + point + fraction + unit,
    _RUNS, _mostly(st.sampled_from(["", "."]), st.sampled_from(["e", "_"])), _RUNS,
    _mostly(st.sampled_from(["", " ms", " time_unit"]), st.sampled_from([" ", " a b"])),
)
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=6)
_ODD = st.sampled_from(["", "-3", "+8", " 7", "1_0", "true"])
# mostly four fields with a readable timestamp, so that values get read
_LINES = _mostly(
    st.tuples(
        _mostly(st.integers(0, 10**6).map(str), _RUNS, _ODD),
        _mostly(st.just("net_svc"), _TEXT),
        _mostly(st.just("network_delay"), _TEXT),
        _mostly(_NUMERALS, _TEXT, _ODD),
    ).map("\t".join),
    st.lists(_TEXT, max_size=5).map("\t".join),
)


@settings(max_examples=150, deadline=2000)
@given(lines=st.lists(_LINES, max_size=3))
@example(lines=[f"0\tnet_svc\tnetwork_delay\t{'9' * 3000}.{'9' * 3000} time_unit"])
@example(lines=["9" * 5000 + "\tt\tm\t5"])
def test_telemetry_is_total_and_written_back(lines):
    try:
        records, skipped = parse_telemetry(lines)
    except TelemetryFormatError:
        return
    assert len(records) + skipped == sum(1 for line in lines if line.strip())
    for record in records:
        if record.value.tag == "numeric":
            # what is read is written back in the one numeral form, and reads
            # back to the same value
            text = decimal_repr(record.value.magnitude)
            again, _ = parse_telemetry([f"0\tt\tm\t{text}"])
            assert again[0].value.magnitude == record.value.magnitude


@pytest.mark.parametrize("digit", ["\u0661", "\u0967", "\uff11"],
                         ids=["arabic_indic", "devanagari", "fullwidth"])
def test_non_ascii_digits_are_no_numerals(rhms_text, digit):
    # .sla text and telemetry share one numeral grammar: ASCII digits only
    text = rhms_text.replace("network_delay <= 1", f"network_delay <= {digit}")
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (23, 20)
    records, _ = parse_telemetry(f"0\tnet_svc\tnetwork_delay\t{digit} time_unit")
    assert records == []


_VALUES = st.one_of(
    st.tuples(st.from_regex(r"[0-9]{1,12}(\.[0-9]{1,12})?", fullmatch=True),
              st.sampled_from(["", "ms", "percent"])).map(
        lambda pair: (" ".join(filter(None, pair)),
                      TypedValue.numeric(Fraction(Decimal(pair[0])), pair[1] or None))),
    st.booleans().map(lambda flag: (str(flag).lower(), TypedValue.boolean(flag))),
    st.from_regex(r"[a-z_]{1,8}", fullmatch=True).filter(lambda t: t not in ("true", "false"))
    .map(lambda word: (word, TypedValue.text(word))),
)


@given(timestamp=st.integers(0, 10**9), value=_VALUES)
def test_telemetry_records_equal_checked_ones(timestamp, value):
    # the reader builds what the grammar checked without the checks; the
    # result must be the value the checked constructors build
    text, expected = value
    (record,), skipped = parse_telemetry(f"{timestamp}\tsvc\tlatency\t{text}")
    checked = TelemetryRecord(timestamp, "svc", "latency", expected)
    assert skipped == 0
    assert record == checked and hash(record) == hash(checked)
    assert record.value == expected and hash(record.value) == hash(expected)


_TIMESTAMP_TEXTS = st.one_of(
    st.integers(-10**40, 10**40).map(str),
    st.integers(4295, 4305).map(lambda digits: "9" * digits),  # about int()'s limit
)
_VALUE_TEXTS = st.one_of(
    st.tuples(st.from_regex(r"[0-9]{1,40}(\.[0-9]{1,40})?", fullmatch=True),
              st.sampled_from(["", " ms", " percent", " furlong", " time_unit"])).map("".join),
    st.sampled_from(["true", "false", "True", "yes"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
            min_size=1, max_size=8),
)


@given(lines=st.lists(st.tuples(_TIMESTAMP_TEXTS, st.sampled_from(["svc", "app"]),
                                st.sampled_from(["latency", "up"]), _VALUE_TEXTS),
                      min_size=1, max_size=6))
@example(lines=[("0", "svc", "latency", "1.50 ms"), ("7", "app", "up", "true"),
                ("-3", "svc", "latency", "1"), ("9" * 4301, "svc", "latency", "1")])
def test_parsed_records_rebuild_through_the_checks(lines):
    # the reader builds values and records without the constructors' checks;
    # each must pass them and come back equal, of the same type and hash
    for fields in lines:
        try:
            records, _ = parse_telemetry("\t".join(fields))
        except TelemetryFormatError:
            digits = fields[0].lstrip("-")
            assert len(digits) > 4300 or (fields[0].startswith("-") and digits.strip("0"))
            continue
        for record in records:
            rebuilt, value = TelemetryRecord(*record), TypedValue(*record.value)
            assert rebuilt == record and type(rebuilt) is type(record)
            assert hash(rebuilt) == hash(record)
            assert value == record.value and type(value) is type(record.value)
            assert hash(value) == hash(record.value)


def _counting_index(monkeypatch) -> list:
    built = []

    class Counted(monitor._Index):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(monitor, "_Index", Counted)
    return built


def test_monitor_document_builds_each_index_once(monkeypatch, rhms_text, catalog):
    built = _counting_index(monkeypatch)
    doc = parse(rhms_text)
    records, _ = parse_telemetry(fixture_text("spike.telemetry"))
    reports = [monitor_document(doc, records, None, catalog) for _ in range(3)]
    assert len(built) == 1
    assert reports[0] == reports[1] == reports[2] and reports[0].violations
    assert monitor_document(doc, records) == reports[0]  # None is the same builtin catalog
    assert len(built) == 1
    # an equal document parsed again, then another catalog, each build one more
    assert monitor_document(parse(rhms_text), records, None, catalog) == reports[0]
    assert len(built) == 2
    assert monitor_document(doc, records, None, catalog.merge([])) == reports[0]
    assert len(built) == 3


def test_an_index_that_cannot_be_built_is_not_kept(monkeypatch, catalog):
    built = _counting_index(monkeypatch)
    document = parse(fixture_text("mut_v007.sla"))
    for _ in range(2):
        with pytest.raises(UnitMismatchError):
            monitor_document(document, [], None, catalog)
    assert len(built) == 2


def test_concurrent_calls_never_see_another_documents_index(rhms_text, catalog):
    # the kept entry is one tuple, rebound whole: threads alternating two
    # agreements, switching often, each get their own agreement's report
    spike, _ = parse_telemetry(fixture_text("spike.telemetry"))
    docs = [parse(rhms_text), parse(with_slo(rhms_text, ENCRYPTION_SLO))]
    records = spike + parse_telemetry(ENCRYPTION_TELEMETRY)[0]
    expected = [monitor_document(doc, records, None, catalog) for doc in docs]
    assert expected[0] != expected[1]
    wrong = []

    def check(turn):
        for k in range(40):
            doc = (turn + k) % 2
            if monitor_document(docs[doc], records, None, catalog) != expected[doc]:
                wrong.append(doc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(turn,)) for turn in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_the_kept_index_outlives_the_other_entry_points(rhms_doc, catalog):
    # end_to_end_response narrows its own index to the summed constraints;
    # the index monitor_document keeps must not be that one
    records, _ = parse_telemetry(fixture_text("spike.telemetry")
                                 + "170\tnet_svc\tnetwork_delay\t3 time_unit\n")
    before = monitor_document(rhms_doc, records, None, catalog)
    assert {event.slo_id for event in before.violations} == {"app_response", "net_quality"}
    assert end_to_end_response(rhms_doc, records, None, catalog)
    for slo in rhms_doc.all_slos():
        evaluate_window(slo, records, None, catalog, concept="application"
                        if slo.target == "app" else "networking")
    assert monitor_document(rhms_doc, records, None, catalog) == before


def test_blank_lines_skipped():
    records, skipped = parse_telemetry("\n1\tt\tm\t5\n\n  \n")
    assert len(records) == 1 and skipped == 0


# --- window arithmetic -----------------------------------------------------------

def test_window_partition():
    w = EvaluationWindow(60)
    assert w.index_of(0) == 0
    assert w.index_of(59) == 0
    assert w.index_of(60) == 1  # boundary goes to the next window
    assert w.bounds(2) == (120, 180)
    with pytest.raises(ValueError):
        EvaluationWindow(0)


def test_negative_timestamp_rejected():
    with pytest.raises(ValueError):
        rec(-1, "t", "m", 1)


# --- fixture scenarios ------------------------------------------------------------

def test_calm_telemetry_no_violations(rhms_doc):
    report = monitor_document(rhms_doc, _records("calm.telemetry"))
    assert report.violations == []
    assert not report.violated
    assert report.coverage_gaps == []
    assert report.skipped_records == 0
    assert report.slo_violation_counts == {"app_response": 0, "net_quality": 0}


def test_spike_telemetry_single_violation(rhms_doc):
    report = monitor_document(rhms_doc, _records("spike.telemetry"))
    assert len(report.violations) == 1
    event = report.violations[0]
    assert (event.window_start, event.window_end) == (120, 180)
    assert event.slo_id == "app_response"
    assert event.observed.value == 9  # 1 + max(2, 7) + 1
    assert event.observed.unit == "time_unit"
    assert report.slo_violation_counts["app_response"] == 1


def test_permutation_invariance(rhms_doc):
    records = _records("spike.telemetry")
    baseline = monitor_document(rhms_doc, records)
    rng = random.Random(5)
    for _ in range(20):
        shuffled = records[:]
        rng.shuffle(shuffled)
        report = monitor_document(rhms_doc, shuffled)
        assert report.violations == baseline.violations
        assert report.slo_violation_counts == baseline.slo_violation_counts


# --- end-to-end response ------------------------------------------------------------

def _e2e_records():
    # per-activity maxima by window: [1,2,1] / [2,3,2] / [1,1,1] -> 4, 7, 3
    rows = []
    for base, (cap, ing, ana) in ((0, (1, 2, 1)), (60, (2, 3, 2)), (120, (1, 1, 1))):
        rows += [
            rec(base + 1, "hb_sensing", "data_freshness", cap, "time_unit"),
            rec(base + 2, "hb_sensing", "data_freshness", 1, "time_unit"),
            rec(base + 3, "ingest_svc", "latency", ing),
            rec(base + 4, "stream_svc", "latency", ana),
        ]
    return rows


def test_e2e_flags_exactly_the_affected_window(rhms_doc, catalog):
    events = end_to_end_response(rhms_doc, _e2e_records(), 60, catalog)
    assert [(e.window_start, e.observed.value) for e in events] == [(60, 7)]


def test_e2e_missing_activity_contributes_zero(rhms_doc, catalog):
    records = [r for r in _e2e_records() if r.target_id != "hb_sensing"]
    gaps = []
    events = end_to_end_response(rhms_doc, records, 60, catalog,
                                 on_coverage_gap=gaps.append)
    # window 1 sums to 3 + 2 = 5, inside the bound again
    assert events == []
    assert {(g.window_start, g.activity_id) for g in gaps} == {
        (0, "capture"), (60, "capture"), (120, "capture"),
    }


def test_e2e_ignores_non_time_metrics(rhms_doc, catalog):
    records = _e2e_records() + [
        rec(61, "ingest_svc", "throughput", 10**9, "bytes_per_s"),
    ]
    events = end_to_end_response(rhms_doc, records, 60, catalog)
    assert [(e.window_start, e.observed.value) for e in events] == [(60, 7)]


def test_e2e_accepts_any_iterable(rhms_doc, catalog):
    events = end_to_end_response(rhms_doc, iter(_e2e_records()), 60, catalog)
    assert len(events) == 1


# --- per-SLO evaluation ---------------------------------------------------------------

def _slo(metric, comparator, value, unit=None):
    return Slo("s", "svc", (
        MetricConstraint(metric, comparator, TypedValue.numeric(value, unit)),
    ))


def test_max_aggregator_folds_windows(catalog):
    # ingestion latency folds by max: [4, 8] -> 8, [4, 4] -> 4
    slo = _slo("latency", "<=", 5, "time_unit")
    records = [
        rec(0, "svc", "latency", 4), rec(10, "svc", "latency", 8),
        rec(70, "svc", "latency", 4), rec(80, "svc", "latency", 4),
    ]
    events = evaluate_window(slo, records, 60, catalog, concept="ingestion")
    assert [(e.window_start, e.observed.value) for e in events] == [(0, 8)]


def test_mean_aggregator_folds_windows(catalog):
    slo = _slo("cpu_utilization", ">", 80, "percent")
    records = [
        rec(0, "svc", "cpu_utilization", 85, "percent"),
        rec(10, "svc", "cpu_utilization", 90, "percent"),
        rec(70, "svc", "cpu_utilization", 60, "percent"),
        rec(80, "svc", "cpu_utilization", 80, "percent"),
    ]
    events = evaluate_window(slo, records, 60, catalog, concept="cloud_resource")
    # window 0 mean 87.5 satisfies; window 1 mean 70 does not
    assert [(e.window_start, e.observed.value) for e in events] == [
        (60, 70),
    ]


def test_ratio_over_booleans(catalog):
    slo = Slo("s", "svc", (
        MetricConstraint("availability", ">=",
                         TypedValue.numeric(80, "percent")),
    ))
    samples = [True, True, True, False]  # 75 percent
    records = [
        TelemetryRecord(i, "svc", "availability", TypedValue.boolean(b))
        for i, b in enumerate(samples)
    ]
    events = evaluate_window(slo, records, 60, catalog, concept="ingestion")
    assert len(events) == 1
    assert events[0].observed.value == 75


def test_non_numeric_metric_checked_per_sample():
    overlay = Catalog([VocabularyEntry(
        term="link_mode", concept="networking", description="negotiated mode",
        value_type="text", canonical_unit="dimensionless", direction="none",
        aggregator="none", kind="qos_metric",
    )])
    catalog = load_builtin_catalog().merge(overlay)
    slo = Slo("s", "svc", (
        MetricConstraint("link_mode", "==", TypedValue.text("duplex")),
    ))
    records = [
        TelemetryRecord(9, "svc", "link_mode", TypedValue.text("duplex")),
        TelemetryRecord(12, "svc", "link_mode", TypedValue.text("simplex")),
        TelemetryRecord(3, "svc", "link_mode", TypedValue.text("half")),
    ]
    events = evaluate_window(slo, records, 60, catalog, concept="networking")
    assert len(events) == 1
    assert events[0].observed.value == "half"  # earliest offender


def test_unit_mismatched_samples_ignored(catalog):
    slo = _slo("throughput", ">=", 1, "mb_per_s")
    records = [
        rec(0, "svc", "throughput", 5, "time_unit"),  # wrong family, dropped
        rec(1, "svc", "throughput", Fraction(1, 2), "mb_per_s"),
    ]
    events = evaluate_window(slo, records, 60, catalog, concept="ingestion")
    assert len(events) == 1
    assert events[0].observed.value == Fraction(500000)  # canonical bytes_per_s


def test_windows_without_samples_give_no_verdict(catalog):
    slo = _slo("latency", "<=", 1)
    records = [rec(500, "svc", "latency", 99)]
    events = evaluate_window(slo, records, 60, catalog, concept="ingestion")
    assert [(e.window_start, e.window_end) for e in events] == [(480, 540)]


def test_unknown_records_counted(rhms_doc):
    records = _records("calm.telemetry") + [
        rec(5, "nonexistent", "latency", 1),
        rec(6, "hb_sensing", "made_up_metric", 1),
    ]
    report = monitor_document(rhms_doc, records)
    assert report.skipped_records == 2
    assert report.violations == []


def test_no_records_reported_as_gap(rhms_doc):
    report = monitor_document(rhms_doc, [])
    assert report.violations == []
    assert len(report.coverage_gaps) == 1
    assert "no telemetry" in report.coverage_gaps[0].note


def test_alias_metric_names_match(catalog):
    slo = Slo("s", "svc", (
        MetricConstraint("sampling_rate", ">=", TypedValue.numeric(5, "hz")),
    ))
    records = [
        TelemetryRecord(0, "svc", "sampling_frequency",
                        TypedValue.numeric(2, "hz")),
    ]
    events = evaluate_window(slo, records, 60, catalog, concept="sensing")
    assert len(events) == 1


def test_an_end_to_end_slo_spelt_with_an_alias_is_summed(rhms_text):
    builtin = load_builtin_catalog()
    catalog = builtin.merge([dataclasses.replace(
        builtin.lookup("end_to_end_response_time", "application"), aliases=("e2e_time",))])
    canonical = parse(rhms_text)
    aliased = parse(rhms_text.replace("end_to_end_response_time <=", "e2e_time <="))
    assert validate(aliased, catalog) == validate(canonical, catalog) == []
    # the window [180,240) has ingestion samples only: two coverage gaps
    records = _records("spike.telemetry") + [rec(185, "ingest_svc", "latency", 1)]

    def outcome(report):
        return ([(e.window_start, e.slo_id, e.observed) for e in report.violations],
                report.coverage_gaps, report.skipped_records, report.slo_violation_counts)

    expected = outcome(monitor_document(canonical, records, 60, catalog))
    assert expected[0] == [(120, "app_response", TypedValue.numeric(9, "time_unit"))]
    assert len(expected[1]) == 2
    assert outcome(monitor_document(aliased, records, 60, catalog)) == expected
    assert [e.observed for e in end_to_end_response(aliased, records, 60, catalog)] == [
        TypedValue.numeric(9, "time_unit")]


def test_a_text_end_to_end_term_is_sampled_not_summed(rhms_text):
    catalog = load_builtin_catalog().merge([VocabularyEntry.from_dict(E2E_TEXT)])
    doc = parse(with_text_e2e_bound(rhms_text))
    assert validate(doc, catalog) == []
    records, _ = parse_telemetry(E2E_TEXT_TELEMETRY)
    report = monitor_document(doc, records, 60, catalog)
    # the activities' time samples sum to 12, but a text term is sampled, not summed
    assert [(e.window_start, e.slo_id, e.observed) for e in report.violations] == [
        (0, "app_response", TypedValue.text("slow"))]
    assert report.coverage_gaps == [] and report.skipped_records == 0
    assert end_to_end_response(doc, records, 60, catalog) == []


def test_a_document_without_activities_does_not_sample_its_end_to_end_term(rhms_doc, catalog):
    doc = dataclasses.replace(rhms_doc, activities=())
    records = [rec(0, "app", "end_to_end_response_time", 99, "time_unit")]
    report = monitor_document(doc, records, 60, catalog)
    assert report.violations == [] and report.skipped_records == 0
    assert end_to_end_response(doc, records, 60, catalog) == []


def test_overlay_aggregator_reaches_the_monitor(rhms_text):
    doc = parse(with_accuracy_slo(rhms_text))
    records, _ = parse_telemetry(ACCURACY_TELEMETRY)
    assert monitor_document(doc, records).violations == []  # builtin mean: 90
    overlay = [VocabularyEntry.from_dict(ACCURACY_MIN)]
    report = monitor_document(doc, records, 60, load_builtin_catalog().merge(overlay))
    assert [(e.slo_id, e.observed.value) for e in report.violations] == [
        ("app_accuracy", 80),
    ]


def test_incomparable_samples_on_non_numeric_metrics_ignored(rhms_text):
    doc = parse(with_slo(rhms_text, ENCRYPTION_SLO))
    records, _ = parse_telemetry(ENCRYPTION_TELEMETRY)
    report = monitor_document(doc, records)
    assert report.violations == [] and report.skipped_records == 0
    # a boolean sample in the same window is still checked
    records += [TelemetryRecord(6, "ingest_svc", "data_encryption_support",
                                TypedValue.boolean(False))]
    report = monitor_document(doc, records)
    assert [(e.slo_id, e.observed.value) for e in report.violations] == [("enc", False)]


def test_custom_window_width(rhms_doc):
    records = _records("spike.telemetry")
    report = monitor_document(rhms_doc, records, window=30)
    starts = [e.window_start for e in report.violations]
    assert starts == [150]  # the 7 at t=165 now lands in [150,180)


# --- derived figures --------------------------------------------------------------

def test_availability_ratio():
    records = [
        TelemetryRecord(t, "svc", "availability_state", TypedValue.boolean(b))
        for t, b in ((0, True), (10, True), (20, False), (30, True), (70, True))
    ]
    folded = availability_ratio(records, 60)
    assert [(w.window_start, w.value.value) for w in folded] == [
        (0, 75), (60, 100),
    ]
    with pytest.raises(EmptyWindowError):
        availability_ratio([], 60)


def test_data_completeness_and_miss_ratio():
    assert data_completeness(15, 30).value == 50
    assert data_completeness(15, 30).unit == "percent"
    assert miss_ratio(1, 8).value == Fraction(25, 2)
    for bad in ((5, 0), (-1, 10), (11, 10)):
        with pytest.raises(Exception):
            data_completeness(*bad)
        with pytest.raises(Exception):
            miss_ratio(*bad)


# --- window arguments -------------------------------------------------------------

_BAD_WINDOWS = [1.5, 60.0, "60", True, False, 0, -60, Fraction(60)]


@pytest.mark.parametrize("window", _BAD_WINDOWS, ids=repr)
def test_window_arguments_are_checked(rhms_doc, catalog, window):
    # a window is None, an EvaluationWindow, or a positive int that is not a
    # bool; anything else is refused before any record is read
    records = _records("spike.telemetry")
    states = [TelemetryRecord(t, "svc", "availability_state", TypedValue.boolean(True))
              for t in (0, 70)]
    calls = {
        "evaluate_window": lambda: evaluate_window(
            _slo("latency", "<=", 5), records, window, catalog, concept="ingestion"),
        "availability_ratio": lambda: availability_ratio(states, window),
        "end_to_end_response": lambda: end_to_end_response(rhms_doc, records, window, catalog),
        "monitor_document": lambda: monitor_document(rhms_doc, records, window),
        "EvaluationWindow": lambda: EvaluationWindow(window),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(f"{name} took the window {window!r}")


# --- ties between a window's aggregate and its bound ------------------------------

def _tie_catalog():
    def entry(aggregator, unit):
        return VocabularyEntry(
            term=f"tie_{aggregator}", concept="networking", description="tie probe",
            value_type="numeric", canonical_unit=unit, direction="lower_is_better",
            aggregator=aggregator, kind="qos_metric")

    return load_builtin_catalog().merge(Catalog([
        entry("max", "ms"), entry("min", "ms"), entry("sum", "ms"), entry("mean", "ms"),
        entry("ratio", "percent"),
    ]))


def _ms(value, unit="ms"):
    return TypedValue.numeric(Fraction(value), unit)


# aggregator, samples, the window's aggregate in canonical units, and the
# same figure in another unit of the family
_TIES = {
    "max": ([_ms(1000), _ms("1.5", "s"), _ms("0.2", "s")], Fraction(1500), "s"),
    "min": ([_ms("1.5", "s"), _ms(2000), _ms(1600)], Fraction(1500), "s"),
    "sum": ([_ms(500), _ms("0.25", "s"), _ms(750)], Fraction(1500), "s"),
    "mean": ([_ms(1, "s"), _ms(2000)], Fraction(1500), "s"),
    "mean_thirds": ([_ms(1), _ms(1), _ms(2)], Fraction(4, 3), "ms"),
    "ratio": ([_ms(50, "percent"), _ms("0.75", "ratio"), _ms(100, "percent")],
              Fraction(75), "ratio"),
    "ratio_booleans": ([TypedValue.boolean(b) for b in (True, True, False, True)],
                       Fraction(75), "ratio"),
}


# End to end on rhms.sla, with the time metrics in ms: the activities'
# maxima 3/2, 1/3 and 7/4 ms have different denominators and sum to
# 43/12 ms.  Case -> the unit the bound is written in.
_E2E_SAMPLES = [
    ("hb_sensing", "data_freshness", _ms("1.5")),
    ("ingest_svc", "latency", _ms(Fraction(1, 3))),
    ("ingest_svc", "latency", _ms("0.25")),
    ("stream_svc", "latency", _ms("0.00175", "s")),
]
_E2E_TIES = {"e2e": "ms", "e2e_bound_in_s": "s"}


def _e2e_tie_verdict(rhms_doc, comparator, offset, bound_unit):
    builtin = load_builtin_catalog()
    catalog = builtin.merge(Catalog([
        dataclasses.replace(builtin.lookup(term, concept), canonical_unit="ms")
        for term, concept in [("end_to_end_response_time", "application"),
                              ("data_freshness", "sensing"), ("latency", "ingestion"),
                              ("latency", "stream_processing")]]))
    entry = catalog.lookup("end_to_end_response_time", "application")
    aggregate = Fraction(43, 12)
    scale = {"ms": 1, "s": 1000}[bound_unit]
    constraint = MetricConstraint(
        entry.term, comparator, TypedValue.numeric((aggregate + offset) / scale, bound_unit))
    doc = dataclasses.replace(rhms_doc, app_slos=(Slo("e2e", "app", (constraint,)),))
    records = [TelemetryRecord(t, target, metric, value)
               for t, (target, metric, value) in enumerate(_E2E_SAMPLES)]
    events = end_to_end_response(doc, records, 60, catalog)
    observed = TypedValue.numeric(aggregate, "ms")
    expected = check_constraint_against_value(constraint, observed, entry)
    assert (VIOLATED if events else SATISFIED) == expected
    assert [e.observed for e in events] == ([observed] if events else [])
    assert monitor_document(doc, records, 60, catalog).violations == events
    return expected


@pytest.mark.parametrize("comparator", ["<", "<=", ">", ">=", "=="])
@pytest.mark.parametrize("case", sorted(_TIES) + sorted(_E2E_TIES))
@pytest.mark.parametrize("offset", [Fraction(0), Fraction(-1, 10**6), Fraction(1, 10**6)],
                         ids=["equal", "bound_below", "bound_above"])
def test_window_verdicts_at_and_beside_the_bound(case, comparator, offset, rhms_doc):
    # the fold compares integers; its verdict must be the checker's on the
    # exact aggregate, including when the two are equal
    if case in _E2E_TIES:
        expected = _e2e_tie_verdict(rhms_doc, comparator, offset, _E2E_TIES[case])
        if offset == 0:
            assert expected == (SATISFIED if "=" in comparator else VIOLATED)
        return
    samples, aggregate, bound_unit = _TIES[case]
    term = "tie_" + case.split("_")[0]
    catalog = _tie_catalog()
    entry = catalog.lookup(term, "networking")
    scale = 1 if bound_unit == entry.canonical_unit else {"s": 1000, "ratio": 100}[bound_unit]
    constraint = MetricConstraint(
        term, comparator, TypedValue.numeric((aggregate + offset) / scale, bound_unit))
    slo = Slo("s", "svc", (constraint,))
    records = [TelemetryRecord(t, "svc", term, value) for t, value in enumerate(samples)]
    events = evaluate_window(slo, records, 60, catalog, concept="networking")
    observed = TypedValue.numeric(aggregate, entry.canonical_unit)
    expected = check_constraint_against_value(constraint, observed, entry)
    assert (VIOLATED if events else SATISFIED) == expected
    assert [e.observed for e in events] == ([observed] if events else [])
    if offset == 0:
        assert expected == (SATISFIED if "=" in comparator else VIOLATED)


_PERCENT = "TypedValue(tag='numeric', value=Fraction(1999, 20), unit='percent')"
_UPTIME = MetricConstraint("availability", ">=", TypedValue.numeric(99, "percent"))


def _value_and_records():
    """One of each value and record type, with its fields and its repr."""
    value = TypedValue.numeric(Fraction(1999, 20), "percent")
    return [
        (value, ("numeric", Fraction(1999, 20), "percent"), _PERCENT),
        (TypedValue.boolean(True), ("boolean", True, None),
         "TypedValue(tag='boolean', value=True, unit=None)"),
        (TelemetryRecord(5, "net_svc", "availability", value),
         (5, "net_svc", "availability", value),
         "TelemetryRecord(timestamp=5, target_id='net_svc', metric='availability', "
         f"value={_PERCENT})"),
        (ViolationEvent(0, 60, "uptime", _UPTIME, value),
         (0, 60, "uptime", _UPTIME, value, "violated"),
         "ViolationEvent(window_start=0, window_end=60, slo_id='uptime', "
         "constraint=MetricConstraint(metric='availability', comparator='>=', "
         "value=TypedValue(tag='numeric', value=Fraction(99, 1), unit='percent')), "
         f"observed={_PERCENT}, verdict='violated')"),
        (WindowAggregate(0, 60, value), (0, 60, value),
         f"WindowAggregate(window_start=0, window_end=60, value={_PERCENT})"),
        (CoverageGap(None, None, None, "no telemetry records"),
         (None, None, None, "no telemetry records"),
         "CoverageGap(window_start=None, window_end=None, activity_id=None, "
         "note='no telemetry records')"),
        (SourceSpan(1, 2, 3, 4), (1, 2, 3, 4),
         "SourceSpan(start_line=1, start_col=2, end_line=3, end_col=4)"),
    ]


@pytest.mark.parametrize("item, fields, text", _value_and_records(),
                         ids=["numeric", "boolean", "record", "violation", "aggregate", "gap",
                              "span"])
def test_values_and_records_are_the_tuples_of_their_fields(item, fields, text):
    # equal to, and hashed as, the plain tuple: each type's frozen dataclass
    # hashed that tuple too
    assert item == fields and fields == item and hash(item) == hash(fields)
    assert {item: 1}[fields] == 1
    assert tuple(item) == fields and len(item) == len(fields)
    assert repr(item) == text
    for twin in (pickle.loads(pickle.dumps(item)), copy.deepcopy(item)):
        assert twin == item and type(twin) is type(item)
    assert not hasattr(item, "__dict__")


def test_every_way_to_build_a_value_or_record_is_checked():
    value = TypedValue.numeric(1)
    record = TelemetryRecord(1, "a", "b", value)
    with pytest.raises(ValueError, match="unknown value tag"):
        value._replace(tag="bogus")
    with pytest.raises(ValueError, match="non-negative"):
        record._replace(timestamp=-5)
    with pytest.raises(ValueError, match="must be Fraction"):
        TypedValue._make(["numeric", 1.5, None])
    assert value._replace(unit="ms") == TypedValue.numeric(1, "ms")
    assert record._replace(timestamp=7) == TelemetryRecord(7, "a", "b", value)
    span = SourceSpan(1, 2, 3, 4)
    with pytest.raises(ValueError, match="span start after end"):
        span._replace(start_line=5)
    with pytest.raises(ValueError, match="span start after end"):
        SourceSpan._make([1, 5, 1, 4])
    assert span._replace(end_col=1) == SourceSpan(1, 2, 3, 1)
    assert span.start == (1, 2)
    # pickle and copy rebuild through the constructor, so they refuse what
    # it refuses
    for bogus in (tuple.__new__(TypedValue, ("bogus", Fraction(1), None)),
                  tuple.__new__(TelemetryRecord, (-5, "a", "b", value)),
                  tuple.__new__(SourceSpan, (3, 1, 1, 1))):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(bogus))
        with pytest.raises(ValueError):
            copy.deepcopy(bogus)


def test_a_bound_in_a_foreign_unit_raises_before_any_sample(catalog):
    # mut_v007.sla bounds network_delay in mb, which V007 reports
    document = parse(fixture_text("mut_v007.sla"))
    for check in (monitor_document, end_to_end_response):
        with pytest.raises(UnitMismatchError, match="^constraint for 'network_delay': "):
            check(document, [], None, catalog)
