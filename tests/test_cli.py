"""Exit codes and output contract of the command line interface.

Commands run in-process through main(argv) for speed; one subprocess
smoke test at the end proves the installed entry points work too.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from iotsla import (
    TelemetryFormatError,
    load_builtin_catalog,
    monitor_document,
    parse,
    parse_telemetry,
)
from iotsla.cli import main
from iotsla.interchange import emit_json

from support import (
    ACCURACY_MIN,
    ACCURACY_TELEMETRY,
    E2E_TEXT,
    E2E_TEXT_TELEMETRY,
    ENCRYPTION_SLO,
    ENCRYPTION_TELEMETRY,
    FIXTURES,
    fixture_text,
    with_accuracy_slo,
    with_slo,
    with_text_e2e_bound,
)


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -----------------------------------------------------------------

def test_validate_clean(capsys):
    code, out, err = run(capsys, "validate", fx("rhms.sla"))
    assert code == 0 and out == ""


def test_validate_verbose(capsys):
    code, out, _ = run(capsys, "validate", fx("rhms.sla"), "--verbose")
    assert code == 0 and "ok" in out


def test_validate_error_diagnostics(capsys):
    code, out, _ = run(capsys, "validate", fx("mut_v001.sla"))
    assert code == 1
    assert "error[V001]" in out
    assert out.startswith(fx("mut_v001.sla") + ":")


def test_validate_warning_is_success_unless_strict(capsys):
    code, out, _ = run(capsys, "validate", fx("mut_v009.sla"))
    assert code == 0 and "warning[V009]" in out
    code, _, _ = run(capsys, "validate", fx("mut_v009.sla"), "--strict")
    assert code == 1


def test_validate_json_output(capsys):
    code, out, _ = run(capsys, "validate", fx("mut_v004.sla"), "--json")
    assert code == 1
    diags = json.loads(out)
    assert [d["code"] for d in diags] == ["V004"]
    assert {"severity", "message", "line", "col", "subject"} <= set(diags[0])


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", fx("no_such.sla"))
    assert code == 2 and "no_such.sla" in err


def test_validate_parse_error_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.sla"
    bad.write_text("sla sla sla")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.startswith(f"{bad}:1:")


# --- vocab ---------------------------------------------------------------------

def test_vocab_list(capsys):
    code, out, _ = run(capsys, "vocab", "list")
    assert code == 0
    assert "sensing:" in out and "sampling_rate" in out


def test_vocab_list_filters(capsys):
    code, out, _ = run(capsys, "vocab", "list", "--concept", "networking",
                       "--kind", "qos_metric")
    assert code == 0
    assert "networking:" in out and "iot_device:" not in out
    code, _, _ = run(capsys, "vocab", "list", "--concept", "weather")
    assert code == 2
    code, out, err = run(capsys, "vocab", "list", "--kind", "bogus")
    assert code == 2 and out == "" and "unknown term kind: bogus" in err


def test_vocab_list_application_terms_visible(capsys):
    code, out, _ = run(capsys, "vocab", "list", "--concept", "application")
    assert code == 0
    assert "end_to_end_response_time" in out


def test_vocab_show(capsys):
    code, out, _ = run(capsys, "vocab", "show", "latency", "ingestion")
    assert code == 0
    assert "lower_is_better" in out and "time_unit" in out
    code, _, _ = run(capsys, "vocab", "show", "no_such_term", "ingestion")
    assert code == 2


def test_vocab_json_is_the_catalog_entries(capsys, catalog):
    code, out, _ = run(capsys, "vocab", "list", "--concept", "networking",
                       "--kind", "qos_metric", "--json")
    assert code == 0
    assert json.loads(out) == [
        e.to_dict() for e in catalog.applicable_terms("networking", "qos_metric")]
    code, out, _ = run(capsys, "vocab", "show", "latency", "ingestion", "--json")
    assert code == 0 and json.loads(out) == catalog.lookup("latency", "ingestion").to_dict()


def test_vocab_show_alias(capsys):
    code, out, _ = run(capsys, "vocab", "show", "sampling_frequency", "sensing")
    assert code == 0 and "sampling_rate" in out


def test_vocab_export_is_the_builtin_catalog(capsys, tmp_path):
    code, out, _ = run(capsys, "vocab", "export")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 124
    assert all(e["concept"] != "application" for e in data)
    target = tmp_path / "catalog.json"
    code, _, _ = run(capsys, "vocab", "export", "-o", str(target))
    assert code == 0 and json.loads(target.read_text()) == data


def test_catalog_overlay_flag(capsys, tmp_path):
    overlay = [{
        "term": "communication_technology", "concept": "networking",
        "description": "link technology in use", "value_type": "text",
        "canonical_unit": "dimensionless", "direction": "none",
        "aggregator": "none", "kind": "configuration_parameter",
    }]
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    code, out, _ = run(capsys, "validate", fx("mut_v009.sla"),
                       "--catalog", str(path))
    assert code == 0 and out == ""
    code, _, err = run(capsys, "validate", fx("rhms.sla"),
                       "--catalog", str(tmp_path / "missing.json"))
    assert code == 2


# --- match -----------------------------------------------------------------------

def test_match_table(capsys):
    code, out, _ = run(capsys, "match", fx("procure.sla"),
                       fx("alpha.offer.json"), fx("beta.offer.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "rank", "provider", "score", "latency", "throughput", "availability",
    ]
    assert lines[2].split() == ["1", "alpha", "1", "satisfied", "satisfied",
                                "satisfied"]
    assert lines[3].split() == ["2", "beta", "1/3", "violated", "satisfied",
                                "unspecified"]


def test_match_weighted_json(capsys):
    code, out, _ = run(capsys, "match", fx("procure.sla"),
                       fx("alpha.offer.json"), fx("beta.offer.json"),
                       "--weights", fx("weights.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    by_provider = {r["provider_id"]: r for r in payload["reports"]}
    assert by_provider["alpha"]["score"] == "1"
    assert by_provider["beta"]["score"] == "1/6"
    assert by_provider["alpha"]["rank"] == 1


def test_match_notes_an_agreement_without_requirements(capsys):
    # rhms.sla has no SLO on an ingestion service
    code, out, _ = run(capsys, "match", fx("rhms.sla"), fx("alpha.offer.json"))
    assert code == 0
    assert out.startswith("note: the agreement has no SLO constraints on concept 'ingestion'")
    assert out.splitlines()[-1].split() == ["1", "alpha", "1"]


def test_match_request_must_validate(capsys):
    code, out, _ = run(capsys, "match", fx("mut_v001.sla"),
                       fx("alpha.offer.json"))
    assert code == 1 and "V001" in out


def test_match_bad_offer(capsys, tmp_path):
    bad = tmp_path / "bad.offer.json"
    bad.write_text('{"provider_id": "x"}')
    code, _, err = run(capsys, "match", fx("procure.sla"), str(bad))
    assert code == 2 and "bad offer" in err


@pytest.mark.parametrize("provider_id,code", [("\ud800", 2), ("\U0001f600", 0)],
                         ids=["lone_surrogate", "surrogate_pair"])
def test_match_offers_must_encode_as_utf8(capsys, tmp_path, provider_id, code):
    offer = json.loads((FIXTURES / "alpha.offer.json").read_text())
    offer["provider_id"] = provider_id
    path = tmp_path / "x.offer.json"
    path.write_text(json.dumps(offer))  # as the escapes \ud800 or \ud83d\ude00
    got, out, err = run(capsys, "match", fx("procure.sla"), str(path))
    assert got == code and "Traceback" not in err
    assert "/provider_id" in err if code else provider_id in out


def test_match_mixed_concepts(capsys, tmp_path):
    other = tmp_path / "other.offer.json"
    other.write_text(json.dumps({
        "provider_id": "x", "concept": "database", "capabilities": [],
    }))
    code, _, err = run(capsys, "match", fx("procure.sla"),
                       fx("alpha.offer.json"), str(other))
    assert code == 2 and "same concept" in err


def test_match_bad_weights(capsys, tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text('{"latency": -1}')
    code, _, err = run(capsys, "match", fx("procure.sla"),
                       fx("alpha.offer.json"), "--weights", str(weights))
    assert code == 2 and "weight" in err


def test_match_takes_concepts_from_owners(capsys, monkeypatch):
    def no_resolve(*_args):
        raise AssertionError("resolve called")

    monkeypatch.setattr("iotsla.model.resolve", no_resolve)
    code, out, _ = run(capsys, "match", fx("procure.sla"), fx("alpha.offer.json"),
                       fx("beta.offer.json"), "--json")
    assert code == 0 and json.loads(out)["requirements"]


@pytest.mark.parametrize("content,where", [
    ('{"latency": 1e5000}', "too long"),
    ('{"latency": true}', "/latency: weight must be a positive number"),
    # a key is one pointer step, "/" written "~1" and "~" written "~0"
    ('{"a/b": 5}', ": /a~1b: no term or alias 'a/b'"),
    ('{"~/": 5}', ": /~0~1: no term or alias '~/'"),
], ids=["long_number", "not_a_number", "slash_in_key", "tilde_in_key"])
def test_match_weights_that_cannot_be_read(capsys, tmp_path, content, where):
    weights = tmp_path / "w.json"
    weights.write_text(content)
    code, out, err = run(capsys, "match", fx("procure.sla"),
                         fx("alpha.offer.json"), "--weights", str(weights))
    assert code == 2 and out == ""
    assert err.startswith(f"bad weights file {weights}: ") and where in err


def test_match_weights_must_name_terms(capsys, tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text('{"latncy": 5}')
    code, out, err = run(capsys, "match", fx("procure.sla"), fx("alpha.offer.json"),
                         fx("beta.offer.json"), "--weights", str(weights))
    assert code == 2 and out == ""
    assert err.startswith(f"bad weights file {weights}: /latncy: ")


def _weighted_scores(capsys, tmp_path, weights, *extra):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(weights))
    code, out, err = run(capsys, "match", fx("procure.sla"), fx("alpha.offer.json"),
                         fx("beta.offer.json"), "--weights", str(path), "--json", *extra)
    if code:
        return code, err
    return code, {r["provider_id"]: r["score"] for r in json.loads(out)["reports"]}


def _alias_overlay(tmp_path):
    # ingestion's latency, also named ingest_delay
    latency = load_builtin_catalog().lookup("latency", "ingestion").to_dict()
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps([dict(latency, aliases=["ingest_delay"])]))
    return str(overlay)


def test_match_weights_may_name_aliases(capsys, tmp_path):
    overlay = _alias_overlay(tmp_path)
    by_term = _weighted_scores(capsys, tmp_path, {"latency": 5}, "--catalog", overlay)
    by_alias = _weighted_scores(capsys, tmp_path, {"ingest_delay": 5}, "--catalog", overlay)
    assert by_alias == by_term == (0, {"alpha": "1", "beta": "1/7"})
    assert _weighted_scores(capsys, tmp_path, {}) == (0, {"alpha": "1", "beta": "1/3"})


@pytest.mark.parametrize("weights,message", [
    # a term of ingestion that no requirement of procure.sla names
    ({"latency": 2, "storage_size": 4},
     "/storage_size: no requirement on 'ingestion' names 'storage_size'"),
    ({"latency": 2, "ingest_delay": 4}, "/ingest_delay: 'latency' already weighs 'latency'"),
])
def test_match_weights_must_weigh_a_requirement_once(capsys, tmp_path, weights, message):
    code, err = _weighted_scores(capsys, tmp_path, weights, "--catalog", _alias_overlay(tmp_path))
    assert code == 2 and err == f"bad weights file {tmp_path / 'w.json'}: {message}\n"


# --- monitor ---------------------------------------------------------------------

@pytest.mark.parametrize("width", ["0", "-5", "\u0666\u0660"])
def test_monitor_window_must_be_positive(capsys, width):
    code, out, err = run(capsys, "monitor", fx("rhms.sla"), fx("calm.telemetry"),
                         "--window", width)
    assert code == 2 and out == ""
    assert "--window" in err and "positive" in err and "Traceback" not in err


def test_monitor_calm(capsys):
    code, out, _ = run(capsys, "monitor", fx("rhms.sla"), fx("calm.telemetry"))
    assert code == 0
    assert "checked 12 records: 0 violation(s)" in out


def test_monitor_spike(capsys):
    code, out, _ = run(capsys, "monitor", fx("rhms.sla"), fx("spike.telemetry"))
    assert code == 1
    assert "violation [120,180) slo=app_response" in out
    assert "observed 9 time_unit" in out


def test_monitor_spike_json(capsys):
    code, out, _ = run(capsys, "monitor", fx("rhms.sla"), fx("spike.telemetry"),
                       "--json")
    assert code == 1
    events = [json.loads(line) for line in _ndjson_chunks(out)]
    assert events[0]["slo_id"] == "app_response"
    assert events[0]["window_start"] == 120
    assert events[-1]["summary"]["violations"] == 1
    assert events[-1]["summary"]["per_slo"] == {"app_response": 1,
                                                "net_quality": 0}


def _ndjson_chunks(text):
    # events are pretty-printed objects separated at column-0 braces
    chunk = []
    for line in text.splitlines():
        chunk.append(line)
        if line == "}":
            yield "\n".join(chunk)
            chunk = []


def test_monitor_uses_catalog_overlay(capsys, tmp_path, rhms_text):
    sla = tmp_path / "accuracy.sla"
    sla.write_text(with_accuracy_slo(rhms_text))
    telemetry = tmp_path / "accuracy.telemetry"
    telemetry.write_text(ACCURACY_TELEMETRY)
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps([ACCURACY_MIN]))
    code, out, _ = run(capsys, "monitor", str(sla), str(telemetry),
                       "--catalog", str(overlay), "--json")
    assert code == 1
    events = [json.loads(chunk) for chunk in _ndjson_chunks(out)]
    assert events[-1]["summary"]["violations"] == 1
    assert (events[0]["slo_id"], events[0]["observed"]) == ("app_accuracy", 80)


def test_monitor_samples_a_text_end_to_end_term(capsys, tmp_path, rhms_text):
    sla = tmp_path / "fast.sla"
    sla.write_text(with_text_e2e_bound(rhms_text))
    telemetry = tmp_path / "fast.telemetry"
    telemetry.write_text(E2E_TEXT_TELEMETRY)
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps([E2E_TEXT]))
    assert run(capsys, "validate", str(sla), "--catalog", str(overlay))[0] == 0
    code, out, err = run(capsys, "monitor", str(sla), str(telemetry), "--catalog", str(overlay))
    assert code == 1 and "Traceback" not in err
    assert "violation [0,60) slo=app_response: end_to_end_response_time == \"fast\", " \
           "observed \"slow\"" in out
    assert "checked 4 records: 1 violation(s)" in out


@pytest.mark.parametrize("term,bound,sample,line", [
    ({"value_type": "text"}, '"true"', "slow", '== "true", observed "slow"'),
    ({"value_type": "boolean", "direction": "target_equality"}, "true", "false",
     "== true, observed false"),
])
def test_monitor_text_tells_a_text_bound_from_a_boolean(capsys, tmp_path, rhms_text,
                                                        term, bound, sample, line):
    # each value prints as the agreement language writes it, so a text
    # "true" is quoted and a boolean true is not
    sla = tmp_path / "e2e.sla"
    sla.write_text(rhms_text.replace("end_to_end_response_time <= 5 time_unit",
                                     f"end_to_end_response_time == {bound}"))
    telemetry = tmp_path / "e2e.telemetry"
    telemetry.write_text(f"30\tapp\tend_to_end_response_time\t{sample}\n")
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps([{**E2E_TEXT, **term}]))
    code, out, err = run(capsys, "monitor", str(sla), str(telemetry), "--catalog", str(overlay))
    assert code == 1 and "Traceback" not in err
    assert f"slo=app_response: end_to_end_response_time {line}\n" in out


def test_monitor_ignores_incomparable_samples(capsys, tmp_path, rhms_text):
    sla = tmp_path / "encryption.sla"
    sla.write_text(with_slo(rhms_text, ENCRYPTION_SLO))
    telemetry = tmp_path / "encryption.telemetry"
    telemetry.write_text(ENCRYPTION_TELEMETRY)
    code, out, err = run(capsys, "monitor", str(sla), str(telemetry))
    assert code == 0 and "0 violation(s)" in out
    assert "Traceback" not in err
    telemetry.write_text(ENCRYPTION_TELEMETRY + "6\tingest_svc\tdata_encryption_support\tfalse\n")
    code, out, _ = run(capsys, "monitor", str(sla), str(telemetry))
    assert code == 1
    assert "slo=enc: data_encryption_support == true, observed false" in out


def test_monitor_skips_values_too_long_in_total(capsys, tmp_path):
    # each side of the point is under 4300 digits, the whole is not
    telemetry = tmp_path / "long.telemetry"
    telemetry.write_text(f"0\tnet_svc\tnetwork_delay\t{'9' * 3000}.{'9' * 3000} time_unit\n")
    code, out, err = run(capsys, "monitor", fx("rhms.sla"), str(telemetry))
    assert code == 0 and "checked 0 records: 0 violation(s)" in out
    assert "1 telemetry line(s) had unreadable values" in err and "Traceback" not in err


def test_monitor_writes_observed_values_of_any_length(capsys, tmp_path, rhms_text):
    # 4299 digits in ratio are 4301 in percent, past Python's int string limit
    sla = tmp_path / "cpu.sla"
    sla.write_text(with_slo(rhms_text, "slo cpu on cloud_vm {\n"
                                       "  cpu_utilization <= 50 percent\n}"))
    telemetry = tmp_path / "cpu.telemetry"
    telemetry.write_text(f"0\tcloud_vm\tcpu_utilization\t{'9' * 4299} ratio\n")
    code, out, err = run(capsys, "monitor", str(sla), str(telemetry), "--json")
    assert code == 1 and "Traceback" not in err
    assert f'"observed": {"9" * 4299}00,' in out


def test_monitor_writes_windows_of_any_length(capsys, tmp_path):
    # a 4300-digit timestamp is read; its window ends one digit longer
    start = "9" * 4300
    telemetry = tmp_path / "late.telemetry"
    telemetry.write_text(f"{start}\tnet_svc\tnetwork_delay\t5 time_unit\n"
                         f"{start}\tingest_svc\tlatency\t1 time_unit\n")
    code, out, err = run(capsys, "monitor", fx("rhms.sla"), str(telemetry))
    assert code == 1 and "Traceback" not in err
    window = f"[{'9' * 4298}60,1{'0' * 4298}20)"  # 10**4300 - 40 and + 20
    assert out.startswith(f"violation {window} slo=net_quality")
    assert f"warning: coverage {window} " in err


def test_monitor_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _Stdin((FIXTURES / "calm.telemetry").read_text()))
    code, out, _ = run(capsys, "monitor", fx("rhms.sla"), "-")
    assert code == 0 and "0 violation(s)" in out


class _Stdin:
    def __init__(self, text):
        self._text = text
        self.buffer = mock.Mock(read=lambda: text.encode("utf-8", "surrogateescape"))

    def read(self):
        return self._text


def test_monitor_framing_error(capsys, tmp_path):
    broken = tmp_path / "t.telemetry"
    broken.write_text("5\thb_sensing\tdata_freshness\n")
    code, _, err = run(capsys, "monitor", fx("rhms.sla"), str(broken))
    assert code == 2 and "line 1" in err


def test_monitor_unreadable_values_warn(capsys, tmp_path):
    telemetry = tmp_path / "t.telemetry"
    telemetry.write_text(
        "5\thb_sensing\tdata_freshness\t1 time_unit\n"
        "6\thb_sensing\tdata_freshness\tnot a number\n"
    )
    code, out, err = run(capsys, "monitor", fx("rhms.sla"), str(telemetry))
    assert code == 0
    assert "unreadable" in err


def test_monitor_requires_valid_document(capsys):
    code, out, _ = run(capsys, "monitor", fx("mut_v004.sla"),
                       fx("calm.telemetry"))
    assert code == 1 and "V004" in out


# every line break str.splitlines knows
_BREAKS = ["\r\n", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_TELEMETRY_LINES = st.builds(
    "{}\t{}\t{}\t{}".format,
    st.integers(0, 400),
    st.sampled_from(["net_svc", "hb_sensing", "ingest_svc", "stream_svc", "rhms", "ghost"]),
    st.sampled_from(["network_delay", "data_freshness", "latency", "latncy"]),
    st.sampled_from(["0.5 time_unit", "2", "9 time_unit", "1.25", "true", "foo bar", "3 ms"]),
) | st.sampled_from(["", "  ", "\t"])


def _monitor_output(whole):
    """(exit code, stdout, part of stderr) of ``monitor --json`` on rhms.sla,
    from what ``parse_telemetry`` gave on the text."""
    if isinstance(whole, TelemetryFormatError):
        return 2, "", f"line {whole.line_no}: {whole.message}"
    records, skipped = whole
    report = monitor_document(parse(fixture_text("rhms.sla")), records)
    out = "".join(emit_json(event.to_dict()) + "\n" for event in report.violations)
    summary = {
        "violations": len(report.violations),
        "per_slo": dict(sorted(report.slo_violation_counts.items())),
        "records": len(records),
        "skipped_values": skipped,
        "unknown_records": report.skipped_records,
        "coverage_gaps": len(report.coverage_gaps),
    }
    return 1 if report.violations else 0, out + emit_json({"summary": summary}) + "\n", ""


def _read_all(read):
    try:
        return read()
    except TelemetryFormatError as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.tuples(_TELEMETRY_LINES, st.sampled_from(_BREAKS)), max_size=20),
       broken=st.none() | st.integers(0, 20), last_break=st.booleans())
def test_monitor_json_matches_the_library(tmp_path_factory, lines, broken, last_break):
    if broken is not None:  # a framing error
        lines.insert(min(broken, len(lines)), ("1\tnet_svc\tlatency", "\n"))
    text = "".join(line + brk for line, brk in lines)
    if lines and not last_break:
        text = text[:-len(lines[-1][1])]
    code, out, err = _monitor_output(_read_all(lambda: parse_telemetry(text)))

    # the command line, from a file and from stdin
    path = tmp_path_factory.mktemp("telemetry") / "t.telemetry"
    path.write_text(text, encoding="utf-8", newline="")
    for source in (str(path), "-"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", _Stdin(text)), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["monitor", fx("rhms.sla"), source, "--json"]) == code
        assert stdout.getvalue() == out and err in stderr.getvalue()


# --- fmt --------------------------------------------------------------------------

def test_fmt_check(capsys):
    code, out, _ = run(capsys, "fmt", fx("rhms.sla"), "--check")
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "fmt", fx("messy.sla"), "--check")
    assert code == 1 and "would reformat" in out


def test_fmt_rewrites(capsys, tmp_path, rhms_text):
    work = tmp_path / "doc.sla"
    shutil.copy(FIXTURES / "messy.sla", work)
    code, out, _ = run(capsys, "fmt", str(work))
    assert code == 0 and "reformatted" in out
    assert work.read_text() == rhms_text
    # now canonical: a second run changes nothing and stays quiet
    code, out, _ = run(capsys, "fmt", str(work))
    assert code == 0 and out == ""


def test_fmt_check_refuses_non_ascii_digits(capsys, tmp_path, rhms_text):
    # Arabic-Indic one is no numeral: the parser stops at it
    bad = tmp_path / "digits.sla"
    bad.write_text(rhms_text.replace("network_delay <= 1", "network_delay <= \u0661"))
    code, out, err = run(capsys, "fmt", str(bad), "--check")
    assert code == 2 and out == ""
    assert err.startswith(f"{bad}:23:20: error: unexpected character")


def test_fmt_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.sla"
    bad.write_text("slaaaa")
    code, _, err = run(capsys, "fmt", str(bad))
    assert code == 2 and err.startswith(f"{bad}:1:")


def test_fmt_stdin_writes_stdout(capsys, monkeypatch, tmp_path, rhms_text):
    monkeypatch.chdir(tmp_path)
    for text in (fixture_text("messy.sla"), rhms_text):
        monkeypatch.setattr(sys, "stdin", _Stdin(text))
        assert run(capsys, "fmt", "-") == (0, rhms_text, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, content, code", [
    (["monitor", fx("rhms.sla"), "--json"],
     b"5\thb_sensing\tdata_freshness\t1 time_unit\n6\thb_sensing\tdata_freshness\t\xff\n", 2),
    (["fmt", "--check"], (FIXTURES / "rhms.sla").read_bytes().replace(b"\n", b"\r\n"), 0),
    (["fmt", "--check"], (FIXTURES / "rhms.sla").read_bytes().replace(b"\n", b"\r"), 0),
], ids=["monitor-not-utf8", "fmt-crlf", "fmt-cr"])
def test_stdin_reads_as_a_file_does(capsys, monkeypatch, tmp_path, argv, content, code):
    path = tmp_path / "input"
    path.write_bytes(content)
    by_path = run(capsys, *argv, str(path))
    assert by_path[0] == code
    # what a real stdin gives: no newline translation, and bytes that are not
    # UTF-8 decoded to lone surrogates
    monkeypatch.setattr(sys, "stdin", _Stdin(content.decode("utf-8", "surrogateescape")))
    by_stdin = run(capsys, *argv, "-")
    assert by_stdin == tuple(part if isinstance(part, int) else part.replace(str(path), "-")
                             for part in by_path)


def test_stdin_is_read_as_utf8_whatever_its_encoding(tmp_path):
    # a stdin decoded by its own encoding would read the byte 0xff as a letter
    path = tmp_path / "t.telemetry"
    path.write_bytes(b"5\thb_sensing\tdata_freshness\t1 time_unit\n"
                     b"6\thb_sensing\tdata_freshness\t\xff\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="latin-1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, "-m", "iotsla", "monitor", fx("rhms.sla"), "--json"]
    by_path = subprocess.run([*argv, str(path)], capture_output=True, env=env)
    with path.open("rb") as stdin:
        by_stdin = subprocess.run([*argv, "-"], stdin=stdin, capture_output=True, env=env)
    assert by_path.returncode == by_stdin.returncode == 2
    assert by_stdin.stdout == by_path.stdout == b""
    assert by_stdin.stderr == by_path.stderr.replace(str(path).encode(), b"-")


def _iotsla(argv, encoding=None, stdin=None):
    """``python -m iotsla ARGV``, under PYTHONIOENCODING=``encoding`` when one
    is given, reading the file ``stdin``: (exit code, stdout, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    with open(stdin or os.devnull, "rb") as stream:
        done = subprocess.run([sys.executable, "-m", "iotsla", *argv], stdin=stream,
                              capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_output_is_utf8_whatever_the_encoding(tmp_path, encoding):
    # a stream that followed PYTHONIOENCODING would fail on these characters
    # or write them in another encoding
    agreement = tmp_path / "remote.sla"
    agreement.write_text(fixture_text("rhms.sla").replace("Remote", "Rémote \U0001f600"),
                         encoding="utf-8")
    overlay = tmp_path / "overlay.json"
    latency = load_builtin_catalog().lookup("latency", "ingestion").to_dict()
    overlay.write_text(json.dumps([dict(latency, description="Latência")]))
    missing = str(tmp_path / "fehlt-ä.sla")

    code, out, err = _iotsla(["fmt", "-"], encoding, agreement)
    assert (code, out, err) == (0, agreement.read_bytes(), b"")
    code, out, err = _iotsla(["vocab", "export", "--catalog", str(overlay)], encoding)
    assert code == 0 and '"description": "Latência"'.encode("utf-8") in out
    assert out == _iotsla(["vocab", "export", "--catalog", str(overlay)], "utf-8")[1]
    code, out, err = _iotsla(["validate", missing], encoding)
    assert code == 2 and err.startswith(f"cannot read {missing}: ".encode("utf-8"))


def test_a_path_that_is_not_utf8_is_written_back_as_its_bytes(tmp_path):
    path = os.fsencode(tmp_path / "messy") + b"\xff.sla"
    with open(path, "wb") as handle:
        handle.write((FIXTURES / "messy.sla").read_bytes())
    for encoding in (None, "ascii"):
        code, out, err = _iotsla([b"fmt", b"--check", path], encoding)
        assert (code, out, err) == (1, b"would reformat " + path + b"\n", b"")


# --- --json on failure paths -----------------------------------------------------

_V004 = {"code": "V004", "severity": "error",
         "message": "activity 'capture' requires unknown service 'ghost_svc'",
         "subject": "capture", "line": 26, "col": 1}
_AFTER_AGREEMENT = {"validate": [], "match": [fx("alpha.offer.json")],
                    "monitor": [fx("calm.telemetry")]}


@pytest.mark.parametrize("command", sorted(_AFTER_AGREEMENT))
@pytest.mark.parametrize("parses", [True, False], ids=["V004", "parse error"])
def test_json_failures_print_one_document(capsys, tmp_path, command, parses):
    agreement, diagnostic = fx("mut_v004.sla"), _V004
    if not parses:
        agreement = str(tmp_path / "bad.sla")
        Path(agreement).write_text("sla sla sla")
        diagnostic = {"code": "parse", "severity": "error",
                      "message": "expected the agreement title (a quoted string), found 'sla'",
                      "subject": agreement, "line": 1, "col": 5}
    code, out, err = run(capsys, command, agreement, *_AFTER_AGREEMENT[command], "--json")
    assert code == 1 and err == ""
    # validate --json prints a list of diagnostics, match and monitor an object
    shown = [diagnostic] if command == "validate" else {"diagnostics": [diagnostic]}
    assert json.loads(out) == shown


@pytest.mark.parametrize("argv", [["fmt", fx("rhms.sla"), "--check"], ["vocab", "export"]])
def test_json_only_where_honoured(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --json" in err


# --- usage ------------------------------------------------------------------------

def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "validate")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_installed_entry_points():
    result = subprocess.run(
        [sys.executable, "-m", "iotsla", "validate", fx("rhms.sla")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    script = shutil.which("iotsla")
    if script:
        result = subprocess.run(
            [script, "monitor", fx("rhms.sla"), fx("spike.telemetry")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
