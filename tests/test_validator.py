"""Semantic validation rules V001 through V013."""

import pytest

from iotsla import Catalog, VocabularyEntry, parse, validate
from iotsla.validator import ERROR, WARNING, compatibility, format_diagnostic

from support import fixture_text

ALL_CODES = [f"V{n:03d}" for n in range(1, 14)]
WARNING_CODES = {"V009", "V010", "V012"}


def test_rhms_is_clean(rhms_doc):
    assert validate(rhms_doc) == []


def test_procurement_fixture_is_clean():
    assert validate(parse(fixture_text("procure.sla"))) == []


@pytest.mark.parametrize("code", ALL_CODES)
def test_each_mutant_triggers_exactly_its_code(code):
    doc = parse(fixture_text(f"mut_{code.lower()}.sla"))
    diags = validate(doc)
    assert [d.code for d in diags] == [code]
    expected = WARNING if code in WARNING_CODES else ERROR
    assert diags[0].severity == expected


def test_validation_is_deterministic(rhms_text):
    noisy = fixture_text("mut_v005.sla")
    doc = parse(noisy)
    first = validate(doc)
    second = validate(parse(noisy))
    assert first == second


def test_findings_sorted_by_position():
    source = fixture_text("rhms.sla").replace(
        "network_delay <= 1 time_unit",
        "bogus_one <= 1\n  bogus_two <= 2",
    )
    diags = validate(parse(source))
    keys = [(d.span.start_line, d.span.start_col, d.code) for d in diags]
    assert keys == sorted(keys)
    assert [d.code for d in diags] == ["V006", "V006"]


def test_fixing_the_cause_removes_the_finding():
    broken = fixture_text("mut_v004.sla")
    assert [d.code for d in validate(parse(broken))] == ["V004"]
    fixed = broken.replace("requires ghost_svc", "requires hb_sensing")
    assert validate(parse(fixed)) == []


def test_dangling_slo_target_is_v006():
    source = fixture_text("rhms.sla").replace("on net_svc", "on nowhere")
    codes = [d.code for d in validate(parse(source))]
    assert "V006" in codes


def test_overlay_catalog_clears_v009():
    source = fixture_text("mut_v009.sla")
    assert [d.code for d in validate(parse(source))] == ["V009"]
    overlay = Catalog([VocabularyEntry(
        term="communication_technology", concept="networking",
        description="link technology in use", value_type="text",
        canonical_unit="dimensionless", direction="none", aggregator="none",
        kind="configuration_parameter",
    )])
    from iotsla import load_builtin_catalog

    merged = load_builtin_catalog().merge(overlay)
    assert validate(parse(source), merged) == []


def test_unknown_unit_is_v007():
    source = fixture_text("rhms.sla").replace("<= 5 time_unit", "<= 5 furlongs")
    codes = [d.code for d in validate(parse(source))]
    assert codes == ["V007"]


def test_compatibility_lookup():
    assert "sensing" in compatibility("capture_eoi")
    assert "ingestion" not in compatibility("capture_eoi")
    with pytest.raises(ValueError):
        compatibility("interpretive_dance")


def test_format_diagnostic(rhms_text):
    diag = validate(parse(fixture_text("mut_v001.sla")))[0]
    line = format_diagnostic(diag, "x.sla")
    assert line.startswith("x.sla:")
    assert "error[V001]" in line


def test_multiple_codes_coexist():
    source = fixture_text("mut_v001.sla").replace(
        "slo app_response on app {\n  end_to_end_response_time <= 5 time_unit\n}\n\n",
        "",
    )
    codes = sorted(d.code for d in validate(parse(source)))
    assert codes == ["V001", "V002"]


def test_concepts_come_from_owners(rhms_doc, monkeypatch):
    # every SLO is already attached to its owner; no per-SLO lookup by id
    dangling = parse(fixture_text("rhms.sla").replace("on net_svc", "on nowhere"))
    docs = [rhms_doc, parse(fixture_text("mut_v006.sla")), dangling]
    expected = [validate(doc) for doc in docs]

    def no_resolve(*_args):
        raise AssertionError("resolve called")

    monkeypatch.setattr("iotsla.model.resolve", no_resolve)
    assert [validate(doc) for doc in docs] == expected
    assert [[d.code for d in found] for found in expected] == [[], ["V006"], ["V006", "V010"]]
