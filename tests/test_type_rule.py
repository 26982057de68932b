"""Every layer applies one value-type rule and one unit rule.

A constraint the validator reports as V008 is exactly one that the checker
and the matcher refuse with ``TypeMismatchError``, against an observed value
or a capability that fits the term, and that the monitor refuses before any
sample arrives.  The matcher refuses it too against an offer that does not
state the term.  Likewise a numeric bound the validator reports as V007 is
exactly one that every layer refuses with ``UnitMismatchError``.
"""

from datetime import date
from itertools import product

import pytest

from iotsla import (
    COMPARATORS,
    MetricConstraint,
    ProviderOffer,
    TypeMismatchError,
    TypedValue,
    UnitMismatchError,
    check_constraint_against_value,
    end_to_end_response,
    monitor_document,
    parse,
    rank_offers,
    satisfies_capability,
    validate,
)
from iotsla.constraints import canonical_factor
from iotsla.model import APP_TARGET, InfraResourceSpec, Party, ServiceSpec, Slo, build_document

from support import fixture_text

# an ingestion term of each value type, with a value that fits it
FITTING = {
    "latency": TypedValue.numeric(4),
    "data_encryption_support": TypedValue.boolean(True),
    "delivery_guarantee_mechanism": TypedValue.enumerated("exactly_once"),
}
VALUES = (
    TypedValue.numeric(1),
    TypedValue.boolean(True),
    TypedValue.text("yes"),
    TypedValue.enumerated("exactly_once"),
)
CASES = list(product(FITTING, COMPARATORS, VALUES))


def _document(constraint: MetricConstraint):
    uptime = MetricConstraint("availability", ">=", TypedValue.numeric(99, "percent"))
    return build_document(
        title="probe", doc_id="agreement", application_type="smart_health",
        start_date=date(2026, 1, 1), end_date=date(2027, 1, 1),
        parties=(Party("buyer", "Buyer", "consumer"), Party("seller", "Seller", "provider")),
        slos=(Slo("uptime", APP_TARGET, (uptime,)), Slo("probe", "svc", (constraint,))),
        services=(ServiceSpec("svc", "ingestion", "vm"),),
        resources=(InfraResourceSpec("vm", "cloud_resource"),),
    )


def _refuses(check, *args) -> bool:
    try:
        check(*args)
    except TypeMismatchError:
        return True
    return False


@pytest.mark.parametrize("term,comparator,value", CASES,
                         ids=[f"{t} {c} {v.tag}" for t, c, v in CASES])
def test_validator_checker_and_matcher_agree(catalog, term, comparator, value):
    constraint = MetricConstraint(term, comparator, value)
    v008 = any(d.code == "V008" for d in validate(_document(constraint), catalog))
    entry = catalog.lookup(term, "ingestion")
    assert _refuses(check_constraint_against_value, constraint, FITTING[term], entry) is v008
    offer = ProviderOffer("p", "ingestion", {term: FITTING[term]})
    assert _refuses(satisfies_capability, constraint, offer, catalog) is v008


@pytest.mark.parametrize("term,comparator,value", CASES,
                         ids=[f"{t} {c} {v.tag}" for t, c, v in CASES])
def test_the_monitor_refuses_the_same_bounds_before_any_sample(catalog, term, comparator,
                                                                value):
    document = _document(MetricConstraint(term, comparator, value))
    v008 = any(d.code == "V008" for d in validate(document, catalog))
    assert _refuses(monitor_document, document, [], None, catalog) is v008
    # end to end checks only app SLOs, but builds the index over every SLO
    assert _refuses(end_to_end_response, document, [], None, catalog) is v008


@pytest.mark.parametrize("term,comparator,value", CASES,
                         ids=[f"{t} {c} {v.tag}" for t, c, v in CASES])
def test_the_matcher_refuses_the_same_bounds_whatever_the_offer_states(catalog, term,
                                                                       comparator, value):
    constraint = MetricConstraint(term, comparator, value)
    v008 = any(d.code == "V008" for d in validate(_document(constraint), catalog))
    silent = ProviderOffer("p", "ingestion", {})
    assert _refuses(satisfies_capability, constraint, silent, catalog) is v008
    assert _refuses(rank_offers, [constraint], [silent], None, catalog) is v008


# numeric bounds in no unit, the canonical unit, a unit of the data-rate
# family, one of the wall-clock family, one of the bytes family, and no
# known unit
UNITS = (None, "canonical", "kb_per_s", "ms", "gb", "furlong")
UNIT_CASES = list(product(("latency", "throughput"), UNITS))


def _refuses_the_unit(check, *args) -> bool:
    try:
        check(*args)
    except UnitMismatchError:
        return True
    return False


@pytest.mark.parametrize("term,unit", UNIT_CASES, ids=[f"{t} in {u}" for t, u in UNIT_CASES])
def test_v007_is_exactly_the_unit_error_every_layer_raises(catalog, term, unit):
    entry = catalog.lookup(term, "ingestion")
    unit = entry.canonical_unit if unit == "canonical" else unit
    constraint = MetricConstraint(term, "<=", TypedValue.numeric(5, unit))
    document = _document(constraint)
    codes = [d.code for d in validate(document, catalog) if d.severity == "error"]
    assert set(codes) <= {"V007"}
    v007 = "V007" in codes
    fitting = FITTING["latency"]  # a number in no unit fits either term
    offer = ProviderOffer("p", "ingestion", {term: fitting})
    assert _refuses_the_unit(check_constraint_against_value, constraint, fitting, entry) is v007
    assert _refuses_the_unit(satisfies_capability, constraint, offer, catalog) is v007
    assert _refuses_the_unit(rank_offers, [constraint], [offer], None, catalog) is v007
    assert _refuses_the_unit(monitor_document, document, [], None, catalog) is v007
    assert _refuses_the_unit(end_to_end_response, document, [], None, catalog) is v007


# configuration lines added to rhms.sla under the header of the owner named,
# and whether they fit: text on a numeric hz term, a bytes unit on a
# frequency (through an alias) and a boolean on a count term do not
CONFIG_CASES = [
    ("service hb_sensing", 'sampling_rate = "fast"', False),
    ("service hb_sensing", "sampling_frequency = 5 gb", False),
    ("resource hb_sensor", "number_of_devices = true", False),
    ("service hb_sensing", "sampling_rate = 2 khz", True),
    ("service hb_sensing", "sampling_frequency = 7", True),
    ("resource hb_sensor", "number_of_devices = 40", True),
]


@pytest.mark.parametrize("owner,line,fits", CONFIG_CASES,
                         ids=[line for _, line, _ in CONFIG_CASES])
def test_v013_is_exactly_a_configuration_value_the_fit_rule_refuses(catalog, owner, line,
                                                                     fits):
    text = fixture_text("rhms.sla")
    header = next(h for h in text.splitlines() if h.startswith(owner + " "))
    document = parse(text.replace(header + "\n", f"{header}\n  {line}\n"))
    entity = next(e for e in (*document.services, *document.resources)
                  if e.id == owner.split()[1])
    param = entity.config[0]
    entry = catalog.lookup(param.term, entity.kind)
    try:
        canonical_factor(entry, param.term, "==", param.value, "configuration value")
        refused = False
    except (TypeMismatchError, UnitMismatchError):
        refused = True
    assert refused is not fits
    diagnostics = validate(document, catalog)
    assert [d.code for d in diagnostics] == ([] if fits else ["V013"])
    if not fits:
        (diagnostic,) = diagnostics
        assert (diagnostic.subject, diagnostic.span) == (entity.id, param.span)
        assert f"configuration term '{param.term}'" in diagnostic.message
        assert "metric" not in diagnostic.message
