"""Every layer applies one value-type rule.

A constraint the validator reports as V008 is exactly one that the checker
and the matcher refuse with ``TypeMismatchError``, against an observed value
or a capability that fits the term, and that the monitor refuses before any
sample arrives.  The matcher refuses it too against an offer that does not
state the term.
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
    check_constraint_against_value,
    end_to_end_response,
    monitor_document,
    rank_offers,
    satisfies_capability,
    validate,
)
from iotsla.model import APP_TARGET, InfraResourceSpec, Party, ServiceSpec, Slo, build_document

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
