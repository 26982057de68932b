"""Offer matching against the independent witness-set oracle."""

import json
import random
from fractions import Fraction

import pytest

from iotsla import (
    MetricConstraint,
    ProviderOffer,
    SATISFIED,
    SchemaViolationError,
    TypeMismatchError,
    TypedValue,
    UNSPECIFIED,
    UnitMismatchError,
    VIOLATED,
    load_offer,
    rank_offers,
    satisfies_capability,
)
from iotsla import matcher
from iotsla.matcher import render_report_table, score_offer
from iotsla.vocabulary import Catalog

from support import (
    fixture_text,
    gen_matcher_instance,
    oracle_ranks,
    oracle_score,
    oracle_verdict,
)


def _constraint(metric, comparator, value, unit=None):
    return MetricConstraint(metric, comparator, TypedValue.numeric(value, unit))


def _offer(**capabilities):
    caps = {m: TypedValue.numeric(v, None) for m, v in capabilities.items()}
    return ProviderOffer("p", "ingestion", caps)


# --- directional semantics, worked cases --------------------------------------

def test_lower_is_better_bound_is_a_ceiling(catalog):
    c = _constraint("latency", "<=", 5)
    assert satisfies_capability(c, _offer(latency=4), catalog) == SATISFIED
    assert satisfies_capability(c, _offer(latency=5), catalog) == SATISFIED
    assert satisfies_capability(c, _offer(latency=6), catalog) == VIOLATED
    # delivery may be anywhere below the ceiling, so a floor never holds
    floor = _constraint("latency", ">=", 1)
    assert satisfies_capability(floor, _offer(latency=4), catalog) == VIOLATED


def test_higher_is_better_bound_is_a_floor(catalog):
    c = _constraint("availability", ">=", Fraction(9995, 100))
    assert satisfies_capability(c, _offer(availability=Fraction(9999, 100)),
                                catalog) == SATISFIED
    assert satisfies_capability(c, _offer(availability=Fraction(999, 10)),
                                catalog) == VIOLATED
    # overdelivery is unbounded, so a ceiling never holds
    cap = _constraint("availability", "<=", 100)
    assert satisfies_capability(cap, _offer(availability=99), catalog) == VIOLATED


def test_missing_capability_is_unspecified(catalog):
    c = _constraint("availability", ">=", 99)
    assert satisfies_capability(c, _offer(latency=1), catalog) == UNSPECIFIED


def test_unit_conversion_in_capabilities(catalog):
    c = _constraint("throughput", ">=", 100, "mb_per_s")
    offer = ProviderOffer("p", "ingestion", {
        "throughput": TypedValue.numeric(Fraction(2, 10), "gb_per_s"),
    })
    assert satisfies_capability(c, offer, catalog) == SATISFIED


def test_unknown_metric_raises(catalog):
    c = _constraint("sampling_rate", ">=", 5)  # a sensing term
    with pytest.raises(ValueError):
        satisfies_capability(c, _offer(latency=1), catalog)


# --- oracle agreement ----------------------------------------------------------

def test_random_instances_match_oracle(catalog):
    rng = random.Random(1234)
    for i in range(150):
        concept, reqs, offers, weights = gen_matcher_instance(rng)
        reports = rank_offers(reqs, offers, weights, catalog)
        metrics = [c.metric for c in reqs]
        scores = {}
        for offer in offers:
            verdicts = []
            for c in reqs:
                entry = catalog.lookup(c.metric, concept)
                cap = offer.capabilities.get(c.metric)
                verdicts.append(oracle_verdict(
                    entry.direction, c.comparator, c.value.value,
                    cap.value if cap is not None else None,
                ))
            scores[offer.provider_id] = oracle_score(verdicts, metrics, weights)
        ranks = oracle_ranks(scores)
        for report in reports:
            assert report.score == scores[report.provider_id], (i, report)
            assert report.rank == ranks[report.provider_id], (i, report)


FRACTIONAL_WEIGHTS = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 6), Fraction(3, 4),
                      10**30 + Fraction(1, 7), Fraction(1, 10**12), 2]


def test_fractional_weights_match_oracle(catalog):
    # the generated weights are whole numbers; these have unlike
    # denominators, so the scores sum them over a common one
    rng = random.Random(2718)
    for i in range(150):
        concept, reqs, offers, _ = gen_matcher_instance(rng)
        weights = {c.metric: rng.choice(FRACTIONAL_WEIGHTS) for c in reqs
                   if rng.random() < 0.8}
        metrics = [c.metric for c in reqs]
        scores = {}
        for offer in offers:
            verdicts = []
            for c in reqs:
                entry = catalog.lookup(c.metric, concept)
                cap = offer.capabilities.get(c.metric)
                verdicts.append(oracle_verdict(
                    entry.direction, c.comparator, c.value.value,
                    cap.value if cap is not None else None,
                ))
            scores[offer.provider_id] = oracle_score(verdicts, metrics, weights)
            assert score_offer(reqs, offer, weights, catalog) == scores[offer.provider_id]
        ranks = oracle_ranks(scores)
        for report in rank_offers(reqs, offers, weights, catalog):
            assert report.score == scores[report.provider_id], (i, report)
            assert report.rank == ranks[report.provider_id], (i, report)


def test_weight_scale_invariance(catalog):
    # metrics absent from the map weigh 1, so scaling is only meaningful
    # once every metric has an explicit weight
    rng = random.Random(77)
    for _ in range(40):
        concept, reqs, offers, weights = gen_matcher_instance(rng)
        weights = dict(weights or {})
        for c in reqs:
            weights.setdefault(c.metric, Fraction(1))
        scaled = {k: v * 10 for k, v in weights.items()}
        a = rank_offers(reqs, offers, weights, catalog)
        b = rank_offers(reqs, offers, scaled, catalog)
        assert a == b


def test_dominance_monotonicity(catalog):
    rng = random.Random(4321)
    checked = 0
    while checked < 60:
        concept, reqs, offers, weights = gen_matcher_instance(rng)
        offer = rng.choice(offers)
        directional = [
            m for m in offer.capabilities
            if catalog.lookup(m, concept).direction in
            ("lower_is_better", "higher_is_better")
        ]
        if not directional:
            continue
        metric = rng.choice(directional)
        entry = catalog.lookup(metric, concept)
        old = offer.capabilities[metric]
        factor = Fraction(1, 2) if entry.direction == "lower_is_better" else 2
        improved_caps = dict(offer.capabilities)
        improved_caps[metric] = TypedValue.numeric(old.value * factor, old.unit)
        improved = ProviderOffer(offer.provider_id, concept, improved_caps)
        before = score_offer(reqs, offer, weights, catalog)
        after = score_offer(reqs, improved, weights, catalog)
        assert after >= before
        checked += 1


# --- ranking edges --------------------------------------------------------------

def test_competition_ranking_and_tie_break(catalog):
    reqs = [_constraint("latency", "<=", 5)]
    offers = [
        ProviderOffer("d", "ingestion", {"latency": TypedValue.numeric(9, None)}),
        ProviderOffer("b", "ingestion", {"latency": TypedValue.numeric(1, None)}),
        ProviderOffer("a", "ingestion", {"latency": TypedValue.numeric(2, None)}),
        ProviderOffer("c", "ingestion", {"latency": TypedValue.numeric(8, None)}),
    ]
    reports = rank_offers(reqs, offers, None, catalog)
    assert [(r.provider_id, r.rank) for r in reports] == [
        ("a", 1), ("b", 1), ("c", 3), ("d", 3),
    ]


def test_empty_requirements_score_one(catalog):
    offer = _offer(latency=3)
    assert score_offer([], offer, None, catalog) == 1
    report = rank_offers([], [offer], None, catalog)[0]
    assert report.score == 1 and report.rank == 1


def test_rank_offers_computes_each_verdict_once(catalog, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return satisfies_capability(*args)

    monkeypatch.setattr(matcher, "satisfies_capability", counting)
    reqs = [_constraint("latency", "<=", 5), _constraint("availability", ">=", 99)]
    offers = [_offer(latency=4), _offer(latency=6, availability=100), _offer()]
    rank_offers(reqs, offers, {"latency": 2}, catalog)
    assert len(calls) == len(offers) * len(reqs)


def test_rank_offers_resolves_each_requirement_once(catalog, monkeypatch):
    calls = []
    lookup = Catalog.lookup

    def counting(self, term, concept):
        calls.append(term)
        return lookup(self, term, concept)

    monkeypatch.setattr(Catalog, "lookup", counting)
    reqs = [_constraint("latency", "<=", 5), _constraint("availability", ">=", 99),
            _constraint("throughput", ">=", 1, "kb_per_s"), _constraint("latency", "<", 9)]
    offers = [_offer(latency=4), _offer(latency=6, availability=100), _offer()] * 4
    weights = {"latency": 2, "availability": 3}
    rank_offers(reqs, offers, weights, catalog)
    assert len(calls) <= len(reqs) + len(weights)


@pytest.mark.parametrize("constraint,error", [
    (MetricConstraint("latency", "<=", TypedValue.text("fast")), TypeMismatchError),
    (_constraint("latency", "<=", 5, "gb"), UnitMismatchError),
])
def test_a_requirement_that_does_not_fit_is_refused_whatever_the_offer_states(
        catalog, constraint, error):
    # the offer does not name latency, yet the requirement is refused, as
    # the monitor refuses such a bound before any sample arrives
    offer = _offer(availability=100)
    with pytest.raises(error):
        satisfies_capability(constraint, offer, catalog)
    with pytest.raises(error):
        score_offer([constraint], offer, None, catalog)
    with pytest.raises(error):
        rank_offers([constraint], [offer], None, catalog)
    # with no offers there is nothing to resolve
    assert rank_offers([constraint], [], None, catalog) == []


@pytest.mark.parametrize("metric", ["sampling_rate", "sampling_frequency"])
@pytest.mark.parametrize("key", ["sampling_rate", "sampling_frequency"])
def test_weights_match_requirements_by_term(catalog, metric, key):
    # sampling_frequency is an alias of sensing's sampling_rate: a weight
    # under either spelling weighs a requirement under either spelling
    reqs = [_constraint(metric, ">=", 10, "hz"), _constraint("availability", ">=", 99)]
    offer = ProviderOffer("p", "sensing", {"availability": TypedValue.numeric(100, None)})
    assert score_offer(reqs, offer, {key: 3}, catalog) == Fraction(1, 4)
    assert rank_offers(reqs, [offer], {key: 3}, catalog)[0].score == Fraction(1, 4)


def test_mixed_concepts_rejected(catalog):
    offers = [
        ProviderOffer("a", "ingestion", {}),
        ProviderOffer("b", "database", {}),
    ]
    with pytest.raises(ValueError):
        rank_offers([], offers, None, catalog)


# --- offer files ----------------------------------------------------------------

def test_load_offer_fixture(catalog):
    offer = load_offer(fixture_text("alpha.offer.json"), catalog)
    assert offer.provider_id == "alpha"
    assert offer.capabilities["availability"].value == Fraction(9999, 100)


def test_load_offer_resolves_aliases(catalog):
    raw = {
        "provider_id": "p", "concept": "sensing",
        "capabilities": [{"metric": "sampling_frequency", "value": 5, "unit": "hz"}],
    }
    offer = load_offer(json.dumps(raw), catalog)
    assert "sampling_rate" in offer.capabilities


def test_load_offer_for_the_application_concept(catalog):
    raw = {
        "provider_id": "p", "concept": "application",
        "capabilities": [{"metric": "availability", "value": 99.9, "unit": "percent"}],
    }
    offer = load_offer(json.dumps(raw), catalog)
    assert offer.capabilities["availability"].value == Fraction(999, 10)


@pytest.mark.parametrize("damage", [
    lambda d: d.update(concept="weather"),
    lambda d: d.update(extra=True),
    lambda d: d.pop("provider_id"),
    lambda d: d["capabilities"].append({"metric": "latency", "value": 1}),
    lambda d: d["capabilities"][0].pop("value"),
    lambda d: d["capabilities"][0].update(metric="sampling_rate"),
])
def test_load_offer_rejects_bad_shapes(catalog, damage):
    data = json.loads(fixture_text("alpha.offer.json"))
    damage(data)
    with pytest.raises(SchemaViolationError):
        load_offer(json.dumps(data), catalog)


@pytest.mark.parametrize("capability,pointer", [
    ({"metric": "latency", "value": "fast"}, "/capabilities/1/value"),
    ({"metric": "latency", "value": True}, "/capabilities/1/value"),
    ({"metric": "latency", "value": 3, "unit": "gb"}, "/capabilities/1/unit"),
    ({"metric": "latency", "value": 3, "unit": "parsec"}, "/capabilities/1/unit"),
    # 1 == True in Python: a numeric 1 would satisfy "== true"
    ({"metric": "data_compression_support", "value": 1}, "/capabilities/1/value"),
    ({"metric": "data_compression_support", "value": "yes"}, "/capabilities/1/value"),
])
def test_load_offer_rejects_capabilities_that_do_not_fit(catalog, capability, pointer):
    fits = {"metric": "throughput", "value": 5, "unit": "kb_per_s"}
    raw = {"provider_id": "p", "concept": "ingestion", "capabilities": [fits, capability]}
    with pytest.raises(SchemaViolationError) as info:
        load_offer(json.dumps(raw), catalog)
    assert info.value.pointer == pointer


def test_render_report_table(catalog):
    reqs = [_constraint("latency", "<=", 5),
            _constraint("availability", ">=", 99)]
    offers = [_offer(latency=3)]
    table = render_report_table(rank_offers(reqs, offers, None, catalog), reqs)
    assert "latency" in table and "availability" in table
    assert "satisfied" in table and "unspecified" in table
