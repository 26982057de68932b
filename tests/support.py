"""Shared helpers for the test suite.

Three things live here so several modules can reuse them without copying:

* an *independent* evaluator for offer matching, used as the oracle the
  matcher must agree with.  It never builds delivered intervals; instead
  it checks the constraint on an explicit finite witness set of values
  the provider might deliver.  For the comparators in the language the
  witness sets below decide universal satisfaction exactly, so agreement
  with the matcher is meaningful evidence, not a tautology.
* seeded random generators for SLA documents and matcher instances.
* an overlay, agreement and telemetry on which the monitor's verdict
  depends on the catalog layering.
"""

from __future__ import annotations

import random
from datetime import date
from fractions import Fraction
from pathlib import Path

from iotsla import (
    ACTIVITY_KINDS,
    KNOWN_UNITS,
    RESOURCE_KINDS,
    SERVICE_KINDS,
    SATISFIED,
    UNSPECIFIED,
    VIOLATED,
    ConfigParam,
    MetricConstraint,
    Party,
    ProviderOffer,
    ServiceSpec,
    InfraResourceSpec,
    Slo,
    TypedValue,
    WorkflowActivity,
    build_document,
    load_builtin_catalog,
    serialize,
)
from iotsla.constraints import decimal_repr

FIXTURES = Path(__file__).parent / "fixtures"

KEYWORDS = frozenset(
    "sla party slo on app activity requires service resource true false".split()
)

_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


# --- catalog layering ----------------------------------------------------------

# Overlay entry: application ``accuracy`` folds by its worst sample instead
# of the builtin mean.
ACCURACY_MIN = {
    "term": "accuracy", "concept": "application",
    "description": "accuracy of the worst output in the window",
    "value_type": "numeric", "canonical_unit": "percent",
    "direction": "higher_is_better", "aggregator": "min", "kind": "qos_metric",
}

# One window, two samples: the mean (90) meets ``accuracy >= 90 percent``,
# the minimum (80) does not.
ACCURACY_TELEMETRY = "0\tapp\taccuracy\t100 percent\n10\tapp\taccuracy\t80 percent\n"


def with_slo(sla_text: str, slo: str) -> str:
    """The agreement plus ``slo``, put before its first SLO, where SLOs belong."""
    return sla_text.replace("\nslo ", "\n" + slo + "\n\nslo ", 1)


def with_accuracy_slo(sla_text: str) -> str:
    """The agreement plus an application SLO ``accuracy >= 90 percent``."""
    return with_slo(sla_text, "slo app_accuracy on app {\n  accuracy >= 90 percent\n}")


# A boolean objective on a service, and a text sample for it that the
# monitor cannot compare with ``true`` and so ignores.
ENCRYPTION_SLO = "slo enc on ingest_svc {\n  data_encryption_support == true\n}"
ENCRYPTION_TELEMETRY = "5\tingest_svc\tdata_encryption_support\tyes\n"


# Overlay entry: application ``end_to_end_response_time`` as a text term,
# which the monitor samples like any other instead of summing it from the
# activities.
E2E_TEXT = {
    "term": "end_to_end_response_time", "concept": "application",
    "description": "how the response felt", "value_type": "text",
    "canonical_unit": "dimensionless", "direction": "none", "aggregator": "none",
    "kind": "qos_metric",
}

# One window in which the three activities' time samples sum to 12, and one
# sampled end-to-end word that breaks ``== "fast"``.
E2E_TEXT_TELEMETRY = ("0\thb_sensing\tdata_freshness\t4 time_unit\n10\tingest_svc\tlatency\t4\n"
                      "20\tstream_svc\tlatency\t4\n30\tapp\tend_to_end_response_time\tslow\n")


def with_text_e2e_bound(sla_text: str) -> str:
    """The agreement with its end-to-end bound replaced by ``== "fast"``."""
    return sla_text.replace("end_to_end_response_time <= 5 time_unit",
                            'end_to_end_response_time == "fast"')


# --- independent matcher oracle ---------------------------------------------

def oracle_witnesses(direction: str, bound: Fraction, x: Fraction) -> list[Fraction]:
    """Values the provider might deliver under a guaranteed bound.

    For lower_is_better the guarantee caps delivery at ``bound`` (floor 0);
    the set holds both endpoints and interior points.  For higher_is_better
    delivery starts at ``bound`` with no ceiling; a far point stands in for
    arbitrarily large values.  Everything else delivers the bound exactly.

    Sufficiency: <, <= fail somewhere iff they fail at the supremum (the
    far point for an unbounded guarantee); >, >= iff at the infimum; ==
    fails whenever two distinct witnesses exist.  All those witnesses are
    in the set, so checking all of them decides the universal claim.
    """
    if direction == "lower_is_better":
        return sorted({Fraction(0), bound / 3, bound / 2, bound})
    if direction == "higher_is_better":
        far = (abs(x) + abs(bound) + 1) * 10**9
        return sorted({bound, bound + 1, abs(x) + abs(bound) + 1, far})
    return [bound]


def oracle_verdict(direction: str, comparator: str,
                   x: Fraction, bound: Fraction | None) -> str:
    """Constraint ``metric comparator x`` vs a guaranteed ``bound``."""
    if bound is None:
        return UNSPECIFIED
    compare = _COMPARE[comparator]
    witnesses = oracle_witnesses(direction, bound, x)
    if all(compare(w, x) for w in witnesses):
        return SATISFIED
    return VIOLATED


def oracle_score(verdicts: list[str], metrics: list[str],
                 weights: dict[str, Fraction] | None) -> Fraction:
    total = Fraction(0)
    won = Fraction(0)
    for verdict, metric in zip(verdicts, metrics):
        w = Fraction(weights.get(metric, 1)) if weights else Fraction(1)
        total += w
        if verdict == SATISFIED:
            won += w
    return won / total if total else Fraction(1)


def oracle_ranks(scores_by_provider: dict[str, Fraction]) -> dict[str, int]:
    """Competition ranking: ties share a rank, next rank skips past them."""
    ordered = sorted(scores_by_provider.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: dict[str, int] = {}
    for position, (provider, score) in enumerate(ordered, start=1):
        if position > 1 and score == ordered[position - 2][1]:
            ranks[provider] = ranks[ordered[position - 2][0]]
        else:
            ranks[provider] = position
    return ranks


# --- random matcher instances ------------------------------------------------

def gen_fraction(rng: random.Random, lo: int = 0, hi: int = 10**4) -> Fraction:
    # decimal-representable so DSL and JSON forms stay exact
    return Fraction(rng.randint(lo, hi), 10 ** rng.randint(0, 3))


def gen_matcher_instance(rng: random.Random):
    """One random matching problem over a single concept.

    Returns (concept, requirements, offers, weights).  Metrics are real
    numeric catalog terms; values are generated directly in canonical
    units so the oracle needs no unit handling of its own.
    """
    catalog = load_builtin_catalog()
    concept = rng.choice(["ingestion", "cloud_resource", "stream_processing",
                          "database", "networking"])
    numeric_terms = [
        e for e in catalog.applicable_terms(concept)
        if e.value_type == "numeric"
    ]
    terms = rng.sample(numeric_terms, k=min(rng.randint(1, 6), len(numeric_terms)))
    requirements = [
        MetricConstraint(
            metric=e.term,
            comparator=rng.choice(["<", "<=", ">", ">=", "=="]),
            value=TypedValue.numeric(gen_fraction(rng), None),
        )
        for e in terms
    ]
    offers = []
    for i in range(rng.randint(1, 5)):
        capabilities = {}
        for e in terms:
            roll = rng.random()
            if roll < 0.25:
                continue  # leave unspecified
            value = gen_fraction(rng)
            if roll < 0.45:
                # often guarantee exactly the required figure: exercises ties
                value = requirements[terms.index(e)].value.value
            capabilities[e.term] = TypedValue.numeric(value, None)
        offers.append(ProviderOffer(f"prov_{i}", concept, capabilities))
    weights = None
    if rng.random() < 0.6:
        weights = {e.term: Fraction(rng.randint(1, 9)) for e in terms
                   if rng.random() < 0.8}
    return concept, requirements, offers, weights


# --- random SLA documents -----------------------------------------------------

_STRING_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.,:-"
)
_SPICE = '"\\\n\t'  # characters that need escaping in the DSL


class _Ids:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            head = self.rng.choice("abcdefghijklmnopqrstuvwxyz")
            tail = "".join(
                self.rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_")
                for _ in range(self.rng.randint(0, 8))
            )
            ident = head + tail
            if ident not in KEYWORDS and ident not in self.used:
                self.used.add(ident)
                return ident


def gen_string(rng: random.Random) -> str:
    chars = [rng.choice(_STRING_ALPHABET) for _ in range(rng.randint(0, 24))]
    if rng.random() < 0.2 and chars:
        chars[rng.randrange(len(chars))] = rng.choice(_SPICE)
    return "".join(chars)


def gen_value(rng: random.Random) -> TypedValue:
    roll = rng.random()
    if roll < 0.7:
        unit = None
        if rng.random() < 0.6:
            unit = rng.choice(sorted(KNOWN_UNITS))
        return TypedValue.numeric(gen_fraction(rng), unit)
    if roll < 0.85:
        return TypedValue.boolean(rng.random() < 0.5)
    return TypedValue.text(gen_string(rng))


def gen_constraint(rng: random.Random, ids: _Ids) -> MetricConstraint:
    value = gen_value(rng)
    if value.tag == "numeric":
        comparator = rng.choice(["<", "<=", ">", ">=", "=="])
    else:
        comparator = "=="
    return MetricConstraint(ids.fresh(), comparator, value)


def gen_document(rng: random.Random):
    """A structurally valid random document (it need not pass validation)."""
    ids = _Ids(rng)
    doc_id = ids.fresh()
    start = date(2020 + rng.randint(0, 5), rng.randint(1, 12), rng.randint(1, 28))
    end = date(start.year + 1 + rng.randint(0, 3), rng.randint(1, 12),
               rng.randint(1, 28))

    parties = [
        Party(ids.fresh(), gen_string(rng), role)
        for role in ("consumer", "provider")
    ]
    if rng.random() < 0.3:
        parties.append(Party(ids.fresh(), gen_string(rng), "third_party"))

    def gen_config():
        return tuple(ConfigParam(ids.fresh(), gen_value(rng))
                     for _ in range(rng.randint(0, 2)))

    resources = [
        InfraResourceSpec(ids.fresh(), rng.choice(RESOURCE_KINDS),
                          config=gen_config())
        for _ in range(rng.randint(0, 3))
    ]
    services = [
        ServiceSpec(
            ids.fresh(), rng.choice(SERVICE_KINDS),
            deployed_on=(rng.choice(resources).id if resources and rng.random() < 0.8
                         else ids.fresh()),
            config=gen_config(),
        )
        for _ in range(rng.randint(0, 4))
    ]
    activities = [
        WorkflowActivity(
            ids.fresh(), rng.choice(ACTIVITY_KINDS),
            required_services=tuple(
                rng.choice(services).id if services and rng.random() < 0.8
                else ids.fresh()
                for _ in range(rng.randint(1, 3))
            ),
        )
        for _ in range(rng.randint(0, 3))
    ]

    slos = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.3:
            target = "app"
        elif roll < 0.6 and services:
            target = rng.choice(services).id
        elif roll < 0.8 and resources:
            target = rng.choice(resources).id
        else:
            target = ids.fresh()  # dangling: stays an unattached SLO
        slos.append(Slo(
            ids.fresh(), target,
            constraints=tuple(gen_constraint(rng, ids)
                              for _ in range(rng.randint(1, 3))),
        ))

    return build_document(
        doc_id=doc_id,
        title=gen_string(rng),
        application_type=ids.fresh(),
        start_date=start,
        end_date=end,
        parties=parties,
        slos=slos,
        activities=activities,
        services=services,
        resources=resources,
    )


# --- inputs that grow with n --------------------------------------------------

_SCALED_KINDS = ("sensing", "ingestion", "stream_processing", "database", "batch_processing")


def _numeric_terms(concept: str, kind: str) -> list:
    return [e for e in load_builtin_catalog().applicable_terms(concept)
            if e.value_type == "numeric" and e.kind == kind]


def gen_scaled_agreement(rng: random.Random, n: int) -> str:
    """Agreement text with ``n`` services, each on its own resource, with an
    activity, a configuration setting and an SLO of one or two catalog
    metrics.  The units are drawn one after another, so the agreement for
    ``n`` begins as the one for ``4 * n`` does."""
    services, resources, activities, slos = [], [], [], [
        Slo("e2e", "app", (MetricConstraint(
            "end_to_end_response_time", "<=", TypedValue.numeric(60, "time_unit")),))]
    for k in range(n):
        kind = rng.choice(_SCALED_KINDS)
        config = rng.choice(_numeric_terms(kind, "configuration_parameter"))
        resources.append(InfraResourceSpec(f"res{k}", rng.choice(RESOURCE_KINDS)))
        services.append(ServiceSpec(
            f"svc{k}", kind, f"res{k}", config=(ConfigParam(
                config.term, TypedValue.numeric(gen_fraction(rng), config.canonical_unit)),)))
        activities.append(WorkflowActivity(f"act{k}", rng.choice(ACTIVITY_KINDS), (f"svc{k}",)))
        metrics = rng.sample(_numeric_terms(kind, "qos_metric"), rng.randint(1, 2))
        slos.append(Slo(f"slo{k}", f"svc{k}", tuple(
            MetricConstraint(
                e.term, "<=" if e.direction == "lower_is_better" else ">=",
                TypedValue.numeric(gen_fraction(rng), e.canonical_unit))
            for e in metrics)))
    return serialize(build_document(
        title="scaled", doc_id="scaled", application_type="smart_city",
        start_date=date(2026, 1, 1), end_date=date(2027, 1, 1),
        parties=(Party("buyer", "Buyer", "consumer"), Party("seller", "Seller", "provider")),
        slos=tuple(slos), activities=tuple(activities), services=tuple(services),
        resources=tuple(resources)))


def gen_scaled_telemetry(rng: random.Random, doc, lines: int) -> str:
    """``lines`` telemetry lines over ten 60-unit windows, each a sample of
    a metric one of ``doc``'s service SLOs bounds."""
    watched = [(s.id, c.metric, c.value.unit) for s in doc.services
               for slo in s.slos for c in slo.constraints]
    out = []
    for _ in range(lines):
        target, metric, unit = rng.choice(watched)
        value = decimal_repr(gen_fraction(rng))
        out.append(f"{rng.randrange(600)}\t{target}\t{metric}\t{value} {unit}\n")
    return "".join(out)


def gen_offer_texts(rng: random.Random, concept: str, n: int) -> list[str]:
    """``n`` offer documents for ``concept``, each stating every numeric
    metric of it."""
    return [
        '{"provider_id": "p%d", "concept": "%s", "capabilities": [%s]}' % (
            i, concept, ", ".join(
                '{"metric": "%s", "value": %s, "unit": "%s"}'
                % (e.term, decimal_repr(gen_fraction(rng)), e.canonical_unit)
                for e in _numeric_terms(concept, "qos_metric")))
        for i in range(n)
    ]
