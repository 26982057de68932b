"""Seeded input generators for the benchmark.

Everything here is plain data: an agreement is a :class:`Plan` that
:func:`render` turns into canonical agreement text, telemetry is a list of
:class:`Sample` lines with the value each one plants, and offers are JSON
texts.  No iotsla object is built here, so the oracle in ``oracle.py`` can
work from the same plans without going through the program.

The same ``random.Random`` state always gives byte-identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

WINDOW = 60

# Per service kind: the SLO metrics the generated agreements constrain, as
# (metric, comparator, threshold in the canonical unit, unit).  The first
# entry of each kind is its time-family metric, which also feeds the
# application's end-to-end response time.
SERVICE_METRICS = {
    "sensing": [("data_freshness", "<=", 4, "time_unit"),
                ("availability", ">=", 99, "percent"),
                ("data_integrity", ">=", 95, "percent")],
    "networking": [("network_delay", "<=", 3, "time_unit"),
                   ("packet_loss_rate", "<=", 2, "percent"),
                   ("link_bandwidth", ">=", 1000, "bytes_per_s")],
    "ingestion": [("latency", "<=", 5, "time_unit"),
                  ("availability", ">=", 99, "percent"),
                  ("throughput", ">=", 500, "bytes_per_s")],
    "stream_processing": [("latency", "<=", 6, "time_unit"),
                          ("miss_ratio", "<=", 5, "percent"),
                          ("data_completeness", ">=", 90, "percent")],
    "database": [("response_time", "<=", 8, "time_unit"),
                 ("cache_hit_ratio", ">=", 80, "percent"),
                 ("throughput", ">=", 200, "hz")],
}
RESOURCE_METRICS = {
    "cloud_resource": [("cpu_utilization", "<=", 85, "percent"),
                       ("outage_length", "<=", 10, "time_unit")],
    "edge_resource": [("gateway_delay", "<=", 2, "time_unit"),
                      ("availability", ">=", 98, "percent")],
}
# End-to-end bound as a share of the sum of each activity's largest stage bound.
E2E_SHARE = Fraction(17, 20)
APP_METRICS = [("availability", ">=", 99, "percent"),
               ("accuracy", ">=", 90, "percent")]

# One configuration setting per kind keeps services clear of V010 and V009.
CONFIG = {
    "sensing": ("sampling_rate", Fraction(5), "hz"),
    "ingestion": ("replication_factor", Fraction(3), None),
    "stream_processing": ("time_based_window_size", Fraction(60), "time_unit"),
    "database": ("replication_factor", Fraction(2), None),
}

# Activities of the generated workflows: (id, kind, service kinds it uses).
ACTIVITIES = [
    ("capture", "capture_eoi", ("sensing",)),
    ("filter", "filter_eoi", ("stream_processing", "sensing")),
    ("ingest", "ingest_data", ("ingestion",)),
    ("analyse", "small_scale_rt_analysis", ("stream_processing",)),
    ("store", "store_structured", ("database",)),
]

# Units other than the canonical one that the telemetry may use, with the
# factor from the canonical unit: v canonical == v / factor in this unit.
ALT_UNITS = {"percent": ("ratio", 100), "bytes_per_s": ("kb_per_s", 1000)}

# Odds that one telemetry reading misses its SLO bound.
SPIKE = 0.03

# The constrained metrics whose catalog aggregator is `ratio`.
RATIO_METRICS = frozenset({"availability", "packet_loss_rate", "miss_ratio", "cache_hit_ratio"})

# Sentinel value of a line whose value column parse_telemetry cannot read.
UNREADABLE = "unreadable"

VALIDATION_CODES = tuple(f"V{n:03d}" for n in range(1, 13))


def dec(value: Fraction) -> str:
    """Exact decimal text of a non-negative value with a finite expansion."""
    for places in range(13):
        scaled = value * 10**places
        if scaled.denominator == 1:
            whole, part = divmod(int(scaled), 10**places)
            return f"{whole}.{part:0{places}d}" if places else str(whole)
    raise ValueError(f"{value} has no short decimal form")


@dataclass
class Constraint:
    metric: str
    comparator: str
    value: Fraction | bool
    unit: str | None


@dataclass
class SloPlan:
    id: str
    target: str
    constraints: list[Constraint]


@dataclass
class ServicePlan:
    id: str
    kind: str
    resource: str
    config: list[tuple[str, Fraction, str | None]] = field(default_factory=list)


@dataclass
class Plan:
    """An agreement as data; :func:`render` gives its canonical text."""

    id: str
    title: str
    starts: str
    ends: str
    parties: list[tuple[str, str, str]]
    slos: list[SloPlan]
    activities: list[tuple[str, str, list[str]]]
    services: list[ServicePlan]
    resources: list[tuple[str, str]]
    application: str = "smart_city"


def _value_text(value: Fraction | bool, unit: str | None) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return dec(value) if unit is None else f"{dec(value)} {unit}"


def _slo_text(slo: SloPlan) -> str:
    lines = [f"slo {slo.id} on {slo.target} {{"]
    lines += [f"  {c.metric} {c.comparator} {_value_text(c.value, c.unit)}"
              for c in slo.constraints]
    return "\n".join(lines + ["}"])


def render(plan: Plan) -> str:
    """Canonical agreement text: the layout ``iotsla fmt`` writes."""
    blocks = ["\n".join([
        f'sla "{plan.title}" {{', f"  id = {plan.id}",
        f"  application = {plan.application}", f"  starts = {plan.starts}",
        f"  ends = {plan.ends}", "}"])]
    blocks += [f'party {pid} {{\n  name = "{name}"\n  role = {role}\n}}'
               for pid, name, role in plan.parties]
    # canonical order: application SLOs, then by service, then by resource
    order = {"app": 0}
    order.update({s.id: 1 + i for i, s in enumerate(plan.services)})
    order.update({r: 1 + len(plan.services) + i
                  for i, (r, _) in enumerate(plan.resources)})
    blocks += [_slo_text(s) for s in sorted(plan.slos, key=lambda s: order[s.target])]
    blocks += [f"activity {aid} : {kind} requires {', '.join(refs)}"
               for aid, kind, refs in plan.activities]
    for svc in plan.services:
        lines = [f"service {svc.id} : {svc.kind} on {svc.resource} {{"]
        lines += [f"  {term} = {_value_text(v, u)}" for term, v, u in svc.config]
        blocks.append("\n".join(lines + ["}"]))
    blocks += [f"resource {rid} : {kind} {{\n}}" for rid, kind in plan.resources]
    return "\n\n".join(blocks) + "\n"


def _jitter(rng: random.Random, base: int, unit: str) -> Fraction:
    # thresholds vary per SLO so offers and telemetry meet a spread of
    # bounds; percentages keep theirs, which sit near 100 already
    if unit == "percent":
        return Fraction(base)
    return Fraction(base) * rng.choice((Fraction(4, 5), Fraction(1), Fraction(6, 5)))


def agreement(rng: random.Random, doc_id: str, kinds: list[str], n_services: int,
              n_resource_slos: int) -> Plan:
    """A clean agreement: it validates with no findings at all.

    Services take their kinds round-robin from ``kinds``; every service has
    two SLOs (its time-family metric, then its two others) and resources
    each host at least two services.  Only thresholds and workflow
    membership vary with the seed, so every seed gives the same amount of
    work.
    """
    n_res = max(2, n_services // 4)
    resources = []
    for i in range(n_res):
        kind = ("cloud_resource", "edge_resource")[i % 2]
        resources.append((f"{doc_id}_node{i}", kind))
    services = []
    slos = []
    for metric, cmp, base, unit in APP_METRICS:
        slos.append(SloPlan(f"app_{metric}", "app",
                            [Constraint(metric, cmp, Fraction(base), unit)]))
    for i in range(n_services):
        kind = kinds[i % len(kinds)]
        sid = f"{kind[:6]}_{i:03d}"
        config = [CONFIG[kind]] if kind in CONFIG else []
        services.append(ServicePlan(sid, kind, resources[i % n_res][0], config))
        first, *rest = SERVICE_METRICS[kind]
        slos.append(SloPlan(f"{sid}_t", sid, [Constraint(
            first[0], first[1], _jitter(rng, first[2], first[3]), first[3])]))
        slos.append(SloPlan(f"{sid}_q", sid, [
            Constraint(m, c, _jitter(rng, b, u), u) for m, c, b, u in rest]))
    for rid, kind in resources[:n_resource_slos]:
        metric, cmp, base, unit = rng.choice(RESOURCE_METRICS[kind])
        slos.append(SloPlan(f"{rid}_r", rid, [Constraint(metric, cmp, Fraction(base), unit)]))
    activities = []
    for aid, kind, allowed in ACTIVITIES:
        pool = [s.id for s in services if s.kind in allowed]
        if pool:
            activities.append((aid, kind, rng.sample(pool, min(3, len(pool)))))
    # the end-to-end bound scales with the stage bounds, so every seed sees
    # about the same share of end-to-end violations
    time_bound = {slo.target: slo.constraints[0].value for slo in slos if slo.id.endswith("_t")}
    stages = sum(max(time_bound[ref] for ref in refs) for _, _, refs in activities)
    slos.insert(0, SloPlan("app_e2e", "app", [Constraint(
        "end_to_end_response_time", "<=", Fraction(round(stages * E2E_SHARE * 10), 10),
        "time_unit")]))
    return Plan(
        id=doc_id, title=f"Generated agreement {doc_id}",
        starts="2026-01-01", ends="2027-01-01",
        parties=[("buyer", "City Operator", "consumer"),
                 ("seller", "Cloud Vendor", "provider")],
        slos=slos, activities=activities, services=services, resources=resources,
    )


# -- mutants -------------------------------------------------------------------

def mutate(plan: Plan, code: str) -> Plan:
    """A copy of a clean plan that triggers exactly one finding, ``code``.

    Constraint mutations land on sensing or stream services, so the
    ingestion requirements the matcher ranks stay well formed.
    """
    p = replace(plan, slos=[replace(s, constraints=list(s.constraints)) for s in plan.slos],
                activities=[(a, k, list(r)) for a, k, r in plan.activities],
                services=[replace(s, config=list(s.config)) for s in plan.services],
                resources=list(plan.resources), parties=list(plan.parties))
    victim = next(s for s in p.services if s.kind in ("sensing", "stream_processing"))
    quality = next(s for s in p.slos if s.id == f"{victim.id}_q")
    if code == "V001":
        p.starts, p.ends = p.ends, p.starts
    elif code == "V002":
        p.slos = [s for s in p.slos if s.target != "app"]
    elif code == "V003":
        p.parties[1] = (p.parties[1][0], p.parties[1][1], "third_party")
    elif code == "V004":
        aid, kind, refs = p.activities[0]
        p.activities[0] = (aid, kind, refs + ["ghost_svc"])
    elif code == "V005":
        victim.resource = "ghost_node"
    elif code == "V006":
        quality.constraints.append(Constraint("gateway_delay", "<=", Fraction(2), "time_unit"))
    elif code == "V007":
        quality.constraints.append(Constraint("data_integrity", ">=", Fraction(90), "mb"))
    elif code == "V008":
        quality.constraints.append(Constraint("data_integrity", ">=", True, None))
    elif code == "V009":
        victim.config.append(("frob_setting", Fraction(3), None))
    elif code == "V010":
        victim.config = []
        p.slos = [s for s in p.slos if s.target != victim.id]
    elif code == "V011":
        i = next(i for i, a in enumerate(p.activities) if a[1] == "ingest_data")
        aid, kind, refs = p.activities[i]
        p.activities[i] = (aid, kind, refs + [victim.id])
    elif code == "V012":
        p.resources.append(("spare_node", "cloud_resource"))
    else:
        raise ValueError(f"no mutation for {code}")
    return p


# -- offers --------------------------------------------------------------------

# Ingestion metrics offers may guarantee; `data_integrity` is never required.
OFFER_METRICS = [("latency", 5, "time_unit"), ("availability", 99, "percent"),
                 ("throughput", 500, "bytes_per_s"), ("data_integrity", 95, "percent")]
OFFER_WEIGHTS = {"latency": Fraction(2), "availability": Fraction(3)}


def offers(rng: random.Random, count: int) -> list[tuple[str, dict[str, Fraction], str]]:
    """Ingestion offers as (provider id, canonical capabilities, JSON text)."""
    out = []
    for i in range(count):
        caps: dict[str, Fraction] = {}
        items = []
        for metric, base, unit in OFFER_METRICS:
            if rng.random() < 0.2:
                continue  # unspecified
            value = Fraction(base) * rng.choice(
                (Fraction(3, 5), Fraction(4, 5), Fraction(1), Fraction(6, 5), Fraction(7, 5)))
            caps[metric] = value
            shown, scale = (unit, 1)
            if unit in ALT_UNITS and rng.random() < 0.3:
                shown, scale = ALT_UNITS[unit]
            items.append(f'{{"metric": "{metric}", "value": {dec(value / scale)}, '
                         f'"unit": "{shown}"}}')
        pid = f"prov_{i:02d}"
        text = (f'{{"provider_id": "{pid}", "concept": "ingestion", '
                f'"capabilities": [{", ".join(items)}]}}')
        out.append((pid, caps, text))
    return out


# -- telemetry -----------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One telemetry line and what it plants.

    ``value`` is the magnitude in the metric's canonical unit, a boolean,
    None for a readable value that no numeric fold takes (a wall-clock
    unit, a word), or :data:`UNREADABLE`.
    """

    ts: int
    target: str
    metric: str
    value: Fraction | bool | str | None
    shown: str

    def line(self) -> str:
        return f"{self.ts}\t{self.target}\t{self.metric}\t{self.shown}"


def _reading(rng: random.Random, cmp: str, bound: Fraction, unit: str) -> Fraction:
    """A value that usually meets ``cmp bound`` and misses it with odds SPIKE."""
    if cmp in ("<", "<="):
        lo, hi = (Fraction(21, 20), Fraction(2)) if rng.random() < SPIKE else (
            Fraction(1, 5), Fraction(9, 10))
    else:
        lo, hi = (Fraction(1, 2), Fraction(19, 20)) if rng.random() < SPIKE else (
            Fraction(1), Fraction(11, 10))
    value = Fraction(round(bound * (lo + (hi - lo) * rng.randint(0, 20) / 20) * 10), 10)
    return min(value, Fraction(100)) if unit == "percent" else value


def _shown(rng: random.Random, value: Fraction, unit: str) -> str:
    roll = rng.random()
    if roll < 0.3:
        return dec(value)
    if unit in ALT_UNITS and roll < 0.45:
        alt, factor = ALT_UNITS[unit]
        return f"{dec(value / factor)} {alt}"
    return f"{dec(value)} {unit}"


def telemetry(rng: random.Random, plan: Plan, first_window: int, windows: int,
              per_metric: int) -> list[Sample]:
    """Samples for every constrained (target, metric) over some windows.

    Besides clean readings the lines carry a fixed noise mix: `ms` values,
    which no metric here can take, unknown targets, unknown metrics,
    unreadable values, words, boolean samples, and readings in a second unit
    of the same family.  The lines are shuffled, so timestamps arrive out of
    order.
    """
    streams = []
    for slo in plan.slos:
        target = plan.id if slo.target == "app" and rng.random() < 0.5 else slo.target
        for c in slo.constraints:
            if c.metric != "end_to_end_response_time":
                streams.append((target, c.metric, c.comparator, c.value, c.unit))
    samples: list[Sample] = []
    for w in range(first_window, first_window + windows):
        base = w * WINDOW
        for target, metric, cmp, bound, unit in streams:
            if metric in RATIO_METRICS and rng.random() < 0.1:
                # an up/down stream: booleans alone fold to a percentage
                for _ in range(3):
                    up = rng.random() < 0.8
                    samples.append(Sample(base + rng.randrange(WINDOW), target, metric,
                                          up, "true" if up else "false"))
                continue
            for _ in range(rng.randint(1, per_metric)):
                value = _reading(rng, cmp, bound, unit)
                samples.append(Sample(base + rng.randrange(WINDOW), target, metric,
                                      value, _shown(rng, value, unit)))
        for _ in range(max(1, len(streams) // 10)):
            samples.append(_noise(rng, base, streams))
    rng.shuffle(samples)
    return samples


def _noise(rng: random.Random, base: int, streams) -> Sample:
    target, metric = rng.choice(streams)[:2]
    ts = base + rng.randrange(WINDOW)
    roll = rng.randrange(6)
    if roll == 0:
        # wall-clock time never converts to the agreement's units
        return Sample(ts, target, metric, None, "3 ms")
    if roll == 1:
        return Sample(ts, f"ghost_{rng.randrange(100)}", metric, Fraction(1), "1")
    if roll == 2:
        return Sample(ts, target, "frob_metric", Fraction(1), "1")
    if roll == 3:
        return Sample(ts, target, metric, UNREADABLE, rng.choice(("n/a now", "7 ")))
    if roll == 4:
        # a boolean on a numeric stream: read, but folded only when a
        # ratio window has no numeric sample at all
        return Sample(ts, target, metric, True, "true")
    # a word is read as text, which no numeric fold takes
    return Sample(ts, target, metric, None, "degraded")
