"""Every layer's work grows linearly with its input, counted in calls.

Each layer runs on seeded input of size n and 4n, and the number of Python
calls it makes, as cProfile counts them, may grow by at most 1.1 times the
growth of its input.  Call counts are deterministic, so this needs no
clock; it cannot see work done inside a C call, such as a sort or ``in`` on
a tuple, which is what timing the layers at several sizes is for.
"""

import cProfile
import pstats
import random

import pytest

from iotsla import (
    from_interchange,
    load_builtin_catalog,
    load_offer,
    parse,
    rank_offers,
    serialize,
    to_interchange,
    validate,
)
from iotsla.monitor import monitor_document, parse_telemetry

from support import gen_offer_texts, gen_scaled_agreement, gen_scaled_telemetry

N = 12  # services in the smaller agreement; offers for the smaller ranking
CATALOG = load_builtin_catalog()


def _agreement(n):
    text = gen_scaled_agreement(random.Random(5), n)
    return text, parse(text)


def _layer_inputs(layer, n):
    """(size of the input, the call that runs the layer on it)."""
    text, doc = _agreement(n)
    if layer == "parse":
        return len(text), lambda: parse(text)
    if layer == "validate":
        return len(text), lambda: validate(doc, CATALOG)
    if layer == "serialize":
        return len(text), lambda: serialize(doc)
    if layer == "to_interchange":
        return len(text), lambda: to_interchange(doc)
    if layer == "from_interchange":
        json_text = to_interchange(doc)
        return len(json_text), lambda: from_interchange(json_text)
    if layer == "load_offer and rank_offers":
        # the requirements stay fixed; the offers grow
        _, fixed = _agreement(N)
        requirements = [c for s in fixed.services if s.kind == "ingestion"
                        for slo in s.slos for c in slo.constraints]
        offers = gen_offer_texts(random.Random(6), "ingestion", n)
        return sum(map(len, offers)), lambda: rank_offers(
            requirements, [load_offer(o, CATALOG) for o in offers], None, CATALOG)
    # the agreement and its telemetry grow together
    telemetry = gen_scaled_telemetry(random.Random(7), doc, 20 * n)
    return len(text) + len(telemetry), lambda: monitor_document(
        doc, parse_telemetry(telemetry)[0], 60, CATALOG)


def _calls(run) -> int:
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


@pytest.mark.parametrize("layer", [
    "parse", "validate", "serialize", "to_interchange", "from_interchange",
    "load_offer and rank_offers", "parse_telemetry and monitor_document",
])
def test_calls_grow_linearly(layer):
    small_size, small = _layer_inputs(layer, N)
    large_size, large = _layer_inputs(layer, 4 * N)
    small()  # first calls fill lazy tables; count the ones after
    large()
    input_growth = large_size / small_size
    call_growth = _calls(large) / _calls(small)
    assert 3 < input_growth < 5
    assert call_growth <= 1.1 * input_growth, (call_growth, input_growth)
