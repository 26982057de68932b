"""The parser's memory, gated without a clock.

``tracemalloc``'s peak while parsing a seeded agreement of 192 services
(about 45 KB) may be at most 36 bytes per byte of input.  On CPython 3.11
the flat scanner, which keeps one regex match alive at a time, peaks at
about 28.  A tuple per token with its positions peaked at about 33, and
listing every match before parsing raised the peak to about 51.
"""

import random
import tracemalloc

from iotsla import parse

from support import gen_scaled_agreement

BYTES_PER_INPUT_BYTE = 36


def test_parse_peak_memory_is_bounded_per_input_byte():
    text = gen_scaled_agreement(random.Random(5), 192)
    parse(text)  # first calls fill lazy tables; measure the one after
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(text) <= BYTES_PER_INPUT_BYTE, peak / len(text)
