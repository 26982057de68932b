"""The string escaper the JSON emitter used before json's C-coded one.

``_emit_str`` below is the code ``iotsla.interchange`` replaced with
``json.encoder.encode_basestring``, kept unchanged: it escapes ``"``,
``\\``, the five control characters JSON has short escapes for, and every
other code point below 0x20 as ``\\u00XX``, and passes everything else
through, lone surrogates included.  ``test_interchange.py`` checks that
``emit_json`` writes every code point as it does.
"""

_STR_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}


def _emit_str(value: str) -> str:
    out = ['"']
    for char in value:
        if char in _STR_ESCAPES:
            out.append(_STR_ESCAPES[char])
        elif ord(char) < 0x20:
            out.append(f"\\u{ord(char):04x}")
        else:
            out.append(char)
    out.append('"')
    return "".join(out)
