"""Per-item reference encoder for RSB1 reply payloads.

:func:`repro.serve.wire.encode_reply` encodes the engine's columnar
answers, one ``tobytes`` per numpy column.  This module is the
independent side those bytes are checked against: it walks a batch's
plain Python values (what ``ColumnarResults.to_list`` or the JSON path
carries) one item at a time into :mod:`array` columns, and reads no
numpy column.  It is the list encoder the package shipped beside the
columnar one, kept verbatim.
"""

import json
import sys
from array import array

from repro.core import kernels
from repro.serve import wire


def le_bytes(column: array) -> bytes:
    """Little-endian bytes of an :mod:`array` column, host order aside."""
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI host
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _mask(results) -> bytes:
    mask = bytearray(len(results))
    for i, value in enumerate(results):
        if value is not None:
            mask[i] = 1
    return bytes(mask)


def encode_results(spec, results) -> bytes:
    """The reply payload of ``results``, a list of plain values."""
    count = len(results)
    family = spec.reply
    if family == "bool":
        return bytes(bytearray(results))
    if family == "f64opt":
        values = array("d", bytes(8 * count))
        for i, value in enumerate(results):
            if value is not None:
                values[i] = value
        return _mask(results) + le_bytes(values)
    if family == "record":
        first = array("d", bytes(8 * count))
        last = array("d", bytes(8 * count))
        counts = array("Q", bytes(8 * count))
        for i, value in enumerate(results):
            if value is not None:
                first[i], last[i], counts[i] = value
        return (
            _mask(results)
            + le_bytes(first)
            + le_bytes(last)
            + le_bytes(counts)
        )
    if family == "features":
        codes = array("B", bytes(count))
        entropies = array("d", bytes(8 * count))
        macs = array("Q", bytes(8 * count))
        for i, value in enumerate(results):
            if value is not None:
                entropies[i] = value[0]
                codes[i] = value[1]
                macs[i] = kernels.NO_MAC if value[2] is None else value[2]
        return (
            _mask(results)
            + le_bytes(codes)
            + le_bytes(entropies)
            + le_bytes(macs)
        )
    if family == "asn":
        asns = array(
            "I", (0 if value is None else value for value in results)
        )
        return le_bytes(asns)
    if family == "json":
        return json.dumps(results, separators=(",", ":")).encode("utf-8")
    raise AssertionError(f"unencodable reply family {family!r}")


def encode_reply(spec, request_id: int, results) -> bytes:
    """One reply frame of ``results``, a list of plain values."""
    return wire.encode_frame(
        wire.KIND_REPLY,
        spec.code,
        request_id,
        len(results),
        encode_results(spec, results),
    )
