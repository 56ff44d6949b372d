"""Columnar analysis kernels, vectorized with numpy.

The per-address work of a :class:`~repro.core.index.CorpusIndex` build —
IID entropy, structural pattern code, EUI-64 MAC extraction, lifetime
and per-IID interval folds — is embarrassingly parallel over columns.
This module holds their vectorized implementations.

The contract every kernel honours: **bit-identical results to the
scalar reference functions.**  The vectorized entropy kernel reproduces
:func:`~repro.addr.entropy.normalized_iid_entropy`'s sum order exactly
(per-nibble terms added in first-occurrence order, non-first positions
contributing an exact ``+0.0``); count sums are exact integer
arithmetic.  Min/max folds follow ``AddressCorpus.merge``'s
keep-the-accumulator-on-ties rule (it replaces a value only on a strict
``<``/``>``), so each group takes the *first* value equal to its min or
max.  numpy's ``minimum``/``maximum`` do not promise that: on a tie
between ``-0.0`` and ``+0.0`` they may return either operand, so the
sorted fold (:func:`sorted_record_fold`) settles zero extremes
explicitly.  The equivalence is pinned against the scalar oracles
(:func:`iid_features` and the :mod:`repro.addr` functions) and by
fold ≡ rebuild in ``tests/core/test_partial_index.py``, and by the
signed-zero table in ``tests/serve/test_build.py``.

Columns cross this boundary as :mod:`array` arrays (``'d'``/``'Q'``/
``'B'``) plus plain lists for 128-bit values; numpy is an internal
detail and never leaks numpy scalars to consumers.  The exceptions are
the kernels the serving layer calls (:func:`stack_partial_columns`,
:func:`sorted_record_fold`, :func:`pair_searchsorted_array`), which
stay in ndarrays end to end.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

import numpy as np

from ..addr.entropy import (
    HIGH_THRESHOLD,
    LOW_THRESHOLD,
    _NIBBLE_TERMS,
    normalized_iid_entropy,
)
from ..addr.eui64 import EUI64_MARKER, iid_to_mac, looks_like_eui64
from ..addr.patterns import AddressCategory, STRUCTURAL_CODES

__all__ = [
    "NO_MAC",
    "iid_feature_columns",
    "lifetime_column",
    "iid_interval_map",
    "fold_record_columns",
    "sorted_record_fold",
    "stack_partial_columns",
    "pair_searchsorted_array",
]

#: Sentinel in MAC columns for rows whose IID is not EUI-64 (MACs are
#: 48-bit, so this 64-bit value can never collide with a real one).
NO_MAC = (1 << 64) - 1

_ZEROES = STRUCTURAL_CODES[AddressCategory.ZEROES]
_LOW_BYTE = STRUCTURAL_CODES[AddressCategory.LOW_BYTE]
_LOW_2_BYTES = STRUCTURAL_CODES[AddressCategory.LOW_2_BYTES]
_LOW_ENTROPY = STRUCTURAL_CODES[AddressCategory.LOW_ENTROPY]
_MEDIUM_ENTROPY = STRUCTURAL_CODES[AddressCategory.MEDIUM_ENTROPY]
_HIGH_ENTROPY = STRUCTURAL_CODES[AddressCategory.HIGH_ENTROPY]

_IID_UL_BIT = 1 << 57
_NIBBLE_COUNT = 16


def structural_code(iid: int, entropy: float) -> int:
    """Structural pattern code of an IID given its precomputed entropy.

    Mirrors :func:`repro.addr.patterns.classify_iid_structurally` with
    ``ipv4_embedded=False``, reusing an already-computed entropy.
    """
    if iid == 0:
        return _ZEROES
    if iid <= 0xFF:
        return _LOW_BYTE
    if iid <= 0xFFFF:
        return _LOW_2_BYTES
    if entropy >= HIGH_THRESHOLD:
        return _HIGH_ENTROPY
    if entropy >= LOW_THRESHOLD:
        return _MEDIUM_ENTROPY
    return _LOW_ENTROPY


def iid_features(iid: int) -> Tuple[float, int, int]:
    """Scalar ``(entropy, pattern_code, mac)`` of one IID."""
    entropy = normalized_iid_entropy(iid)
    return (
        entropy,
        structural_code(iid, entropy),
        iid_to_mac(iid) if looks_like_eui64(iid) else NO_MAC,
    )


# -- per-IID feature columns ---------------------------------------------------


def _entropy_of_distinct(iids):
    """Normalized nibble entropy per distinct IID.

    Reproduces :func:`normalized_iid_entropy` bit-for-bit: the per-count
    terms come from the same ``_NIBBLE_TERMS`` table and are accumulated
    left-to-right over the 16 nibble positions (MSB first), which *is*
    the scalar function's first-occurrence order once non-first
    positions contribute an exact ``+0.0`` (an exact no-op for the
    non-negative partial sums involved).
    """
    n = len(iids)
    terms = np.asarray(_NIBBLE_TERMS, dtype=np.float64)
    rows = np.arange(n)
    counts = np.zeros((n, _NIBBLE_COUNT), dtype=np.int64)
    nibble_at = []
    for position in range(_NIBBLE_COUNT):
        shift = 60 - 4 * position
        nibble = ((iids >> np.uint64(shift)) & np.uint64(0xF)).astype(
            np.int64
        )
        nibble_at.append(nibble)
        np.add.at(counts, (rows, nibble), 1)
    seen = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.float64)
    zero = np.float64(0.0)
    for position in range(_NIBBLE_COUNT):
        nibble = nibble_at[position]
        bit = np.left_shift(np.int64(1), nibble)
        is_first = (seen & bit) == 0
        seen |= bit
        acc = acc + np.where(
            is_first, terms[counts[rows, nibble] - 1], zero
        )
    return acc / 4.0


def iid_feature_columns(
    iids: array,
) -> Tuple[array, array, array, Dict[int, float]]:
    """Per-row ``(entropies, pattern_codes, macs)`` columns plus the
    distinct-IID entropy map, from a ``'Q'`` column of IIDs.

    Each distinct IID is computed once, so repeated IIDs (``::1`` in
    thousands of /64s, EUI-64 IIDs surviving prefix rotation) cost one
    row of work.  Values equal :func:`iid_features` per IID.
    """
    column = np.frombuffer(iids, dtype=np.uint64)
    distinct, first_row, inverse = np.unique(
        column, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)  # numpy 2.x may return the input shape
    entropy_d = _entropy_of_distinct(distinct)

    # Structural pattern code: same threshold cascade as structural_code.
    code_d = np.where(
        distinct == 0,
        np.uint8(_ZEROES),
        np.where(
            distinct <= 0xFF,
            np.uint8(_LOW_BYTE),
            np.where(
                distinct <= 0xFFFF,
                np.uint8(_LOW_2_BYTES),
                np.where(
                    entropy_d >= HIGH_THRESHOLD,
                    np.uint8(_HIGH_ENTROPY),
                    np.where(
                        entropy_d >= LOW_THRESHOLD,
                        np.uint8(_MEDIUM_ENTROPY),
                        np.uint8(_LOW_ENTROPY),
                    ),
                ),
            ),
        ),
    ).astype(np.uint8)

    # EUI-64 MAC extraction: marker test + U/L-bit flip, as iid_to_mac.
    marker = (distinct >> np.uint64(24)) & np.uint64(0xFFFF)
    is_eui64 = marker == np.uint64(EUI64_MARKER)
    flipped = distinct ^ np.uint64(_IID_UL_BIT)
    high = (flipped >> np.uint64(40)) & np.uint64(0xFFFFFF)
    low = flipped & np.uint64(0xFFFFFF)
    mac_d = np.where(
        is_eui64, (high << np.uint64(24)) | low, np.uint64(NO_MAC)
    )

    entropies = array("d")
    entropies.frombytes(entropy_d[inverse].tobytes())
    codes = array("B")
    codes.frombytes(code_d[inverse].tobytes())
    macs = array("Q")
    macs.frombytes(np.ascontiguousarray(mac_d[inverse]).tobytes())
    # Emit the distinct-IID entropy map in first-occurrence order.
    occurrence = np.argsort(first_row, kind="stable")
    iid_entropies = dict(
        zip(
            distinct[occurrence].tolist(),
            entropy_d[occurrence].tolist(),
        )
    )
    return entropies, codes, macs, iid_entropies


# -- interval and lifetime folds -----------------------------------------------


def lifetime_column(first: array, last: array) -> List[float]:
    """Per-row lifetimes ``last - first`` (row order preserved)."""
    deltas = np.frombuffer(last, dtype=np.float64) - np.frombuffer(
        first, dtype=np.float64
    )
    return deltas.tolist()


def _sorted_groups(*keys):
    """Group rows by equal keys: ``(order, starts)``.

    ``keys`` are row-aligned columns, most significant first.  ``order``
    is their stable lexicographic argsort, so rows of one group keep
    their input order; ``starts`` are the positions in ``order`` where
    each group begins, groups ascending by key.
    """
    order = np.lexsort(keys[::-1])
    begins = np.zeros(len(order), dtype=bool)
    begins[:1] = True
    for key in keys:
        ordered = key[order]
        begins[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(begins)


def _first_extreme(extreme, values, starts):
    """Per-group ``extreme.reduceat`` (``np.minimum``/``np.maximum``) that
    keeps the *first* value equal to the group's extreme.

    That is ``AddressCorpus.merge``'s rule: it replaces its accumulator
    only on a strict ``<``/``>``.  Finite floats that compare equal have
    equal bits unless they are ``-0.0`` and ``+0.0``, so only a zero extreme
    can differ from what the reduction returned; it is replaced by the
    group's first zero.  ``values`` are in group order (see
    :func:`_sorted_groups`).
    """
    out = extreme.reduceat(values, starts)
    zeros = np.flatnonzero(values == 0.0)
    groups, first_zero = np.unique(
        np.searchsorted(starts, zeros, side="right") - 1, return_index=True
    )
    tied = out[groups] == 0.0
    out[groups[tied]] = values[zeros[first_zero[tied]]]
    return out


def iid_interval_map(
    iids: array, first: array, last: array
) -> Dict[int, Tuple[float, float]]:
    """Per-IID union sighting intervals, keyed in first-occurrence order.

    The grouped fold is ``(min(first), max(last))`` per distinct IID,
    keeping the first of tied values as a running fold with strict
    ``<``/``>`` does.
    """
    column = np.frombuffer(iids, dtype=np.uint64)
    order, starts = _sorted_groups(column)
    lows = _first_extreme(
        np.minimum, np.frombuffer(first, dtype=np.float64)[order], starts
    )
    highs = _first_extreme(
        np.maximum, np.frombuffer(last, dtype=np.float64)[order], starts
    )
    # Emit in first-occurrence order so downstream consumers that
    # iterate the mapping see the same order a running fold produces.
    source = order[starts]
    emit = np.argsort(source)
    return {
        key: (low, high)
        for key, low, high in zip(
            column[source[emit]].tolist(),
            lows[emit].tolist(),
            highs[emit].tolist(),
        )
    }


# -- associative record fold (the partial-index merge) -------------------------


#: numpy dtypes of the partial-index columns, in
#: :attr:`~repro.core.index.PartialIndexColumns.COLUMN_SPEC` order.
_PARTIAL_DTYPES = (
    ("hi", "u8"),
    ("lo", "u8"),
    ("first", "f8"),
    ("last", "f8"),
    ("counts", "u8"),
    ("entropies", "f8"),
    ("codes", "u1"),
    ("macs", "u8"),
)


def stack_partial_columns(partials, rows: int):
    """Stack partial-index columns, one ndarray per column.

    ``partials`` is any iterable of partials holding ``rows`` rows in
    all; each is copied into columns allocated once, at that size, and
    may be dropped as soon as the next is drawn — so a lazy iterable
    never has every partial in memory beside the stacked columns.
    Returns ``(hi, lo, first, last, counts, entropies, codes, macs)``,
    rows in fold order: partial by partial, each in its own row order.
    """
    columns = tuple(
        np.empty(rows, dtype=dtype) for _, dtype in _PARTIAL_DTYPES
    )
    offset = 0
    for part in partials:
        end = offset + len(part)
        for column, (name, dtype) in zip(columns, _PARTIAL_DTYPES):
            column[offset:end] = np.frombuffer(
                getattr(part, name), dtype=dtype
            )
        offset = end
    # Rows past ``rows`` fail to broadcast above; rows short of it
    # would leave uninitialized values in the columns.
    if offset != rows:
        raise ValueError(f"partials hold {offset} rows, not the {rows} given")
    return columns


def sorted_record_fold(hi, lo, first, last, counts):
    """Fold rows that share a 128-bit address, in ascending address order.

    The one implementation of the record fold for analysis
    (:func:`fold_record_columns`) and serving (the ``RSI1`` builder).
    Inputs are row-aligned ndarrays (u64, u64, f64, f64, u64) in fold
    order, as :func:`stack_partial_columns` returns them.  Per distinct
    address, sorted by ``(hi, lo)``, returns ``(source, hi, lo, first,
    last, counts)``: ``source`` is the input row of the address's first
    occurrence (where the first-occurrence columns — entropy, code,
    MAC — are read), then its min ``first``, max ``last`` (the first of
    tied values, as ``AddressCorpus.merge`` keeps) and summed
    ``counts``.
    """
    order, starts = _sorted_groups(hi, lo)
    source = order[starts]
    return (
        source,
        hi[source],
        lo[source],
        _first_extreme(np.minimum, first[order], starts),
        _first_extreme(np.maximum, last[order], starts),
        np.add.reduceat(counts[order], starts),
    )


def _to_array(typecode: str, values) -> array:
    column = array(typecode)
    column.frombytes(values.tobytes())
    return column


def fold_record_columns(partials):
    """Fold per-segment partial-index columns into merged index columns.

    ``partials`` is a sequence of objects exposing ``hi``/``lo``/
    ``first``/``last``/``counts``/``entropies``/``codes``/``macs``
    columns (:class:`repro.core.index.PartialIndexColumns`).  Rows for
    the same 128-bit address fold as ``(min(first), max(last),
    sum(count))`` — the same associative, commutative fold
    ``AddressCorpus.merge`` applies — and output rows appear in
    first-occurrence order across the partials, which is exactly the
    record order of the merged corpus.  Returns ``(addresses, first,
    last, counts, entropies, codes, macs)``.
    """
    hi, lo, first, last, counts, entropies, codes, macs = (
        stack_partial_columns(partials, sum(len(part) for part in partials))
    )
    source, hi, lo, first, last, counts = sorted_record_fold(
        hi, lo, first, last, counts
    )
    # The merged corpus meets each address first at its group's first
    # input row, so its record order is the argsort of those rows.
    emit = np.argsort(source)
    source = source[emit]
    addresses = [
        (high << 64) | low
        for high, low in zip(hi[emit].tolist(), lo[emit].tolist())
    ]
    return (
        addresses,
        _to_array("d", first[emit]),
        _to_array("d", last[emit]),
        _to_array("Q", counts[emit]),
        _to_array("d", entropies[source]),
        _to_array("B", codes[source]),
        _to_array("Q", macs[source]),
    )


# -- sorted-column binary search (the serving-index query kernels) -------------

#: Below this batch size a per-query bisect beats the vectorized search
#: (per-call numpy setup dominates), so single queries stay cheap.
_VECTOR_MIN_QUERIES = 8


def pair_searchsorted_array(hi_col, lo_col, q_hi, q_lo, side="left"):
    """Insertion points of 128-bit queries in a sorted ``(hi, lo)`` pair
    of u64 columns, as an int64 ndarray — ``searchsorted`` over a
    composite key numpy has no dtype for.

    ``hi_col``/``lo_col`` are row-aligned u64 ndarrays sorted
    lexicographically by ``(hi, lo)``; the queries arrive pre-split into
    u64 ndarrays of hi and lo halves.  ``side`` follows
    :func:`bisect.bisect_left` / ``bisect_right`` semantics.  The result
    stays an ndarray because the serving layer's batch path stays in
    numpy end to end (index lookup through RSB1 reply encode).
    """
    if len(q_hi) < _VECTOR_MIN_QUERIES:
        inner = bisect_left if side == "left" else bisect_right
        out = np.empty(len(q_hi), dtype=np.int64)
        for row, (qh, ql) in enumerate(zip(q_hi, q_lo)):
            low = bisect_left(hi_col, qh)
            out[row] = inner(lo_col, ql, low, bisect_right(hi_col, qh, low))
        return out
    # The run of rows sharing the query's hi half is [left, right); a
    # batched manual bisection over the lo column inside each run turns
    # the composite 128-bit search into O(log max-run) vector steps.
    left = np.searchsorted(hi_col, q_hi, side="left").astype(np.int64)
    right = np.searchsorted(hi_col, q_hi, side="right").astype(np.int64)
    take_left = side == "left"
    while True:
        active = left < right
        if not active.any():
            break
        mid = (left + right) >> 1
        mid_vals = lo_col[np.where(active, mid, 0)]
        if take_left:
            go_right = mid_vals < q_lo
        else:
            go_right = mid_vals <= q_lo
        left = np.where(active & go_right, mid + 1, left)
        right = np.where(active & ~go_right, mid, right)
    return left
