"""Columnar analysis kernels, vectorized with numpy.

The per-address work of a :class:`~repro.core.index.CorpusIndex` build —
IID entropy, structural pattern code, EUI-64 MAC extraction and the
per-IID and per-MAC interval folds — is embarrassingly parallel over
columns.  This module holds their vectorized implementations.

The contract every kernel honours: **bit-identical results to the
scalar reference functions.**  The vectorized entropy kernel reproduces
:func:`~repro.addr.entropy.normalized_iid_entropy`'s sum order exactly
(per-nibble terms added in first-occurrence order, non-first positions
contributing an exact ``+0.0``); count sums are exact integer
arithmetic, checked against the uint64 range.  Min/max folds follow
``AddressCorpus.merge``'s keep-the-accumulator-on-ties rule (it
replaces a value only on a strict ``<``/``>``), so each group takes the
*first* value equal to its min or max.  numpy's ``minimum``/``maximum``
do not promise that: on a tie between ``-0.0`` and ``+0.0`` they may
return either operand, so the sorted fold (:func:`sorted_record_fold`)
settles zero extremes explicitly.  The equivalence is pinned against the scalar oracles
(:func:`iid_features` and the :mod:`repro.addr` functions) and by
fold ≡ rebuild in ``tests/core/test_partial_index.py``, and by the
signed-zero table in ``tests/serve/test_build.py``.

Kernels take and return row-aligned ndarrays (u64 IIDs, MACs and
address halves, f8 timestamps and entropies, u1 pattern codes); only
the interval maps answer in Python dicts, for the consumers that
iterate them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Tuple

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
    "interval_map",
    "sorted_record_fold",
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

_HALF_BITS = np.uint64(32)
_LOW_32_BITS = np.uint64(0xFFFF_FFFF)


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
    iids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(entropies, pattern_codes, macs)`` columns (f8, u1, u8)
    from a u64 column of IIDs.

    Each distinct IID is computed once, so repeated IIDs (``::1`` in
    thousands of /64s, EUI-64 IIDs surviving prefix rotation) cost one
    row of work.  Values equal :func:`iid_features` per IID.
    """
    distinct, inverse = np.unique(iids, return_inverse=True)
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

    return entropy_d[inverse], code_d[inverse], mac_d[inverse]


# -- interval folds ------------------------------------------------------------


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


def interval_map(
    keys: np.ndarray, first: np.ndarray, last: np.ndarray
) -> Dict[int, Tuple[float, float]]:
    """Per-key union sighting intervals, keyed in first-occurrence order.

    ``keys`` (IIDs, MACs) is row-aligned with ``first``/``last``.  The
    grouped fold is ``(min(first), max(last))`` per distinct key,
    keeping the first of tied values as a running fold with strict
    ``<``/``>`` does.
    """
    order, starts = _sorted_groups(keys)
    lows = _first_extreme(np.minimum, first[order], starts)
    highs = _first_extreme(np.maximum, last[order], starts)
    # Emit in first-occurrence order so downstream consumers that
    # iterate the mapping see the same order a running fold produces.
    source = order[starts]
    emit = np.argsort(source)
    return {
        key: (low, high)
        for key, low, high in zip(
            keys[source[emit]].tolist(),
            lows[emit].tolist(),
            highs[emit].tolist(),
        )
    }


# -- associative record fold (the partial-index merge) -------------------------


def _exact_sums(values, starts):
    """Per-group sums of u64 ``values`` in group order (see
    :func:`_sorted_groups`); ``OverflowError`` when one exceeds uint64.

    ``np.add`` wraps silently on uint64.  The sums of the values' 32-bit
    halves cannot wrap (a group has fewer than 2**32 rows), so they show
    exactly which group sums carry past 64 bits.
    """
    sums = np.add.reduceat(values, starts)
    carry = np.add.reduceat(values & _LOW_32_BITS, starts) >> _HALF_BITS
    carry += np.add.reduceat(values >> _HALF_BITS, starts)
    if (carry >> _HALF_BITS).any():
        raise OverflowError("a summed count exceeds the uint64 range")
    return sums


def sorted_record_fold(hi, lo, first, last, counts):
    """Fold rows that share a 128-bit address, in ascending address order.

    The one implementation of the record fold, behind
    :func:`repro.core.index.fold_partials`.  Inputs are row-aligned
    ndarrays (u64, u64, f64, f64, u64) in fold order, as
    :meth:`~repro.core.index.PartialIndexColumns.stack` returns them.
    Per distinct address, sorted by ``(hi, lo)``, returns ``(source,
    hi, lo, first, last, counts)``: ``source`` is the input row of the
    address's first occurrence (where the first-occurrence columns —
    entropy, code, MAC — are read), then its min ``first``, max
    ``last`` (the first of tied values, as ``AddressCorpus.merge``
    keeps) and summed ``counts``.  A sum beyond uint64 raises
    ``OverflowError``.
    """
    order, starts = _sorted_groups(hi, lo)
    source = order[starts]
    return (
        source,
        hi[source],
        lo[source],
        _first_extreme(np.minimum, first[order], starts),
        _first_extreme(np.maximum, last[order], starts),
        _exact_sums(counts[order], starts),
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
