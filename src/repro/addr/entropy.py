"""Normalized Shannon entropy of IPv6 interface identifiers.

Figures 1–4 of the paper plot CDFs of the *normalized Shannon entropy* of
IIDs, computed over the IID's 16 hexadecimal nibbles and divided by the
maximum attainable entropy (log2 of the alphabet size, 4 bits/nibble), so
values land in ``[0, 1]``.

The paper buckets entropies into three classes used throughout the
analyses (Fig. 2b, Fig. 5):

* **low**    — normalized entropy < 0.25 (manually assigned, e.g. ``::1``)
* **medium** — 0.25 <= entropy < 0.75
* **high**   — entropy >= 0.75 (privacy/random addresses)

As the paper notes, entropy is an imperfect proxy for randomness: the IID
``0123:4567:89ab:cdef`` scores 1.0 despite being an obvious pattern.  We
reproduce the metric as specified rather than attempting to repair it.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import Iterable, List, Sequence

from .ipv6 import IID_MASK

__all__ = [
    "EntropyClass",
    "LOW_THRESHOLD",
    "HIGH_THRESHOLD",
    "shannon_entropy",
    "normalized_iid_entropy",
    "normalized_byte_entropy",
    "entropy_class",
    "classify_entropies",
    "entropy_histogram",
]

#: Boundary below which an IID is "low entropy".
LOW_THRESHOLD = 0.25

#: Boundary at/above which an IID is "high entropy".
HIGH_THRESHOLD = 0.75

_NIBBLE_COUNT = 16
_MAX_NIBBLE_ENTROPY = 4.0  # log2(16)
_MAX_BYTE_ENTROPY = 3.0    # log2(8) symbols when hashing 8 bytes


class EntropyClass(Enum):
    """The paper's three-way entropy bucketing of IIDs."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def bounds(self):
        """The half-open ``[lo, hi)`` normalized-entropy interval."""
        if self is EntropyClass.LOW:
            return (0.0, LOW_THRESHOLD)
        if self is EntropyClass.MEDIUM:
            return (LOW_THRESHOLD, HIGH_THRESHOLD)
        return (HIGH_THRESHOLD, 1.0 + 1e-9)


def shannon_entropy(symbols: Sequence[int]) -> float:
    """Shannon entropy (bits/symbol) of an observed symbol sequence."""
    if not symbols:
        raise ValueError("entropy of an empty sequence is undefined")
    counts = Counter(symbols)
    total = len(symbols)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


# -(p * log2(p)) for a nibble occurring `count` times out of 16, indexed
# by count - 1.  Every count/16 is an exact binary fraction, so each term
# is bit-identical to the one shannon_entropy computes inline; summing
# them in the same (first-occurrence) order reproduces its result exactly.
_NIBBLE_TERMS = tuple(
    -((count / _NIBBLE_COUNT) * math.log2(count / _NIBBLE_COUNT))
    for count in range(1, _NIBBLE_COUNT + 1)
)


def normalized_iid_entropy(iid: int) -> float:
    """Normalized Shannon entropy of an IID's 16 nibbles, in ``[0, 1]``.

    This is the paper's metric.  An all-zero IID scores 0.0; an IID whose
    16 nibbles are all distinct scores 1.0.  Equals
    ``shannon_entropy(nibbles_of_iid(iid)) / 4`` bit-for-bit, computed
    without the intermediate nibble list and with the per-count terms
    from a lookup table — this runs once per distinct IID of a corpus,
    so it is the analysis pipeline's innermost loop.

    >>> normalized_iid_entropy(0)
    0.0
    >>> normalized_iid_entropy(0x0123456789abcdef)
    1.0
    """
    iid &= IID_MASK
    counts = [0] * _NIBBLE_COUNT
    order = []
    for shift in range(60, -4, -4):
        nibble = (iid >> shift) & 0xF
        if not counts[nibble]:
            order.append(nibble)
        counts[nibble] += 1
    entropy = 0.0
    for nibble in order:
        entropy += _NIBBLE_TERMS[counts[nibble] - 1]
    return entropy / _MAX_NIBBLE_ENTROPY


def normalized_byte_entropy(iid: int) -> float:
    """Normalized Shannon entropy over the IID's 8 bytes.

    Provided for the ablation bench on entropy granularity (DESIGN.md §6):
    with only 8 symbols the maximum attainable entropy is log2(8) = 3 bits,
    so byte-level entropy saturates earlier than nibble-level.
    """
    iid &= IID_MASK
    data = iid.to_bytes(8, "big")
    return shannon_entropy(list(data)) / _MAX_BYTE_ENTROPY


def entropy_class(entropy: float) -> EntropyClass:
    """Bucket a normalized entropy into the paper's low/medium/high classes."""
    if not 0.0 <= entropy <= 1.0 + 1e-9:
        raise ValueError(f"normalized entropy out of range: {entropy!r}")
    if entropy < LOW_THRESHOLD:
        return EntropyClass.LOW
    if entropy < HIGH_THRESHOLD:
        return EntropyClass.MEDIUM
    return EntropyClass.HIGH


def classify_entropies(iids: Iterable[int]):
    """Count IIDs per entropy class; returns ``{EntropyClass: count}``."""
    counts = {cls: 0 for cls in EntropyClass}
    for iid in iids:
        counts[entropy_class(normalized_iid_entropy(iid))] += 1
    return counts


def entropy_histogram(entropies: Iterable[float], bins: int = 50) -> List[int]:
    """Histogram normalized entropies into ``bins`` equal-width buckets.

    The final bin is closed on the right so an entropy of exactly 1.0 is
    counted rather than dropped.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    histogram = [0] * bins
    for entropy in entropies:
        index = int(entropy * bins)
        if index >= bins:
            index = bins - 1
        if index < 0:
            raise ValueError(f"negative entropy: {entropy!r}")
        histogram[index] += 1
    return histogram
