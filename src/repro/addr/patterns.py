"""Structural classification of IPv6 interface identifiers.

Section 4.3 / Figure 5 of the paper sort every address into one of seven
mutually exclusive categories:

1. **Zeroes** — the IID is all zero (subnet-router anycast style).
2. **Low Byte** — only the least-significant byte is set (``::1``, ``::2``).
3. **Low 2 Bytes** — only the two least-significant bytes are set.
4. **IPv4 mapped** — the IID embeds an IPv4 address (three encodings are
   checked) that originates in the same AS as the IPv6 address.
5. **High entropy** — normalized nibble entropy >= 0.75.
6. **Medium entropy** — 0.25 <= entropy < 0.75.
7. **Low entropy** — entropy < 0.25 (and none of the above).

IPv4-embedding acceptance is deliberately conservative: random IIDs can
coincidentally decode to a plausible IPv4 address, so the paper only
accepts an AS's IPv4-embedded addresses when (i) the AS contributes at
least ``MIN_AS_INSTANCES`` such addresses and (ii) they exceed
``MIN_AS_FRACTION`` of the AS's total addresses.
:class:`CategoryClassifier` implements that two-pass corpus rule.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .entropy import EntropyClass, entropy_class, normalized_iid_entropy
from .ipv6 import IID_MASK, iid_of

__all__ = [
    "AddressCategory",
    "CATEGORY_BY_CODE",
    "MIN_AS_INSTANCES",
    "MIN_AS_FRACTION",
    "STRUCTURAL_CODES",
    "embedded_ipv4_candidates",
    "classify_iid_structurally",
    "CategoryClassifier",
    "category_fractions",
]

#: Minimum count of IPv4-embedded addresses an AS must contribute.
MIN_AS_INSTANCES = 100

#: Minimum fraction of an AS's addresses that must be IPv4-embedded.
MIN_AS_FRACTION = 0.10


class AddressCategory(Enum):
    """The paper's seven-way addressing-pattern taxonomy (Fig. 5)."""

    ZEROES = "zeroes"
    LOW_BYTE = "low_byte"
    LOW_2_BYTES = "low_2_bytes"
    IPV4_MAPPED = "ipv4_mapped"
    HIGH_ENTROPY = "high_entropy"
    MEDIUM_ENTROPY = "medium_entropy"
    LOW_ENTROPY = "low_entropy"


_ENTROPY_TO_CATEGORY = {
    EntropyClass.LOW: AddressCategory.LOW_ENTROPY,
    EntropyClass.MEDIUM: AddressCategory.MEDIUM_ENTROPY,
    EntropyClass.HIGH: AddressCategory.HIGH_ENTROPY,
}

#: Stable small-int encoding of the structural (pre-IPv4-verdict)
#: category, used by the columnar corpus index's pattern-class column.
STRUCTURAL_CODES: Dict[AddressCategory, int] = {
    category: code for code, category in enumerate(AddressCategory)
}

#: Inverse of :data:`STRUCTURAL_CODES`: ``CATEGORY_BY_CODE[code]``.
CATEGORY_BY_CODE: Tuple[AddressCategory, ...] = tuple(AddressCategory)


def _groups_of_iid(iid: int) -> Tuple[int, int, int, int]:
    """Split an IID into its four 16-bit textual groups, MSB first."""
    return (
        (iid >> 48) & 0xFFFF,
        (iid >> 32) & 0xFFFF,
        (iid >> 16) & 0xFFFF,
        iid & 0xFFFF,
    )


def _decimal_coded_octet(group: int) -> Optional[int]:
    """Decode a 16-bit group whose hex digits *read* as a decimal octet.

    ``0x0192`` reads as "192" and decodes to octet 192; ``0x01ab`` has
    non-decimal digits and returns ``None``, as does anything > 255.
    """
    text = f"{group:x}"
    if not text.isdigit():
        return None
    octet = int(text, 10)
    if octet > 255:
        return None
    return octet


def embedded_ipv4_candidates(iid: int) -> Dict[str, int]:
    """Return candidate embedded IPv4 addresses keyed by encoding name.

    Three encodings are checked, mirroring the paper's methodology:

    * ``"hex32"`` — the IPv4 address occupies the low 32 bits verbatim and
      the high 32 bits of the IID are zero (``::c000:0201``).
    * ``"decimal_groups"`` — each of the four 16-bit groups spells one
      octet in decimal (``::192:0:2:1``).
    * ``"byte_per_group"`` — each group carries one octet in its low byte
      with the high byte clear (``::c0:0:2:1``).

    Values are 32-bit IPv4 integers.  An all-zero IID yields no candidates
    (it is category ZEROES, and 0.0.0.0 is not a routable address).
    """
    iid &= IID_MASK
    candidates: Dict[str, int] = {}
    if iid == 0:
        return candidates

    if (iid >> 32) == 0:
        candidates["hex32"] = iid & 0xFFFFFFFF

    groups = _groups_of_iid(iid)

    value = 0
    for group in groups:
        octet = _decimal_coded_octet(group)
        if octet is None:
            break
        value = (value << 8) | octet
    else:
        candidates["decimal_groups"] = value

    if all(group <= 0xFF for group in groups):
        value = 0
        for group in groups:
            value = (value << 8) | group
        # Distinguish from hex32 only when it decodes differently.
        if candidates.get("hex32") != value:
            candidates["byte_per_group"] = value

    return candidates


def classify_iid_structurally(
    iid: int, ipv4_embedded: bool = False
) -> AddressCategory:
    """Classify a single IID given a pre-decided IPv4-embedding verdict.

    The Zeroes / Low Byte / Low 2 Bytes checks take precedence over the
    IPv4 verdict (``::1`` would also decode as 0.0.0.1); entropy classes
    are the fallback.
    """
    iid &= IID_MASK
    if iid == 0:
        return AddressCategory.ZEROES
    if iid <= 0xFF:
        return AddressCategory.LOW_BYTE
    if iid <= 0xFFFF:
        return AddressCategory.LOW_2_BYTES
    if ipv4_embedded:
        return AddressCategory.IPV4_MAPPED
    return _ENTROPY_TO_CATEGORY[entropy_class(normalized_iid_entropy(iid))]


class CategoryClassifier:
    """Corpus-level seven-category classifier with the AS acceptance rule.

    Parameters
    ----------
    ipv6_origin_asn:
        Callable mapping a 128-bit IPv6 address to its origin ASN (or
        ``None`` when unrouted).
    ipv4_origin_asn:
        Callable mapping a 32-bit IPv4 address to its origin ASN (or
        ``None``).  When omitted, no address is ever accepted as
        IPv4-embedded — useful for purely structural runs.
    min_as_instances / min_as_fraction:
        The acceptance thresholds; paper defaults are 100 and 10%.
    """

    def __init__(
        self,
        ipv6_origin_asn: Optional[Callable[[int], Optional[int]]] = None,
        ipv4_origin_asn: Optional[Callable[[int], Optional[int]]] = None,
        min_as_instances: int = MIN_AS_INSTANCES,
        min_as_fraction: float = MIN_AS_FRACTION,
    ) -> None:
        if min_as_instances < 1:
            raise ValueError("min_as_instances must be >= 1")
        if not 0.0 <= min_as_fraction <= 1.0:
            raise ValueError("min_as_fraction must lie in [0, 1]")
        self._ipv6_origin = ipv6_origin_asn
        self._ipv4_origin = ipv4_origin_asn
        self._min_instances = min_as_instances
        self._min_fraction = min_as_fraction

    def _candidate_matches_asn(self, address: int, asn: int) -> bool:
        """True when any embedded-IPv4 candidate originates in ``asn``."""
        assert self._ipv4_origin is not None
        for candidate in embedded_ipv4_candidates(iid_of(address)).values():
            if self._ipv4_origin(candidate) == asn:
                return True
        return False

    def classify_corpus(
        self, addresses: Iterable[int]
    ) -> Dict[AddressCategory, int]:
        """Classify a corpus; returns counts per category.

        Runs the two-pass algorithm: the first pass tallies, per AS, how
        many addresses carry a same-AS embedded IPv4 candidate; the second
        pass accepts the IPV4_MAPPED label only inside ASes that clear
        both thresholds.
        """
        addresses = list(addresses)
        accepted_ases = self._accepted_ipv4_ases(addresses)
        counts: Dict[AddressCategory, int] = {
            category: 0 for category in AddressCategory
        }
        for address in addresses:
            embedded = False
            if accepted_ases and self._ipv6_origin is not None:
                asn = self._ipv6_origin(address)
                if asn in accepted_ases:
                    embedded = self._candidate_matches_asn(address, asn)
            counts[classify_iid_structurally(iid_of(address), embedded)] += 1
        return counts

    def classify_index(
        self, index, rows: Optional[Iterable[int]] = None
    ) -> Dict[AddressCategory, int]:
        """Classify via a columnar corpus index; equals classify_corpus.

        ``index`` is a :class:`repro.core.index.CorpusIndex` (duck-typed:
        only its ``addresses``, ``hi``, ``lo`` (the IID) and
        ``pattern_codes`` columns are read).  ``rows`` restricts
        classification to a row subset (the windowed Fig. 5 variant);
        ``None`` means all rows.

        The same two-pass acceptance rule runs, but structural classes
        come from the precomputed pattern-code column, and candidate
        decoding / IPv4-origin probes are memoized per distinct
        ``(IID, ASN)`` pair — both pure functions of their inputs, so
        the counts are exactly those of :meth:`classify_corpus`.
        """
        addresses = index.addresses
        iids = index.lo.tolist()
        codes = index.pattern_codes.tolist()
        row_list = (
            range(len(addresses)) if rows is None else list(rows)
        )
        asns = self._resolve_rows(index, row_list)
        candidates_of: Dict[int, Dict[str, int]] = {}
        match_cache: Dict[Tuple[int, int], bool] = {}

        def matches(iid: int, asn: int) -> bool:
            candidates = candidates_of.get(iid)
            if candidates is None:
                candidates = embedded_ipv4_candidates(iid)
                candidates_of[iid] = candidates
            if not candidates:
                # The common case (no encoding decodes): no ASN can
                # match, so skip the per-(IID, ASN) cache entirely.
                return False
            key = (iid, asn)
            cached = match_cache.get(key)
            if cached is None:
                cached = any(
                    self._ipv4_origin(candidate) == asn
                    for candidate in candidates.values()
                )
                match_cache[key] = cached
            return cached

        accepted: set = set()
        if self._ipv6_origin is not None and self._ipv4_origin is not None:
            per_as_total: Counter = Counter()
            per_as_embedded: Counter = Counter()
            for position, row in enumerate(row_list):
                asn = asns[position]
                if asn is None:
                    continue
                per_as_total[asn] += 1
                iid = iids[row]
                # Structural categories 1-3 can never be IPv4-embedded.
                if iid <= 0xFFFF:
                    continue
                if matches(iid, asn):
                    per_as_embedded[asn] += 1
            for asn, embedded_count in per_as_embedded.items():
                if (
                    embedded_count >= self._min_instances
                    and embedded_count > self._min_fraction * per_as_total[asn]
                ):
                    accepted.add(asn)

        counts: Dict[AddressCategory, int] = {
            category: 0 for category in AddressCategory
        }
        for position, row in enumerate(row_list):
            iid = iids[row]
            if iid > 0xFFFF and accepted:
                asn = asns[position]
                if asn in accepted and matches(iid, asn):
                    counts[AddressCategory.IPV4_MAPPED] += 1
                    continue
            counts[CATEGORY_BY_CODE[codes[row]]] += 1
        return counts

    def _resolve_rows(self, index, row_list) -> List[Optional[int]]:
        """Origin ASN per row of ``row_list``, memoized per /64.

        When the IPv6 origin resolver advertises which /64s contain an
        announcement more specific than /64 (a ``hot_slash64s``
        attribute, as :class:`repro.core.index.CachedOrigins` does),
        every other /64 shares one origin across its addresses, so the
        resolver runs once per distinct /64 key, read from the index's
        ``hi`` column; hot /64s resolve per address.
        """
        origin = self._ipv6_origin
        if origin is None:
            return [None] * len(row_list)
        addresses = index.addresses
        hot = getattr(origin, "hot_slash64s", None)
        if hot is None:
            return [origin(addresses[row]) for row in row_list]
        hot = {key >> 64 for key in hot}
        hi = index.hi.tolist()
        cache: Dict[int, Optional[int]] = {}
        asns: List[Optional[int]] = []
        for row in row_list:
            key = hi[row]
            if key in hot:
                asns.append(origin(addresses[row]))
                continue
            try:
                asns.append(cache[key])
            except KeyError:
                asn = origin(addresses[row])
                cache[key] = asn
                asns.append(asn)
        return asns

    def _accepted_ipv4_ases(self, addresses: List[int]) -> set:
        """First pass: the set of ASes whose IPv4-embeddings are trusted."""
        if self._ipv6_origin is None or self._ipv4_origin is None:
            return set()
        per_as_total: Counter = Counter()
        per_as_embedded: Counter = Counter()
        for address in addresses:
            asn = self._ipv6_origin(address)
            if asn is None:
                continue
            per_as_total[asn] += 1
            iid = iid_of(address)
            # Structural categories 1-3 can never be IPv4-embedded.
            if iid <= 0xFFFF:
                continue
            if self._candidate_matches_asn(address, asn):
                per_as_embedded[asn] += 1
        accepted = set()
        for asn, embedded_count in per_as_embedded.items():
            total = per_as_total[asn]
            if (
                embedded_count >= self._min_instances
                and embedded_count > self._min_fraction * total
            ):
                accepted.add(asn)
        return accepted


def category_fractions(
    counts: Dict[AddressCategory, int]
) -> Dict[AddressCategory, float]:
    """Convert category counts to fractions of the corpus (sum to 1.0)."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot compute fractions of an empty corpus")
    return {category: count / total for category, count in counts.items()}
