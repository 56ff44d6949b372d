"""Naive per-address reference implementations of the corpus aggregates.

The package answers every corpus aggregate from a columnar
:class:`~repro.core.index.CorpusIndex`.  This module is the independent
side those answers are checked against: each function walks the raw
record store (``items``, ``addresses``, ``first_seen``, ``last_seen``)
address by address, resolves one origin per address per call, and
derives entropy, IPv4 candidates and MACs with the scalar
``repro.addr`` functions.  It reads no index column and no aggregate
accessor of the corpus.

Functions named after an analysis take the same arguments and return
the same type as it, so a suite can run on either module.  The
equivalence properties (``tests/core/test_index_properties.py``) and the
analysis bench (``benchmarks/bench_analysis_index.py``) both import it.
It needs nothing beyond the package and the standard library.
"""

from collections import Counter, defaultdict
from types import SimpleNamespace

from repro.addr.entropy import (
    EntropyClass,
    entropy_class,
    normalized_iid_entropy,
)
from repro.addr.eui64 import expected_random_eui64, extract_mac
from repro.addr.ipv6 import iid_of, slash48_of, slash64_of
from repro.addr.patterns import (
    AddressCategory,
    classify_iid_structurally,
    category_fractions,
    embedded_ipv4_candidates,
)
from repro.core import lifetime as _lifetime
from repro.core.compare import DatasetComparison, DatasetRow
from repro.core.tracking import MACTrack, TrackingClass, TrackingReport

# -- the corpus accessors --------------------------------------------------


def lifetimes(corpus):
    return [last - first for _, (first, last, _) in corpus.items()]


def slash48_set(corpus):
    return {slash48_of(address) for address in corpus.addresses()}


def slash64_set(corpus):
    return {slash64_of(address) for address in corpus.addresses()}


def asn_set(corpus, origin):
    asns = set()
    for address in corpus.addresses():
        asn = origin(address)
        if asn is not None:
            asns.add(asn)
    return asns


def asn_counts(corpus, origin):
    counts = Counter()
    for address in corpus.addresses():
        counts[origin(address)] += 1
    return counts


def addresses_in_window(corpus, start, end):
    return [
        address
        for address, (first, last, _) in corpus.items()
        if first < end and last >= start
    ]


def iid_intervals(corpus):
    intervals = {}
    for address, (first, last, _) in corpus.items():
        iid = iid_of(address)
        existing = intervals.get(iid)
        if existing is None:
            intervals[iid] = [first, last]
        else:
            existing[0] = min(existing[0], first)
            existing[1] = max(existing[1], last)
    return {iid: (first, last) for iid, (first, last) in intervals.items()}


def eui64_addresses(corpus):
    return [
        address
        for address in corpus.addresses()
        if extract_mac(address) is not None
    ]


def eui64_mac_addresses(corpus):
    by_mac = defaultdict(list)
    for address in corpus.addresses():
        mac = extract_mac(address)
        if mac is not None:
            by_mac[mac].append(address)
    return dict(by_mac)


# -- the analyses ----------------------------------------------------------


def corpus_entropy_samples(corpus):
    return [
        normalized_iid_entropy(iid_of(address))
        for address in corpus.addresses()
    ]


def compare_datasets(reference, others, origin):
    reference_asns = asn_set(reference, origin)
    reference_48s = slash48_set(reference)
    rows = []
    for position, corpus in enumerate([reference, *others]):
        asns = asn_set(corpus, origin)
        slash48s = slash48_set(corpus)
        common = common_asns = common_48s = None
        if position:
            common = len(corpus.common_addresses(reference))
            common_asns = len(asns & reference_asns)
            common_48s = len(slash48s & reference_48s)
        rows.append(
            DatasetRow(
                name=corpus.name,
                addresses=len(corpus),
                common_addresses=common,
                asns=len(asns),
                common_asns=common_asns,
                slash48s=len(slash48s),
                common_slash48s=common_48s,
                avg_addresses_per_48=(
                    len(corpus) / len(slash48s) if slash48s else 0.0
                ),
            )
        )
    return DatasetComparison(rows)


def phone_provider_shares(corpora, registry, origin):
    shares = {}
    for corpus in corpora:
        total = phone = 0
        for address in corpus.addresses():
            total += 1
            record = registry.lookup(origin(address))
            if record is not None and record.is_phone_provider:
                phone += 1
        if total == 0:
            raise ValueError("cannot compute a fraction of zero addresses")
        shares[corpus.name] = phone / total
    return shares


def address_lifetime_summary(corpus):
    # The package's summary arithmetic, fed the naive lifetimes.
    values = lifetimes(corpus)
    return _lifetime.address_lifetime_summary(
        SimpleNamespace(lifetimes=lambda: values)
    )


def iid_lifetimes_by_entropy(corpus):
    buckets = {cls: [] for cls in EntropyClass}
    for iid, (first, last) in iid_intervals(corpus).items():
        buckets[entropy_class(normalized_iid_entropy(iid))].append(
            last - first
        )
    return buckets


def eui64_iid_lifetimes(corpus):
    result = []
    for addresses in eui64_mac_addresses(corpus).values():
        first = min(corpus.first_seen(address) for address in addresses)
        last = max(corpus.last_seen(address) for address in addresses)
        result.append(last - first)
    return result


def _candidate_matches_asn(ipv4_origin, address, asn):
    """True when any embedded-IPv4 candidate originates in ``asn``."""
    return any(
        ipv4_origin(candidate) == asn
        for candidate in embedded_ipv4_candidates(iid_of(address)).values()
    )


def _accepted_ipv4_ases(
    addresses, ipv6_origin, ipv4_origin, min_as_instances, min_as_fraction
):
    """First pass: the ASes whose IPv4 embeddings are trusted."""
    if ipv6_origin is None or ipv4_origin is None:
        return set()
    per_as_total = Counter()
    per_as_embedded = Counter()
    for address in addresses:
        asn = ipv6_origin(address)
        if asn is None:
            continue
        per_as_total[asn] += 1
        # Structural categories 1-3 can never be IPv4-embedded.
        if iid_of(address) <= 0xFFFF:
            continue
        if _candidate_matches_asn(ipv4_origin, address, asn):
            per_as_embedded[asn] += 1
    return {
        asn
        for asn, embedded in per_as_embedded.items()
        if embedded >= min_as_instances
        and embedded > min_as_fraction * per_as_total[asn]
    }


def classify_corpus(
    addresses,
    ipv6_origin=None,
    ipv4_origin=None,
    min_as_instances=100,
    min_as_fraction=0.10,
):
    """Category counts of ``addresses`` under the two-pass AS rule."""
    addresses = list(addresses)
    accepted = _accepted_ipv4_ases(
        addresses, ipv6_origin, ipv4_origin, min_as_instances, min_as_fraction
    )
    counts = {category: 0 for category in AddressCategory}
    for address in addresses:
        embedded = False
        if accepted:
            asn = ipv6_origin(address)
            if asn in accepted:
                embedded = _candidate_matches_asn(ipv4_origin, address, asn)
        counts[classify_iid_structurally(iid_of(address), embedded)] += 1
    return counts


def category_composition(
    corpus,
    ipv6_origin=None,
    ipv4_origin=None,
    window=None,
    min_as_instances=100,
    min_as_fraction=0.10,
):
    if window is None:
        addresses = corpus.addresses()
    else:
        addresses = addresses_in_window(corpus, *window)
    return category_fractions(
        classify_corpus(
            addresses,
            ipv6_origin,
            ipv4_origin,
            min_as_instances,
            min_as_fraction,
        )
    )


def top_as_entropy_distributions(
    corpus, origin, top=5, window=None, as_name=None
):
    if top < 1:
        raise ValueError("top must be >= 1")
    if window is None:
        addresses = list(corpus.addresses())
    else:
        addresses = addresses_in_window(corpus, *window)
    by_asn = {}
    for address in addresses:
        asn = origin(address)
        if asn is not None:
            by_asn.setdefault(asn, []).append(address)
    ranked = sorted(by_asn.items(), key=lambda item: -len(item[1]))[:top]
    result = {}
    for asn, as_addresses in ranked:
        label = as_name(asn) if as_name is not None else f"AS{asn}"
        result[label] = [
            normalized_iid_entropy(iid_of(address))
            for address in as_addresses
        ]
    return result


def build_mac_tracks(corpus, origin, country_of):
    tracks = {}
    for mac, sightings in eui64_mac_addresses(corpus).items():
        ordered = sorted(sightings, key=corpus.first_seen)
        slash64s = []
        transitions = 0
        timeline = []
        for address in ordered:
            prefix64 = slash64_of(address)
            if prefix64 not in slash64s:
                slash64s.append(prefix64)
            if timeline and prefix64 != timeline[-1][1]:
                transitions += 1
            timeline.append(
                (corpus.first_seen(address), prefix64, origin(address))
            )
        countries = {country_of(address) for address in ordered}
        countries.discard(None)
        tracks[mac] = MACTrack(
            mac=mac,
            addresses=tuple(ordered),
            slash64s=tuple(slash64s),
            asns=tuple(
                sorted({asn for _, _, asn in timeline if asn is not None})
            ),
            countries=tuple(sorted(countries)),
            transitions=transitions,
            first_seen=timeline[0][0],
            last_seen=max(corpus.last_seen(address) for address in ordered),
            timeline=tuple(timeline),
        )
    return tracks


def analyze_tracking(corpus, origin, country_of):
    tracks = build_mac_tracks(corpus, origin, country_of)
    multi = [track for track in tracks.values() if track.multi_slash64]
    classes = Counter(track.classify() for track in multi)
    return TrackingReport(
        corpus_size=len(corpus),
        eui64_addresses=sum(
            len(track.addresses) for track in tracks.values()
        ),
        unique_macs=len(tracks),
        expected_random=expected_random_eui64(len(corpus)),
        tracks=tracks,
        multi_slash64_macs=len(multi),
        classes={cls: classes.get(cls, 0) for cls in TrackingClass},
    )
