"""Ablation — longest-prefix match: flattened intervals vs a linear scan.

Every origin-AS lookup funnels through LPM; the corpus analyses perform
millions of them.  The routing table answers from its flattened interval
table (one binary search over sorted, disjoint interval starts), as the
geolocation database and the Hitlist's alias list do.  This bench times
it against a linear scan (:class:`LinearPrefixTable`) holding the same
announcements of the bench world's real routing table, and asserts both
answer alike.
"""

import time

from repro.net.prefixes import LinearPrefixTable

from conftest import publish

LOOKUPS = 2_000


def _seconds(lookups):
    t0 = time.perf_counter()
    lookups()
    return time.perf_counter() - t0


def test_ablation_lpm(benchmark, bench_world, bench_study):
    routing = bench_world.routing
    linear = LinearPrefixTable()
    for routed in routing.routed_prefixes():
        linear.insert(routed.prefix, routed.asn)

    addresses = list(bench_study.ntp.addresses())[:LOOKUPS]

    def flat_lookups():
        return [routing.origin_asn(address) for address in addresses]

    def linear_lookups():
        return [linear.lookup(address) for address in addresses]

    flat_results = benchmark(flat_lookups)
    linear_results = linear_lookups()

    flat_seconds = _seconds(flat_lookups)
    linear_seconds = _seconds(linear_lookups)
    intervals = len(routing.origin_columns()[2])

    def per_lookup(seconds):
        return seconds * 1e6 / len(addresses)

    lines = [
        "Ablation: longest-prefix match implementation",
        "",
        f"table size: {len(routing):,} announcements "
        f"({intervals:,} flattened intervals); {len(addresses):,} lookups",
        f"flattened: {per_lookup(flat_seconds):8.2f} us/lookup",
        f"linear:    {per_lookup(linear_seconds):8.2f} us/lookup",
        f"speedup over linear: {linear_seconds / flat_seconds:.1f}x",
    ]
    publish("ablation_lpm", "\n".join(lines))

    # Correctness: identical answers; performance: the table wins.
    assert flat_results == linear_results
    assert flat_seconds < linear_seconds
