"""Analysis throughput — naive per-address scans vs the columnar index.

Every analysis in the report pipeline (Table 1 comparison, phone-provider
shares, entropy CDF, lifetimes, addressing categories, per-AS entropy,
EUI-64 tracking) reads one :class:`repro.core.index.CorpusIndex` per
corpus, which materializes the shared per-address columns once and
resolves each row's origin once
(:meth:`~repro.core.index.CorpusIndex.row_origins`).  The naive side is
``tests/naive_analysis.py``, the test suite's oracle: every analysis
re-scans the records and resolves one LPM origin per address.

This bench builds a synthetic clustered corpus (few distinct /64s, ~60
origin ASes, IIDs drawn from the paper's pattern families, announcements
more specific than /64 included), runs the full analysis suite both ways,
asserts the results are identical, and reports the end-to-end speedup —
the indexed timing *includes* building the index.

Runs standalone too (CI perf smoke)::

    PYTHONPATH=src python benchmarks/bench_analysis_index.py \
        --addresses 30000 --check

``--check`` exits non-zero when results diverge, the indexed path is
slower than the naive one, or the built index retains more than
``MAX_INDEX_BYTES_PER_ROW`` heap bytes per row (tracemalloc, measured in
a separate untimed build).  Results land in
``benchmarks/output/BENCH_analysis.json``.

``--incremental`` benches the segmented path instead: the same corpus is
sealed into a segment store, then indexed two ways — a cold full rebuild
(read every ``.seg``, rescan every record, recompute every feature) vs
the fold of the seal-time partial indexes (``.idx`` only, zero segment
re-reads).  The fold must be bit-identical to the rebuild and, with
``--check``, reuse every partial and beat ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import random
import sys
import time
import tracemalloc
from types import SimpleNamespace

_ROOT = pathlib.Path(__file__).resolve().parents[1]
# The package, and the repo root for the tests' naive oracle.
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.addr.eui64 import mac_to_iid
from repro.addr.ipv6 import with_iid
from repro.analysis.distributions import ECDF
from repro.analysis.figures import corpus_entropy_samples
from repro.core.categories import (
    category_composition,
    top_as_entropy_distributions,
)
from repro.core.compare import compare_datasets, phone_provider_shares
from repro.core.corpus import AddressCorpus
from repro.core.index import PartialIndexColumns
from repro.core.lifetime import (
    address_lifetime_summary,
    eui64_iid_lifetimes,
    iid_lifetimes_by_entropy,
)
from repro.core.tracking import analyze_tracking
from repro.net.asn import ASCategory, ASRecord, ASRegistry, ISPSubtype
from repro.net.prefixes import Prefix
from repro.net.routing import RoutingTable
from tests import naive_analysis

from jsonout import publish_text, write_bench_json

NUM_AS = 60
COUNTRIES = ("DE", "US", "JP", "FR", "BR", "IN", "GB", "NL")
#: Average addresses per distinct /64 (the paper's corpora are similarly
#: /64-heavy).
CLUSTER = 24
#: ``--check`` bar on the heap a built index retains, in bytes per row.
MAX_INDEX_BYTES_PER_ROW = 100


def build_routing():
    """~60 origin ASes at /32 with /48, /64 and longer sub-announcements."""
    table = RoutingTable()
    registry = ASRegistry()
    blocks = []
    for n in range(NUM_AS):
        asn = 64500 + n
        block = (0x2001 << 112) | ((n + 1) << 96)
        blocks.append(block)
        table.announce(Prefix(block, 32), asn)
        subtype = (
            ISPSubtype.PHONE_PROVIDER if n % 3 == 0 else ISPSubtype.FIXED_LINE
        )
        registry.register(
            ASRecord(
                asn=asn,
                name=f"SYNTH-{asn}",
                country=COUNTRIES[n % len(COUNTRIES)],
                category=ASCategory.ISP,
                subtype=subtype,
            )
        )
    for n in range(0, NUM_AS, 4):
        table.announce(
            Prefix(blocks[n] | (1 << 80), 48), 64500 + (n + 1) % NUM_AS
        )
    for n in range(0, NUM_AS, 7):
        table.announce(
            Prefix(blocks[n] | (2 << 80) | (1 << 64), 64),
            64500 + (n + 2) % NUM_AS,
        )
    # Announcements more specific than /64: addresses of one /64 need
    # not share an origin.  Each /80 covers the IIDs of its /64 whose
    # top 16 bits are zero.
    for n in (0, 5, 11):
        table.announce(Prefix(blocks[n] | (3 << 80), 80), 65100 + n)
    return table, registry, blocks


def generate_events(n_events, seed, blocks, macs):
    """Sighting tuples clustered into ``n_events / CLUSTER`` /64s."""
    rng = random.Random(seed)
    slash64s = [
        rng.choice(blocks) | (rng.randrange(6) << 80) | (rng.randrange(4) << 64)
        for _ in range(max(1, n_events // CLUSTER))
    ]
    events = []
    for position in range(n_events):
        prefix = slash64s[position % len(slash64s)]
        kind = rng.random()
        if kind < 0.20:
            iid = mac_to_iid(rng.choice(macs))
        elif kind < 0.45:
            iid = rng.randrange(1 << 16)        # low-byte patterns
        elif kind < 0.60:
            iid = rng.randrange(1 << 32)        # hex32-decodable
        else:
            iid = rng.getrandbits(64)           # high entropy
        first = rng.uniform(0.0, 8e6)
        events.append(
            (
                with_iid(prefix, iid),
                first,
                first + rng.uniform(0.0, 8e6),
                1 + rng.randrange(5),
            )
        )
    return events


def build_corpus(name, events):
    corpus = AddressCorpus(name)
    for address, first, last, count in events:
        corpus.record_interval(address, first, last, count)
    return corpus


#: The package's analyses, as the indexed side of the suite.
INDEXED = SimpleNamespace(
    compare_datasets=compare_datasets,
    phone_provider_shares=phone_provider_shares,
    corpus_entropy_samples=corpus_entropy_samples,
    address_lifetime_summary=address_lifetime_summary,
    iid_lifetimes_by_entropy=iid_lifetimes_by_entropy,
    eui64_iid_lifetimes=eui64_iid_lifetimes,
    category_composition=category_composition,
    top_as_entropy_distributions=top_as_entropy_distributions,
    analyze_tracking=analyze_tracking,
)


def run_suite(
    analyses, ntp, active, origin, registry, ipv4_origin, country_of
):
    """The corpus-bound analyses the full report runs, in report order,
    from ``analyses``: :data:`INDEXED` or the naive oracle module."""
    comparison = analyses.compare_datasets(ntp, [active], origin)
    return {
        "table1": comparison.render(),
        "phone_shares": analyses.phone_provider_shares(
            [ntp, active], registry, origin
        ),
        "entropy_median": ECDF(analyses.corpus_entropy_samples(ntp)).median,
        "lifetimes": analyses.address_lifetime_summary(ntp),
        "iid_lifetimes": analyses.iid_lifetimes_by_entropy(ntp),
        "eui64_lifetimes": analyses.eui64_iid_lifetimes(ntp),
        "categories": analyses.category_composition(
            ntp, origin, ipv4_origin,
            min_as_instances=2, min_as_fraction=0.001,
        ),
        "top_as_entropy": analyses.top_as_entropy_distributions(
            ntp, origin, top=10
        ),
        "tracking": analyses.analyze_tracking(ntp, origin, country_of),
    }


def index_retained_bytes_per_row(events):
    """Heap bytes per row still held after the index build (tracemalloc).

    The corpus is built before tracing starts, so only what the index
    itself keeps alive is counted: its columns and anything they hold.
    """
    corpus = build_corpus("ntp-pool", events)
    gc.collect()
    tracemalloc.start()
    try:
        corpus.index  # built on first read
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / len(corpus)


def results_match(naive, indexed):
    if naive.keys() != indexed.keys():
        return False
    for key in naive:
        left, right = naive[key], indexed[key]
        if key == "tracking":
            if (
                left.tracks != right.tracks
                or left.classes != right.classes
                or left.eui64_addresses != right.eui64_addresses
                or left.multi_slash64_macs != right.multi_slash64_macs
            ):
                return False
        elif left != right:
            return False
    return True


def run_bench(n_events, seed=11, repeat=2):
    """Time the suite naive vs indexed; return the JSON payload."""
    table, registry, blocks = build_routing()
    macs = [(0x0011_22 << 24) + n for n in range(max(50, n_events // 150))]
    events = generate_events(n_events, seed, blocks, macs)
    active_events = events[::9]

    def ipv4_origin(value):
        return 64500 + (value % NUM_AS)

    def country_getter(origin):
        def country_of(address):
            asn = origin(address)
            record = registry.lookup(asn) if asn is not None else None
            return None if record is None else record.country
        return country_of

    # Both timed regions get the same GC treatment: collect up front and
    # pause cyclic collection while the clock runs, so neither path pays
    # GC passes whose cost scales with the *other* path's retained
    # results (whichever suite runs second would otherwise be penalized).
    def isolated(fn):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0
        finally:
            gc.enable()

    # Each path runs ``repeat`` times and reports its best wall-clock
    # (scheduler noise and cache pollution only ever add time); the
    # equality check compares the first round's results.

    # Naive: the oracle's per-address LPM, every analysis re-scans the
    # records.
    naive = None
    naive_seconds = float("inf")
    for _ in range(repeat):
        ntp = build_corpus("ntp-pool", events)
        active = build_corpus("ipv6-hitlist", active_events)
        origin = table.origin_asn
        result, seconds = isolated(
            lambda: run_suite(
                naive_analysis, ntp, active, origin, registry, ipv4_origin,
                country_getter(origin),
            )
        )
        naive = result if naive is None else naive
        naive_seconds = min(naive_seconds, seconds)

    # Indexed: one columnar pass per corpus, built on the first read
    # (timed — the speedup is end-to-end, including the index build),
    # each row's origin resolved once per index and shared by every
    # analysis.  Fresh corpora per round keep the origin views cold, so
    # the LPM cost is not amortized across rounds.
    indexed = None
    indexed_seconds = float("inf")
    build_seconds = float("inf")
    for _ in range(repeat):
        ntp = build_corpus("ntp-pool", events)
        active = build_corpus("ipv6-hitlist", active_events)
        origin = table.origin_asn
        result, seconds = isolated(
            lambda: run_suite(
                INDEXED, ntp, active, origin, registry, ipv4_origin,
                country_getter(origin),
            )
        )
        indexed = result if indexed is None else indexed
        if seconds < indexed_seconds:
            indexed_seconds = seconds
            build_seconds = (
                ntp.index.build_seconds + active.index.build_seconds
            )

    return {
        "events": n_events,
        "repeat": repeat,
        "addresses": len(ntp),
        "distinct_slash64s": len(ntp.slash64_set()),
        "naive_seconds": round(naive_seconds, 4),
        "indexed_seconds": round(indexed_seconds, 4),
        "index_build_seconds": round(build_seconds, 4),
        "index_retained_bytes_per_row": round(
            index_retained_bytes_per_row(events), 1
        ),
        "speedup": round(naive_seconds / indexed_seconds, 2),
        "results_equal": results_match(naive, indexed),
    }


def run_incremental_bench(n_events, seed=11, repeat=2, segments=24):
    """Cold full rebuild vs partial-index fold over one segment store."""
    import shutil
    import tempfile

    from repro.core.index import CorpusIndex
    from repro.core.segments import SegmentStore
    from repro.obs import MetricsRegistry

    _, _, blocks = build_routing()
    macs = [(0x0011_22 << 24) + n for n in range(max(50, n_events // 150))]
    events = generate_events(n_events, seed, blocks, macs)

    def isolated(fn):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0
        finally:
            gc.enable()

    directory = tempfile.mkdtemp(prefix="bench-incremental-")
    try:
        store = SegmentStore(directory, name="ntp-pool")
        span = max(1, len(events) // segments + 1)
        metas = []
        for number in range(0, len(events), span):
            corpus = build_corpus(
                "ntp-pool", events[number:number + span]
            )
            metas.append(
                store.write_segment(
                    corpus,
                    segment_id=f"bench-{number // span:04d}",
                    start_day=7 * (number // span),
                    end_day=7 * (number // span + 1),
                )
            )
        store.commit(metas, completed_weeks=len(metas))

        # Cold: read and CRC-check every .seg, fold records in Python,
        # full-scan feature rebuild — the pre-partial-index analysis path.
        cold_index = None
        cold_seconds = float("inf")
        for _ in range(repeat):
            reader = store.reader()
            result, seconds = isolated(
                lambda: CorpusIndex.build(reader.load())
            )
            cold_index = result if cold_index is None else cold_index
            cold_seconds = min(cold_seconds, seconds)

        # Fold: .idx files only; entropies/codes/MACs carried over from
        # seal time, so no feature recomputation and zero .seg reads.
        fold_index = None
        fold_seconds = float("inf")
        registry = None
        for _ in range(repeat):
            registry = MetricsRegistry()
            reader = SegmentStore(
                directory, name="ntp-pool", metrics=registry
            ).reader()
            result, seconds = isolated(reader.build_index)
            fold_index = result if fold_index is None else fold_index
            fold_seconds = min(fold_seconds, seconds)

        identical = fold_index.addresses == cold_index.addresses and all(
            getattr(fold_index, column).tobytes()
            == getattr(cold_index, column).tobytes()
            for column, _ in PartialIndexColumns.COLUMN_SPEC
        )
        return {
            "mode": "incremental",
            "events": n_events,
            "repeat": repeat,
            "addresses": len(cold_index.addresses),
            "segments": len(metas),
            "segments_reused": registry.counter_value(
                "repro_index_segments_reused_total"
            ),
            "segments_rescanned": registry.counter_value(
                "repro_index_segments_rescanned_total"
            ),
            "cold_seconds": round(cold_seconds, 4),
            "fold_seconds": round(fold_seconds, 4),
            "speedup": round(cold_seconds / fold_seconds, 2),
            "results_equal": identical,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def render_incremental(payload):
    return "\n".join(
        [
            "Segmented analysis: cold full rebuild vs partial-index fold",
            "",
            f"addresses: {payload['addresses']:,} across "
            f"{payload['segments']} sealed segments",
            f"cold rebuild: {payload['cold_seconds']:.3f}s "
            "(every .seg re-read, every feature recomputed)",
            f"partial fold: {payload['fold_seconds']:.3f}s "
            f"({payload['segments_reused']} partials folded, "
            f"{payload['segments_rescanned']} segments rescanned)",
            f"speedup: {payload['speedup']:.2f}x, "
            f"bit-identical: {payload['results_equal']}",
        ]
    )


def render(payload):
    return "\n".join(
        [
            "Analysis suite: naive per-figure scans vs columnar index",
            "",
            f"addresses: {payload['addresses']:,} "
            f"({payload['distinct_slash64s']:,} /64s)",
            f"naive:   {payload['naive_seconds']:.2f}s "
            "(per-address LPM, per-analysis re-scan)",
            f"indexed: {payload['indexed_seconds']:.2f}s "
            f"(incl. {payload['index_build_seconds']:.2f}s index build, "
            "one LPM per row)",
            f"index heap: {payload['index_retained_bytes_per_row']:.1f} "
            "B/row retained after the build (tracemalloc)",
            f"speedup: {payload['speedup']:.2f}x end-to-end, "
            f"results identical: {payload['results_equal']}",
        ]
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--addresses", type=int, default=140_000, metavar="N",
        help="sighting events to generate (default: 140000; unique "
             "addresses come out slightly lower)",
    )
    parser.add_argument(
        "--seed", type=int, default=11,
    )
    parser.add_argument(
        "--repeat", type=int, default=2, metavar="N",
        help="rounds per path; the best wall-clock of N is reported "
             "(default: 2)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when results diverge, speedup < --min-speedup "
             "or the index retains more than MAX_INDEX_BYTES_PER_ROW",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="with --check, fail when the measured speedup is below X "
             "(default: 1.0, or 3.0 with --incremental)",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help="bench the segmented path: cold full rebuild vs the fold "
             "of seal-time partial indexes",
    )
    args = parser.parse_args(argv)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 3.0 if args.incremental else 1.0

    if args.incremental:
        payload = run_incremental_bench(
            args.addresses, seed=args.seed, repeat=args.repeat
        )
        publish_text("analysis_incremental", render_incremental(payload))
        write_bench_json("analysis_incremental", payload)
    else:
        payload = run_bench(
            args.addresses, seed=args.seed, repeat=args.repeat
        )
        publish_text("analysis_index", render(payload))
        write_bench_json("analysis", payload)

    if args.check:
        if not payload["results_equal"]:
            print(
                "FAIL: fold diverges from rebuild"
                if args.incremental
                else "FAIL: indexed results diverge from naive",
                file=sys.stderr,
            )
            return 1
        if args.incremental and not payload["segments_reused"]:
            print(
                "FAIL: no seal-time partial index was reused",
                file=sys.stderr,
            )
            return 1
        if args.incremental and payload["segments_rescanned"]:
            print(
                f"FAIL: {payload['segments_rescanned']} segments were "
                "rescanned on the incremental path",
                file=sys.stderr,
            )
            return 1
        if payload["speedup"] < min_speedup:
            print(
                f"FAIL: speedup {payload['speedup']:.2f}x "
                f"< required {min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        if (
            not args.incremental
            and payload["index_retained_bytes_per_row"]
            > MAX_INDEX_BYTES_PER_ROW
        ):
            print(
                f"FAIL: the index retains "
                f"{payload['index_retained_bytes_per_row']:.1f} B/row "
                f"> {MAX_INDEX_BYTES_PER_ROW}",
                file=sys.stderr,
            )
            return 1
        print(f"OK: {payload['speedup']:.2f}x, results identical")
    return 0


def test_analysis_index_speedup(benchmark):
    """Harness entry: reduced scale, equality + not-slower assertions."""
    payload = run_bench(30_000)
    publish_text("analysis_index", render(payload))
    write_bench_json("analysis", payload)
    assert payload["results_equal"]
    assert payload["speedup"] > 1.0
    assert payload["index_retained_bytes_per_row"] <= MAX_INDEX_BYTES_PER_ROW

    _, _, blocks = build_routing()
    macs = [(0x0011_22 << 24) + n for n in range(200)]
    events = generate_events(10_000, 11, blocks, macs)

    def indexed_round():
        return iid_lifetimes_by_entropy(build_corpus("ntp-pool", events))

    benchmark.pedantic(indexed_round, rounds=3, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
