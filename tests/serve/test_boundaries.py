"""Table-driven boundary answers: every op, every edge, every encoding.

Each row of ``EDGES`` is an address stored in a tiny serving store,
placed on an edge an answer can fall off: ``::`` and all-ones, the
low-byte and low-2-byte pattern edges, the hi/lo u64 word edge, the
last and first addresses around a /48 and a /64 boundary, and EUI-64
IIDs — the ``ff:fe`` marker with the U/L bit set, with it clear, and
the marker shifted one nibble (not EUI-64), the bits MAC tracking
relies on ("EUI-64 Considered Harmful", "IPvSeeYou").  The routing
table announces prefixes on the same edges.

Every op is asked about each address and its in-range ±1 neighbours
(misses unless they are stored themselves), alone and inside a batch
of at least 8 — one batch on each side of the search kernel's size
cut — through ``columnar_batch(...).to_list()``, through RSB1 request
and reply frames, and through a JSON round trip.  The answers must
equal :class:`CorpusIndex`, a :class:`PrefixTrie` holding the announced
prefixes (independent of the routing table's flattened intervals the
index stores) and the scalar :func:`repro.core.kernels.iid_features`.

The oracle itself is pinned row by row too: each stored address's
columns, in a cold :meth:`CorpusIndex.build` and in the partial-index
fold, equal the address's own bits, the scalar features and the
recorded sighting, and the aggregate views hand out plain Python values.
"""

import ipaddress
import json

import numpy as np
import pytest

from repro.core import kernels
from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex
from repro.core.segments import SegmentStore, SegmentedCorpusReader
from repro.net.prefixes import Prefix, PrefixTrie
from repro.net.routing import RoutingTable
from repro.serve import ServingIndex, build_serving_index
from repro.serve import wire

_ALL_ONES = (1 << 128) - 1
_IID_MASK = (1 << 64) - 1

EDGES = [
    ("zero", "::"),
    ("one", "::1"),
    ("low-byte-last", "::ff"),
    ("low-2-bytes-first", "::100"),
    ("low-2-bytes-last", "::ffff"),
    ("past-low-2-bytes", "::1:0"),
    ("all-ones", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
    ("lo-word-last", "::ffff:ffff:ffff:ffff"),
    ("hi-word-first", "0:0:0:1::"),
    ("slash48-last", "2001:db8:1:ffff:ffff:ffff:ffff:ffff"),
    ("next-slash48-first", "2001:db8:2::"),
    ("slash64-last", "2001:db8:3:4:ffff:ffff:ffff:ffff"),
    ("next-slash64-first", "2001:db8:3:5::"),
    ("eui64-ul-set", "2001:db8:3:6:211:22ff:fe33:4455"),
    ("eui64-ul-clear", "2001:db8:3:6:11:22ff:fe33:4455"),
    ("fffe-shifted-a-nibble", "2001:db8:3:6:21:122f:ffe3:3445"),
]

STORED = [int(ipaddress.IPv6Address(text)) for _, text in EDGES]

ANNOUNCED = [
    ("0:0:0:1::/64", 64506),
    ("2001:db8::/32", 64500),
    ("2001:db8:1::/48", 64501),
    ("2001:db8:2::/48", 64502),
    ("2001:db8:3::/48", 64504),
    ("2001:db8:3:4::/64", 64503),
    ("2001:db8:3:6:211::/80", 64505),
    ("ffff::/16", 64507),
]


def recorded(number):
    """The ``(first, last, count)`` stored for ``STORED[number]``."""
    first = 86400.0 * number
    return first, first + 3600.5, number + 1


def _announced():
    for text, asn in ANNOUNCED:
        network = ipaddress.IPv6Network(text)
        yield Prefix(int(network.network_address), network.prefixlen), asn


@pytest.fixture(scope="module")
def routing():
    table = RoutingTable()
    for prefix, asn in _announced():
        table.announce(prefix, asn)
    return table


@pytest.fixture(scope="module")
def lpm():
    """The reference origin lookup: a trie walk over ``ANNOUNCED``."""
    trie = PrefixTrie()
    for prefix, asn in _announced():
        trie.insert(prefix, asn)
    return trie.lookup


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, routing):
    directory = tmp_path_factory.mktemp("boundaries")
    store = SegmentStore(directory, name="edges")
    corpus = AddressCorpus("edges")
    for number, address in enumerate(STORED):
        corpus.record_interval(address, *recorded(number))
    meta = store.write_segment(
        corpus, segment_id="seg-000", start_day=0, end_day=7
    )
    store.commit([meta], completed_weeks=1)
    build_serving_index(directory, routing=routing)
    return directory


@pytest.fixture(scope="module")
def index(store_dir):
    with ServingIndex.open(store_dir) as opened:
        yield opened


@pytest.fixture(scope="module")
def ground_truth(store_dir):
    return CorpusIndex.build(SegmentedCorpusReader.open(store_dir).load())


@pytest.fixture(scope="module")
def folded(store_dir):
    return SegmentedCorpusReader.open(store_dir).build_index()


def expected_answer(op, address, ground_truth, lpm):
    """The oracle's answer: CorpusIndex, LPM, and the scalar kernel."""
    stored = ground_truth.addresses
    row = {a: r for r, a in enumerate(stored)}.get(address)
    if op == "contains":
        return row is not None
    if op == "slash48":
        return any(a >> 80 == address >> 80 for a in stored)
    if op == "slash64":
        return any(a >> 64 == address >> 64 for a in stored)
    if op == "origin":
        return lpm(address)
    if row is None:
        return None
    if op == "record":
        return (
            ground_truth.first[row],
            ground_truth.last[row],
            ground_truth.counts[row],
        )
    if op == "lifetime":
        return ground_truth.last[row] - ground_truth.first[row]
    entropy, code, mac = kernels.iid_features(address & _IID_MASK)
    if op == "entropy":
        return entropy
    return (entropy, code, None if mac == kernels.NO_MAC else mac)


def probes_of(address):
    """The address and its in-range ±1 neighbours."""
    return [
        probe
        for probe in (address - 1, address, address + 1)
        if 0 <= probe <= _ALL_ONES
    ]


def batches_of(address):
    """Each probe alone, then every probe inside a batch of at least 8:
    one batch on each side of the search kernel's size cut."""
    probes = probes_of(address)
    return [[probe] for probe in probes] + [STORED + probes]


def columnar_path(index, spec, batch):
    return index.columnar_batch(spec.name, batch).to_list()


def _frame_body(frame):
    """``(opcode, count, payload)`` of one encoded RSB1 frame."""
    head = wire.FRAME_HEADER_SIZE
    _, opcode, _, count, size = wire.parse_frame_header(frame[:head])
    return opcode, count, frame[head : head + size]


def rsb1_path(index, spec, batch):
    request = wire.encode_request(spec, 1, batch)
    spec, block = wire.decode_request(*_frame_body(request))
    results = index.columnar_batch(spec.name, block)
    _, count, payload = _frame_body(wire.encode_reply(spec, 1, results))
    return wire.decode_results(spec, count, payload)


def json_path(index, spec, batch):
    args = json.loads(json.dumps({"args": batch}))["args"]
    results = getattr(index, f"{spec.name}_batch")(args)
    results = json.loads(json.dumps({"results": results}))["results"]
    if spec.tupled:
        return [None if item is None else tuple(item) for item in results]
    return results


def test_edge_table_is_what_it_claims():
    neighbours = {p for a in STORED for p in probes_of(a)} - set(STORED)
    assert neighbours, "no ±1 neighbour is a miss"
    assert len(STORED) >= 8
    macs = [kernels.iid_features(a & _IID_MASK)[2] for a in STORED[-3:]]
    assert kernels.NO_MAC not in macs[:2]
    assert macs[0] ^ macs[1] == 1 << 41  # the U/L bit, in MAC position
    assert macs[2] == kernels.NO_MAC


@pytest.mark.parametrize("name,text", EDGES)
@pytest.mark.parametrize(
    "path", [columnar_path, rsb1_path, json_path], ids=lambda f: f.__name__
)
def test_every_op_matches_the_oracle(
    index, ground_truth, lpm, path, name, text
):
    address = int(ipaddress.IPv6Address(text))
    for spec in wire.ADDRESS_OPS:
        for batch in batches_of(address):
            want = [
                expected_answer(spec.name, probe, ground_truth, lpm)
                for probe in batch
            ]
            assert path(index, spec, batch) == want, (
                spec.name,
                [hex(probe) for probe in batch],
            )


@pytest.mark.parametrize("name,text", EDGES)
@pytest.mark.parametrize("how", ["build", "fold"])
def test_index_row_columns(ground_truth, folded, how, name, text):
    index = ground_truth if how == "build" else folded
    address = int(ipaddress.IPv6Address(text))
    row = index.addresses.index(address)
    hi, lo = index.hi[row].item(), index.lo[row].item()
    assert (hi, lo) == (address >> 64, address & _IID_MASK)
    slash48 = (index.hi[row] & np.uint64(0xFFFF_FFFF_FFFF_0000)).item()
    assert slash48 << 64 == address & ~((1 << 80) - 1)
    assert hi << 64 == address & ~_IID_MASK
    assert slash48 << 64 in index.slash48_set()
    assert hi << 64 in index.slash64_set()
    features = (
        index.entropies[row].item(),
        index.pattern_codes[row].item(),
        index.macs[row].item(),
    )
    assert features == kernels.iid_features(lo)
    record = (
        index.first[row].item(),
        index.last[row].item(),
        index.counts[row].item(),
    )
    assert record == recorded(STORED.index(address))
    # No numpy scalar leaks out of the aggregate views.
    json.dumps(
        [
            index.lifetimes(),
            list(index.iid_intervals().items()),
            sorted(index.slash48_set()),
            index.eui64_mac_addresses(),
        ]
    )
