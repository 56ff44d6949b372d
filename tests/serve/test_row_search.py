"""Finding a served row through its /64: a property over drawn stores.

``SERVING.rsi`` keeps no per-row ``addr_hi``: a lookup finds its /64
among the sorted /64 keys and bisects ``addr_lo`` inside that /64's run
of rows, ``[starts[k], starts[k+1])``.

Pinned contract: for drawn sorted unique ``(hi, lo)`` stores — one /64,
runs of length one, ``hi`` of 0 and of 2**64 - 1, ``lo`` extremes, the
empty index — every row op (``contains``, ``record``, ``lifetime``,
``entropy``, ``features``) equals a plain dict of the stored rows, on
the scalar path (fewer than ``_VECTOR_MIN_QUERIES`` queries a batch)
and on the vector path.  The queries are the stored addresses, their
``lo ± 1`` neighbours, every stored /64 paired with ``lo`` values
stored in other /64s, and unknown /64s before, between and after the
stored ones, paired with stored ``lo`` values.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corpus import AddressCorpus
from repro.core.kernels import NO_MAC, _VECTOR_MIN_QUERIES, iid_features
from repro.core.segments import SegmentStore
from repro.serve import ServingIndex, build_serving_index

U64_MAX = (1 << 64) - 1

#: How many stored ``lo`` values each /64 probe is paired with.
LO_PROBES = 6

ROW_OPS = ("contains", "record", "lifetime", "entropy", "features")

halves = st.one_of(
    st.sampled_from([0, 1, U64_MAX - 1, U64_MAX]),
    st.integers(0, U64_MAX),
)


@st.composite
def stores(draw):
    """Sorted unique ``(hi, lo)`` pairs of one drawn shape."""
    shape = draw(
        st.sampled_from(["empty", "one /64", "runs of one", "mixed"])
    )
    if shape == "empty":
        return []
    if shape == "one /64":
        hi = draw(halves)
        los = draw(st.sets(halves, min_size=1, max_size=24))
        return sorted((hi, lo) for lo in los)
    if shape == "runs of one":
        his = draw(st.sets(halves, min_size=1, max_size=16))
        return sorted((hi, draw(halves)) for hi in his)
    his = sorted(draw(st.sets(halves, min_size=1, max_size=6)))
    return sorted(
        draw(
            st.sets(
                st.tuples(st.sampled_from(his), halves),
                min_size=1,
                max_size=32,
            )
        )
    )


def write_store(directory, pairs):
    """Commit ``pairs`` as one segment; returns the dict oracle
    ``{address: (first, last, count, entropy, code, mac)}``."""
    corpus = AddressCorpus("rows")
    rows = {}
    for number, (hi, lo) in enumerate(pairs):
        address = (hi << 64) | lo
        first = float(number)
        corpus.record(address, first)
        last, count = first, 1
        if number % 3:
            last, count = first + 0.25 * number, 2
            corpus.record(address, last)
        rows[address] = (first, last, count) + iid_features(lo)
    store = SegmentStore(directory, name="rows")
    metas = []
    if pairs:
        metas.append(
            store.write_segment(
                corpus, segment_id="seg-0", start_day=0, end_day=7
            )
        )
    store.commit(metas, completed_weeks=1)
    return rows


def probe_addresses(pairs):
    """Stored addresses, their ``lo ± 1`` neighbours, stored /64s with
    other /64s' ``lo`` values, and unknown /64s before, between and
    after the stored ones with stored ``lo`` values."""
    his = sorted({hi for hi, _ in pairs})
    los = sorted({lo for _, lo in pairs})
    lo_pool = los[:LO_PROBES // 2] + los[-(LO_PROBES // 2):] or [0]
    probes = set()
    for hi, lo in pairs:
        for step in (-1, 0, 1):
            if 0 <= lo + step <= U64_MAX:
                probes.add((hi, lo + step))
    unknown = set()
    for hi in his:
        unknown.update(h for h in (hi - 1, hi + 1) if 0 <= h <= U64_MAX)
    for below, above in zip(his, his[1:]):
        unknown.add((below + above) // 2)
    unknown.update((0, U64_MAX))
    unknown.difference_update(his)
    for hi in his + sorted(unknown):
        probes.update((hi, lo) for lo in lo_pool)
    return sorted((hi << 64) | lo for hi, lo in probes)


def expected(rows, op, address):
    row = rows.get(address)
    if op == "contains":
        return row is not None
    if row is None:
        return None
    first, last, count, entropy, code, mac = row
    if op == "record":
        return (first, last, count)
    if op == "lifetime":
        return last - first
    if op == "entropy":
        return entropy
    return (entropy, code, None if mac == NO_MAC else mac)


def scalar_batches(queries):
    """``queries`` in consecutive batches of 1, 2, ... 7, 1, 2, ...
    addresses: every one below the vector threshold."""
    size, start = 1, 0
    while start < len(queries):
        yield queries[start:start + size]
        start += size
        size = size % (_VECTOR_MIN_QUERIES - 1) + 1


@settings(max_examples=80, deadline=None)
@given(
    pairs=stores(),
    extra=st.lists(st.integers(0, (1 << 128) - 1), max_size=4),
)
def test_every_row_op_equals_a_dict_on_both_paths(pairs, extra):
    queries = probe_addresses(pairs) + extra
    # The vector path: one batch, repeated up to its threshold.
    vector = (queries * _VECTOR_MIN_QUERIES)[
        : max(len(queries), _VECTOR_MIN_QUERIES)
    ]
    with tempfile.TemporaryDirectory(prefix="row-search-") as directory:
        rows = write_store(directory, pairs)
        with ServingIndex.open(build_serving_index(directory)) as index:
            assert index.rows == len(rows)
            assert index.slash64_count == len({hi for hi, _ in pairs})
            for op in ROW_OPS:
                want = [expected(rows, op, a) for a in vector]
                assert index.columnar_batch(op, vector).to_list() == want
                for batch in scalar_batches(queries):
                    assert index.columnar_batch(op, batch).to_list() == [
                        expected(rows, op, a) for a in batch
                    ], (op, batch)
