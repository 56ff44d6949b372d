"""A folded corpus is its index: ``load_indexed()`` ≡ ``load()``.

``SegmentedCorpusReader.load_indexed()`` returns a corpus held by its
folded :class:`CorpusIndex` alone, whose record store is built from the
columns on the first record-level read or mutation; ``load()`` merges
the ``.seg`` files into an eager record store, sharing no code with the
fold.  Over the stores ``test_seal_identity`` draws (record streams
sealed at any budget, a partial deleted or flipped so its segment is
rescanned; segments committed out of day order beside a large one):

* every accessor agrees: ``len``, ``in``, the ``addresses`` order,
  ``items``, the per-address reads, every aggregate, the intersection
  with another corpus and the bytes ``save_corpus`` writes, signed
  zeros included;
* the same mutation applied to both corpora gives equal corpora:
  ``record``, ``record_interval``, and ``merge`` in both directions,
  into an empty corpus and between two folded corpora;
* ``len``, ``.index``, the aggregates, ``common_addresses`` between two
  folded corpora and ``.bin``/``.csv`` saves leave the record store
  unbuilt.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex, PartialIndexColumns
from repro.core.storage import save_corpus
from repro.obs import MetricsRegistry

from .test_seal_identity import (
    POOL,
    RECORDS,
    SMALL_ROWS,
    TIED_TIMES,
    _committed,
    _damage,
    _sealed_layout,
    commit_layouts,
)

#: An address in no drawn store.
FRESH = (3 << 64) | 9

#: Windows around the drawn sighting times (``TIED_TIMES``).
WINDOWS = [(-1.0, 0.0), (0.0, 5e-324), (-2.0, 2.0), (1.0, 2.0), (3.0, 4.0)]

#: ``("sealed", records, per_segment, damage, victim)`` or
#: ``("committed", layout)``.
STORES = st.one_of(
    st.tuples(
        st.just("sealed"),
        RECORDS,
        st.sampled_from([1, 2, 3, 24]),
        st.sampled_from([None, "delete", "flip"]),
        st.integers(min_value=0, max_value=23),
    ),
    st.tuples(st.just("committed"), commit_layouts()),
)

INTERVALS = st.tuples(TIED_TIMES, TIED_TIMES).map(sorted)

MUTATIONS = st.one_of(
    st.tuples(
        st.just("record"), st.sampled_from(POOL + [FRESH]), TIED_TIMES
    ),
    st.tuples(
        st.just("record_interval"),
        st.sampled_from(POOL + [FRESH]),
        INTERVALS,
        st.integers(min_value=1, max_value=1 << 40),
    ),
    st.tuples(st.just("merge_into"), SMALL_ROWS),
    st.tuples(st.just("merge_from"), SMALL_ROWS),
    st.tuples(st.just("merge_into_empty")),
    st.tuples(st.just("merge_folds")),
)


def _reader(directory, drawn):
    if drawn[0] == "sealed":
        _, records, per_segment, damage, victim = drawn
        store = _sealed_layout(
            directory, records, per_segment, MetricsRegistry()
        )
        metas = store.load_manifest().segments
        _damage(store, metas[victim % len(metas)], damage)
    else:
        store = _committed(directory, drawn[1])
    return store.reader()


def _signed(value):
    """Floats as hex, so -0.0 and 0.0 differ."""
    return value.hex() if isinstance(value, float) else value


def _records(corpus):
    return [
        (address, _signed(first), _signed(last), count)
        for address, (first, last, count) in corpus.items()
    ]


def _eager(name, rows):
    corpus = AddressCorpus(name)
    for address, first, last, count in rows:
        corpus.record_interval(address, first, last, count)
    return corpus


def _origin(address):
    """A toy routing: odd IIDs unrouted, else one AS per ``hi`` byte."""
    return None if address & 1 else 64500 + ((address >> 64) & 0xFF)


def _aggregates(corpus):
    """Every index-backed read, in a comparable form."""
    return {
        "len": len(corpus),
        "lifetimes": [_signed(value) for value in corpus.lifetimes()],
        "slash48": corpus.slash48_set(),
        "slash64": corpus.slash64_set(),
        "asn_set": corpus.asn_set(_origin),
        "asn_counts": list(corpus.asn_counts(_origin).items()),
        "windows": [
            list(corpus.addresses_in_window(start, end))
            for start, end in WINDOWS
        ],
        "iid_intervals": [
            (iid, _signed(first), _signed(last))
            for iid, (first, last) in corpus.iid_intervals().items()
        ],
        "eui64": list(corpus.eui64_addresses()),
        "eui64_macs": list(corpus.eui64_mac_addresses().items()),
    }


def _columns(index):
    return [index.addresses] + [
        getattr(index, name).tobytes()
        for name, _ in PartialIndexColumns.COLUMN_SPEC
    ]


class TestFoldedCorpusEqualsMerged:
    @settings(max_examples=60, deadline=None)
    @given(drawn=STORES)
    @example(drawn=("sealed", [(0, 5, -0.0, 1.0, 3)], 1, None, 0))
    @example(
        drawn=(
            "sealed",
            [(0, 5, 0.0, 0.0, 1), (1, 5, -0.0, -0.0, 2), (2, 0, -1.0, 1.0, 3)],
            1,
            "flip",
            1,
        )
    )
    def test_every_accessor_agrees(self, drawn, tmp_path_factory):
        directory = tmp_path_factory.mktemp("folded")
        reader = _reader(directory, drawn)
        indexed = reader.load_indexed()
        loaded = reader.load()

        # Index-backed reads: the folded corpus answers them from its
        # columns and builds no record store.
        assert _aggregates(indexed) == _aggregates(loaded)
        assert isinstance(indexed.index, CorpusIndex)
        assert _columns(indexed.index) == _columns(loaded.index)
        assert indexed._records is None

        # So do intersections, which read the address columns.
        again = reader.load_indexed()
        assert indexed.common_addresses(again) == set(loaded.addresses())
        assert again.common_addresses(indexed) == set(loaded.addresses())
        assert indexed._records is None and again._records is None

        # Record-level reads build it, in the merged corpus's order.
        assert list(indexed.addresses()) == list(loaded.addresses())
        assert indexed._records is not None
        assert _records(indexed) == _records(loaded)
        for address in POOL + [FRESH]:
            assert (address in indexed) == (address in loaded)
        for address in loaded.addresses():
            assert _signed(indexed.first_seen(address)) == _signed(
                loaded.first_seen(address)
            )
            assert _signed(indexed.last_seen(address)) == _signed(
                loaded.last_seen(address)
            )
            assert _signed(indexed.lifetime(address)) == _signed(
                loaded.lifetime(address)
            )
            assert indexed.observation_count(
                address
            ) == loaded.observation_count(address)
        probe = _eager("probe", [(POOL[1], 0.0, 0.0, 1), (FRESH, 0.0, 0.0, 1)])
        assert indexed.common_addresses(probe) == loaded.common_addresses(
            probe
        )
        assert probe.common_addresses(indexed) == probe.common_addresses(
            loaded
        )
        # Reading the records changed no index-backed answer.
        assert _aggregates(indexed) == _aggregates(loaded)

    @settings(max_examples=30, deadline=None)
    @given(drawn=STORES)
    def test_saved_bytes_agree(self, drawn, tmp_path_factory):
        directory = tmp_path_factory.mktemp("saved")
        reader = _reader(directory, drawn)
        for suffix in (".bin", ".csv"):
            indexed_path = directory / f"indexed{suffix}"
            loaded_path = directory / f"loaded{suffix}"
            indexed = reader.load_indexed()
            save_corpus(indexed, indexed_path)
            save_corpus(reader.load(), loaded_path)
            assert indexed_path.read_bytes() == loaded_path.read_bytes()
            # A save sorts the index columns; it builds no record store.
            assert indexed._records is None


class TestFoldedCorpusMutations:
    @settings(max_examples=80, deadline=None)
    @given(drawn=STORES, mutation=MUTATIONS)
    @example(
        drawn=("sealed", [(0, 5, -1.0, 1.0, 3)], 1, None, 0),
        mutation=("record", 5, -0.0),
    )
    @example(
        drawn=("sealed", [(0, 0, -0.0, 0.0, 1), (1, 5, 1.0, 1.0, 2)], 1,
               None, 0),
        mutation=("merge_into_empty",),
    )
    def test_the_same_mutation_gives_equal_corpora(
        self, drawn, mutation, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("mutated")
        reader = _reader(directory, drawn)
        sides = []
        for load in (reader.load_indexed, reader.load):
            corpus = load()
            folded_index = corpus.index
            kind = mutation[0]
            if kind == "record":
                corpus.record(mutation[1], mutation[2])
            elif kind == "record_interval":
                _, address, (first, last), count = mutation
                corpus.record_interval(address, first, last, count)
            elif kind == "merge_into":
                corpus.merge(_eager("other", mutation[1]))
            elif kind == "merge_from":
                other = _eager(corpus.name, mutation[1])
                other.merge(corpus)
                corpus = other
            elif kind == "merge_into_empty":
                empty = AddressCorpus(corpus.name)
                empty.merge(corpus)
                # The copied records are the target's own.
                before = _records(corpus)
                for address in list(empty.addresses()):
                    empty.record(address, 1e300)
                assert _records(corpus) == before
                corpus = empty
            else:  # merge_folds: two reads of the store, folded twice
                corpus.merge(load())
            if kind in ("record", "record_interval", "merge_into",
                        "merge_folds"):
                assert corpus.index is not folded_index
            sides.append(corpus)
        indexed, loaded = sides
        assert _records(indexed) == _records(loaded)
        assert len(indexed) == len(loaded)
        assert _columns(indexed.index) == _columns(
            CorpusIndex.build(loaded)
        )
        assert _aggregates(indexed) == _aggregates(loaded)
