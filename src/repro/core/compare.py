"""Dataset comparison — the Table 1 axes.

Compares the passive NTP corpus with the active comparison datasets on
every axis Table 1 reports: address counts, overlap ("Common"), origin-AS
counts and overlap, /48 counts and overlap, and address density per /48.
Also computes the §4.1 side results: AS-category composition (the
phone-provider share) and the country histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.tables import format_table
from ..net.asn import ASRegistry
from .corpus import AddressCorpus

__all__ = ["DatasetRow", "DatasetComparison", "compare_datasets"]


@dataclass(frozen=True)
class DatasetRow:
    """One row of the Table 1 comparison."""

    name: str
    addresses: int
    common_addresses: Optional[int]
    asns: int
    common_asns: Optional[int]
    slash48s: int
    common_slash48s: Optional[int]
    avg_addresses_per_48: float


class DatasetComparison:
    """The assembled comparison, with the reference corpus first."""

    def __init__(self, rows: List[DatasetRow]) -> None:
        if not rows:
            raise ValueError("comparison needs at least one dataset")
        self.rows = rows

    @property
    def reference(self) -> DatasetRow:
        """The reference (NTP) dataset row."""
        return self.rows[0]

    def size_ratio(self, name: str) -> float:
        """Reference size divided by a comparison dataset's size.

        The paper's headline "370x the Hitlist / 681x CAIDA" numbers.
        """
        row = self._row(name)
        if row.addresses == 0:
            raise ValueError(f"dataset {name!r} is empty")
        return self.reference.addresses / row.addresses

    def overlap_fraction(self, name: str) -> float:
        """Fraction of a comparison dataset also present in the reference.

        The paper finds only 1.3% of the Hitlist and 0.02% of CAIDA in
        the NTP corpus — the datasets are nearly disjoint.
        """
        row = self._row(name)
        if row.addresses == 0:
            raise ValueError(f"dataset {name!r} is empty")
        if row.common_addresses is None:
            raise ValueError(f"dataset {name!r} has no overlap data")
        return row.common_addresses / row.addresses

    def _row(self, name: str) -> DatasetRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no dataset named {name!r}")

    def render(self) -> str:
        """Render as the paper's Table 1 layout."""
        headers = [
            "Dataset", "Addresses", "Common", "ASNs", "Common",
            "/48s", "Common", "Avg/48",
        ]
        rows = []
        for row in self.rows:
            rows.append([
                row.name,
                row.addresses,
                row.common_addresses,
                row.asns,
                row.common_asns,
                row.slash48s,
                row.common_slash48s,
                round(row.avg_addresses_per_48, 1),
            ])
        return format_table(
            headers, rows,
            title="Table 1: comparison of IPv6 datasets "
                  "(Common = intersection with the NTP corpus)",
        )


def _aggregates(
    corpus: AddressCorpus, origin: Callable[[int], Optional[int]]
):
    """(origin-AS set, /48 set), from the corpus's index.

    The index's sets are memoized and shared; they are only read here
    (intersections and ``len``), never mutated.
    """
    index = corpus.index
    return index.asn_set(origin), index.slash48_set()


def _build_row(
    corpus: AddressCorpus,
    origin: Callable[[int], Optional[int]],
    reference: Optional[AddressCorpus],
    reference_asns: Optional[set],
    reference_48s: Optional[set],
) -> DatasetRow:
    asns, slash48s = _aggregates(corpus, origin)
    if reference is None:
        common = common_asns = common_48s = None
    else:
        common = len(corpus.common_addresses(reference))
        common_asns = len(asns & reference_asns)
        common_48s = len(slash48s & reference_48s)
    return DatasetRow(
        name=corpus.name,
        addresses=len(corpus),
        common_addresses=common,
        asns=len(asns),
        common_asns=common_asns,
        slash48s=len(slash48s),
        common_slash48s=common_48s,
        avg_addresses_per_48=len(corpus) / len(slash48s) if slash48s else 0.0,
    )


def compare_datasets(
    reference: AddressCorpus,
    others: Sequence[AddressCorpus],
    origin: Callable[[int], Optional[int]],
) -> DatasetComparison:
    """Assemble the Table 1 comparison.

    ``reference`` is the NTP corpus; ``others`` are the active datasets.
    ``origin`` maps an address to its origin ASN.
    """
    reference_asns, reference_48s = _aggregates(reference, origin)
    rows = [_build_row(reference, origin, None, None, None)]
    for corpus in others:
        rows.append(
            _build_row(corpus, origin, reference, reference_asns, reference_48s)
        )
    return DatasetComparison(rows)


def phone_provider_shares(
    corpora: Sequence[AddressCorpus],
    registry: ASRegistry,
    origin: Callable[[int], Optional[int]],
) -> Dict[str, float]:
    """Phone-provider AS address share per dataset (§4.1).

    The paper: 14% of the NTP corpus vs 2% of the Hitlist originates in
    "Phone Provider" ASes.
    """
    return {
        corpus.name: registry.phone_provider_fraction(
            corpus.index.asn_counts(origin)
        )
        for corpus in corpora
    }
