"""Addressing-pattern analyses (Figures 4 and 5).

Two views over a corpus's IIDs:

* **Per-AS entropy distributions** (Fig. 4) — the entropy CDF of each of
  the top-N ASes by address count, over the whole study or a single day.
  This is where provider-specific patterns (Reliance Jio's half-random
  IIDs, Telkomsel's DHCPv6 pools) become visible.
* **Seven-category composition** (Fig. 5) — each dataset's fraction of
  Zeroes / Low Byte / Low 2 Bytes / IPv4-mapped / high / medium / low
  entropy addresses, using the corpus-level IPv4-embedding acceptance
  rule from :mod:`repro.addr.patterns`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..addr.patterns import (
    AddressCategory,
    CategoryClassifier,
    category_fractions,
)
from .corpus import AddressCorpus

__all__ = [
    "top_as_entropy_distributions",
    "category_composition",
    "compare_category_compositions",
]


def top_as_entropy_distributions(
    corpus: AddressCorpus,
    origin: Callable[[int], Optional[int]],
    top: int = 5,
    window: Optional[Tuple[float, float]] = None,
    as_name: Optional[Callable[[int], str]] = None,
) -> Dict[str, List[float]]:
    """Entropy samples for the top ASes by address count (Fig. 4).

    Returns ``{as_label: [entropy, ...]}`` for the ``top`` ASes.  With
    ``window`` set, only addresses whose sighting interval intersects the
    window are considered — the paper's Fig. 4b single-day variant.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    # Group precomputed entropy rows by the index's per-row origins.
    index = corpus.index
    if window is None:
        rows = range(len(index))
    else:
        rows = index.rows_in_window(*window)
    origins = index.row_origins(origin)
    by_asn_rows: Dict[int, List[int]] = {}
    for row in rows:
        asn = origins[row]
        if asn is not None:
            by_asn_rows.setdefault(asn, []).append(row)
    ranked = sorted(
        by_asn_rows.items(), key=lambda item: -len(item[1])
    )[:top]
    result = {}
    for asn, as_rows in ranked:
        label = as_name(asn) if as_name is not None else f"AS{asn}"
        result[label] = index.entropies[as_rows].tolist()
    return result


def category_composition(
    corpus: AddressCorpus,
    ipv6_origin: Optional[Callable[[int], Optional[int]]] = None,
    ipv4_origin: Optional[Callable[[int], Optional[int]]] = None,
    window: Optional[Tuple[float, float]] = None,
    min_as_instances: int = 100,
    min_as_fraction: float = 0.10,
) -> Dict[AddressCategory, float]:
    """Seven-category fractions of a corpus (one Fig. 5 bar group).

    ``min_as_instances`` / ``min_as_fraction`` are the IPv4-embedding
    acceptance thresholds; the paper uses (100, 10%) against billions of
    addresses — scaled-down corpora should scale the instance floor too.
    """
    classifier = CategoryClassifier(
        ipv6_origin,
        ipv4_origin,
        min_as_instances=min_as_instances,
        min_as_fraction=min_as_fraction,
    )
    index = corpus.index
    rows = None if window is None else index.rows_in_window(*window)
    return category_fractions(classifier.classify_index(index, rows))


def compare_category_compositions(
    corpora: List[AddressCorpus],
    ipv6_origin: Optional[Callable[[int], Optional[int]]] = None,
    ipv4_origin: Optional[Callable[[int], Optional[int]]] = None,
    window: Optional[Tuple[float, float]] = None,
    min_as_instances: int = 100,
    min_as_fraction: float = 0.10,
) -> Dict[str, Dict[AddressCategory, float]]:
    """The full Fig. 5: per-dataset category fractions, side by side."""
    return {
        corpus.name: category_composition(
            corpus,
            ipv6_origin,
            ipv4_origin,
            window,
            min_as_instances=min_as_instances,
            min_as_fraction=min_as_fraction,
        )
        for corpus in corpora
    }
