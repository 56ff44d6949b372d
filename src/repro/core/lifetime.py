"""Address and IID lifetime analyses (Figures 2 and 6a).

The paper measures, per address, the span between first and last sighting
("lifetime"; 0 for addresses seen once), and the same per IID — where an
IID's interval unions the intervals of every address carrying it, so an
EUI-64 IID that survives prefix rotation accumulates a long lifetime even
though each of its addresses is short-lived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..addr.entropy import EntropyClass, entropy_class
from ..analysis.distributions import ECDF
from ..world.clock import DAY, WEEK
from .corpus import AddressCorpus

__all__ = [
    "LifetimeSummary",
    "address_lifetime_summary",
    "iid_lifetimes_by_entropy",
    "eui64_iid_lifetimes",
]


@dataclass(frozen=True)
class LifetimeSummary:
    """Headline numbers of the Fig. 2a CCDF."""

    total: int
    seen_once_fraction: float
    week_or_longer_fraction: float
    month_or_longer_fraction: float
    six_months_or_longer_fraction: float
    distribution: ECDF


def address_lifetime_summary(corpus: AddressCorpus) -> LifetimeSummary:
    """Summarize the corpus's address lifetimes (Fig. 2a).

    The paper reports: >60% seen once, 1.2% a week or longer, 0.4% a
    month or longer, 0.03% six months or longer.
    """
    lifetimes = corpus.lifetimes()
    if not lifetimes:
        raise ValueError("corpus is empty")
    total = len(lifetimes)
    return LifetimeSummary(
        total=total,
        seen_once_fraction=sum(1 for l in lifetimes if l == 0.0) / total,
        week_or_longer_fraction=sum(1 for l in lifetimes if l >= WEEK) / total,
        month_or_longer_fraction=(
            sum(1 for l in lifetimes if l >= 30 * DAY) / total
        ),
        six_months_or_longer_fraction=(
            sum(1 for l in lifetimes if l >= 182 * DAY) / total
        ),
        distribution=ECDF(lifetimes),
    )


def iid_lifetimes_by_entropy(
    corpus: AddressCorpus,
) -> Dict[EntropyClass, List[float]]:
    """Per-IID lifetimes bucketed by the IID's entropy class (Fig. 2b).

    The paper's finding: low-entropy IIDs are likelier to persist — 10%
    of them are observed for a week or more versus <=5% of medium/high.
    """
    buckets: Dict[EntropyClass, List[float]] = {
        cls: [] for cls in EntropyClass
    }
    # Entropy was computed once per distinct IID in the index build
    # pass; read it instead of re-deriving it per interval.
    index = corpus.index
    entropies = index.iid_entropies()
    for iid, (first, last) in index.iid_intervals().items():
        buckets[entropy_class(entropies[iid])].append(last - first)
    return buckets


def eui64_iid_lifetimes(corpus: AddressCorpus) -> List[float]:
    """Lifetimes of EUI-64 IIDs only (Fig. 6a input).

    Computed per embedded MAC: the union interval over every address
    exposing that MAC.
    """
    return [
        last - first
        for first, last in corpus.index.eui64_mac_intervals().values()
    ]
