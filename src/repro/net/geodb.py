"""Prefix-based IP geolocation (MaxMind GeoLite2 stand-in).

The paper geolocates NTP client addresses with MaxMind's GeoLite2 City
database but, wary of fine-grained IP geolocation accuracy in IPv6, only
uses the *country* field in aggregate (§3).  We therefore model the
database as a longest-prefix-match table from prefixes to ISO-3166-1
alpha-2 country codes, which is exactly the granularity the analyses
consume.

The country histogram helper reproduces the §3 narrative numbers (top-5
countries contribute 76% of the corpus).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Tuple

from .prefixes import Prefix, PrefixMap

__all__ = ["GeoDatabase", "country_histogram", "top_country_share"]


class GeoDatabase:
    """Longest-prefix-match geolocation database.

    >>> import ipaddress
    >>> from repro.net.prefixes import parse_prefix
    >>> db = GeoDatabase()
    >>> db.add(parse_prefix("2001:db8::/32"), "DE")
    >>> db.country(int(ipaddress.IPv6Address("2001:db8::1")))
    'DE'
    """

    def __init__(self, width: int = 128) -> None:
        self._countries: PrefixMap[str] = PrefixMap(width)

    def add(self, prefix: Prefix, country: str) -> None:
        """Map a prefix to a two-letter country code."""
        if len(country) != 2 or not country.isupper():
            raise ValueError(
                f"country must be an ISO-3166-1 alpha-2 code: {country!r}"
            )
        self._countries.insert(prefix, country)

    def country(self, address: int) -> Optional[str]:
        """Country of the most specific covering prefix, or ``None``."""
        return self._countries.lookup(address)

    def __len__(self) -> int:
        return len(self._countries)


def country_histogram(
    addresses: Iterable[int], database: GeoDatabase
) -> Counter:
    """Tally addresses per country; unlocatable addresses count under None."""
    counts: Counter = Counter()
    for address in addresses:
        counts[database.country(address)] += 1
    return counts


def top_country_share(
    histogram: Counter, top: int = 5
) -> Tuple[List[Tuple[str, int]], float]:
    """Top countries and their combined share of located addresses.

    Returns ``(ranked, share)`` where ``ranked`` is the top-``top`` list of
    ``(country, count)`` over *located* addresses (``None`` excluded) and
    ``share`` is their combined fraction.  The paper reports the top five
    countries (IN, CN, US, BR, ID) jointly holding 76% of its corpus.
    """
    located = {
        country: count
        for country, count in histogram.items()
        if country is not None
    }
    total = sum(located.values())
    if total == 0:
        raise ValueError("no locatable addresses in histogram")
    ranked = Counter(located).most_common(top)
    share = sum(count for _, count in ranked) / total
    return ranked, share
