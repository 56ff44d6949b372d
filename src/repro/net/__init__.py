"""Internet numbering substrate.

Prefix tries and longest-prefix matching (:mod:`repro.net.prefixes`),
AS records with ASdb-style categories (:mod:`repro.net.asn`), routed
prefix tables answering from flattened origin intervals
(:mod:`repro.net.routing`), country-level geolocation
(:mod:`repro.net.geodb`) and the AS-level topology with router-interface
addressing that active tracing discovers (:mod:`repro.net.topology`).
"""

from .asn import ASCategory, ASRecord, ASRegistry, ISPSubtype
from .geodb import GeoDatabase, country_histogram, top_country_share
from .prefixes import (
    LinearPrefixTable,
    Prefix,
    PrefixTrie,
    parse_ipv4_prefix,
    parse_prefix,
)
from .routing import RoutedPrefix, RoutingTable
from .topology import (
    ASTopology,
    RouterAddressPlan,
    preferential_attachment_topology,
)

__all__ = [
    "ASCategory",
    "ASRecord",
    "ASRegistry",
    "ASTopology",
    "GeoDatabase",
    "ISPSubtype",
    "LinearPrefixTable",
    "Prefix",
    "PrefixTrie",
    "RoutedPrefix",
    "RouterAddressPlan",
    "RoutingTable",
    "country_histogram",
    "parse_ipv4_prefix",
    "parse_prefix",
    "preferential_attachment_topology",
    "top_country_share",
]
