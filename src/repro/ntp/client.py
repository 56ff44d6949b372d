"""NTP client behaviour: request construction and time-source selection.

Which time source a device queries is a function of its operating system
(paper §2.3): Windows uses ``time.windows.com``, Apple devices
``time.apple.com``, Android ≥ 8 ``time.android.com``, older Android the
``android`` NTP Pool vendor zone, and most Linux distributions and
embedded/IoT devices a distro vendor zone or the generic pool.  Only
queries to *pool* zones reach the paper's vantage points — this selection
logic is what makes the corpus client-rich yet Android-poor.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .packet import Mode, NTPPacket
from .timestamps import unix_to_ntp

__all__ = [
    "TimeSource",
    "OperatingSystem",
    "time_source_for",
    "build_request",
    "validate_response",
]


class TimeSource(Enum):
    """Where a device's NTP configuration points."""

    POOL = "pool.ntp.org"
    POOL_ANDROID = "android.pool.ntp.org"
    POOL_UBUNTU = "ubuntu.pool.ntp.org"
    POOL_CENTOS = "centos.pool.ntp.org"
    POOL_DEBIAN = "debian.pool.ntp.org"
    POOL_OPENWRT = "openwrt.pool.ntp.org"
    TIME_WINDOWS = "time.windows.com"
    TIME_APPLE = "time.apple.com"
    TIME_ANDROID = "time.android.com"
    TIME_GOOGLE = "time.google.com"
    DHCP_PROVIDED = "dhcp"
    NONE = "none"

    @property
    def is_pool_zone(self) -> bool:
        """True when queries go to the NTP Pool (and hence our vantages)."""
        return self.value.endswith("pool.ntp.org")


class OperatingSystem(Enum):
    """Coarse OS families with distinct default time sources."""

    WINDOWS = "windows"
    MACOS = "macos"
    IOS = "ios"
    ANDROID_MODERN = "android>=8"
    ANDROID_LEGACY = "android<8"
    LINUX_UBUNTU = "ubuntu"
    LINUX_CENTOS = "centos"
    LINUX_DEBIAN = "debian"
    EMBEDDED_OPENWRT = "openwrt"
    IOT_GENERIC = "iot"
    NETWORK_OS = "router-os"


_DEFAULT_SOURCES = {
    OperatingSystem.WINDOWS: TimeSource.TIME_WINDOWS,
    OperatingSystem.MACOS: TimeSource.TIME_APPLE,
    OperatingSystem.IOS: TimeSource.TIME_APPLE,
    OperatingSystem.ANDROID_MODERN: TimeSource.TIME_ANDROID,
    OperatingSystem.ANDROID_LEGACY: TimeSource.POOL_ANDROID,
    OperatingSystem.LINUX_UBUNTU: TimeSource.POOL_UBUNTU,
    OperatingSystem.LINUX_CENTOS: TimeSource.POOL_CENTOS,
    OperatingSystem.LINUX_DEBIAN: TimeSource.POOL_DEBIAN,
    OperatingSystem.EMBEDDED_OPENWRT: TimeSource.POOL_OPENWRT,
    OperatingSystem.IOT_GENERIC: TimeSource.POOL,
    OperatingSystem.NETWORK_OS: TimeSource.POOL,
}


def time_source_for(
    os_family: OperatingSystem, dhcp_override: Optional[TimeSource] = None
) -> TimeSource:
    """The time source a device with this OS will query.

    A DHCP(v6)-provided NTP option (RFC 2132 / RFC 5908) overrides the OS
    default when present.
    """
    if dhcp_override is not None:
        return dhcp_override
    return _DEFAULT_SOURCES[os_family]


def build_request(unix_time: float, poll: int = 6) -> NTPPacket:
    """Build a standard mode-3 client request.

    Only the transmit timestamp is meaningful in a client request; the
    other timestamp fields stay zero (RFC 5905 §8, client operation).
    """
    return NTPPacket(
        mode=Mode.CLIENT,
        stratum=0,
        poll=poll,
        transmit_timestamp=unix_to_ntp(unix_time),
    )


def validate_response(request: NTPPacket, response: NTPPacket) -> bool:
    """Client-side sanity checks on a server response (RFC 5905 §8).

    The origin timestamp must echo our transmit timestamp (anti-spoofing),
    the mode must be server, and the server must be synchronized.
    """
    return (
        response.mode is Mode.SERVER
        and response.origin_timestamp == request.transmit_timestamp
        and 1 <= response.stratum <= 15
        and response.transmit_timestamp != 0
    )
