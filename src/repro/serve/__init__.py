"""Hitlist-as-a-service: the read-only serving layer over segment stores.

Four pieces (DESIGN.md §14–15):

* :mod:`repro.serve.format` — the ``RSI1`` on-disk serving index:
  columnar, CRC-sealed, derived from seal-time ``.idx`` partials and
  opened zero-copy via mmap.
* :mod:`repro.serve.engine` — the asyncio
  :class:`~repro.serve.engine.CoalescingEngine`, batching concurrent
  lookups into single vectorized kernel calls.
* :mod:`repro.serve.wire` — the shared query-op registry, the one
  address check (:meth:`~repro.serve.wire.AddressBlock.of`), the reply
  columns (:class:`~repro.serve.wire.ColumnarResults`, laid out by
  ``REPLY_LAYOUT``) and the ``RSB1`` binary wire codec
  (length-prefixed, CRC-sealed frames), negotiated per connection with
  a JSON-lines fallback.
* :mod:`repro.serve.service` — the TCP
  :class:`~repro.serve.service.HitlistServer` and the local/remote
  client pair behind :func:`repro.api.connect`.

Typical use::

    from repro.serve import ensure_serving_index, CoalescingEngine
    from repro.world import build_routing, preset_config

    routing = build_routing(preset_config("tiny", seed=7))
    index = ensure_serving_index("segments/", routing=routing)
    engine = CoalescingEngine(index)
    asn = await engine.query("origin", address)

or, end to end, ``repro serve segments/`` and
``await repro.api.connect("host:port")``.
"""

from .engine import CoalescingEngine, QUERY_OPS
from .fleet import (
    FleetConfig,
    IndexBuild,
    IndexReloader,
    reuseport_socket,
    run_single,
    run_supervisor,
)
from .format import (
    SERVING_INDEX_NAME,
    SERVING_LOCK_NAME,
    ServingIndex,
    ServingIndexError,
    build_serving_index,
    ensure_serving_index,
    manifest_digest,
    serving_build_lock,
)
from .service import (
    DEFAULT_MAX_PIPELINE,
    HitlistServer,
    LocalHitlistClient,
    READY_PREFIX,
    RemoteHitlistClient,
)
from .wire import (
    AddressBlock,
    ColumnarResults,
    DEFAULT_MAX_FRAME_BYTES,
    FrameCorruptError,
    FrameTooLargeError,
    PROTOCOL_BINARY,
    PROTOCOL_JSON,
    QUERY_OP_TABLE,
    QueryOp,
    WIRE_VERSION,
    WireError,
    WireProtocolError,
    resolve_op,
)

__all__ = [
    "AddressBlock",
    "CoalescingEngine",
    "ColumnarResults",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_PIPELINE",
    "FleetConfig",
    "FrameCorruptError",
    "FrameTooLargeError",
    "HitlistServer",
    "IndexBuild",
    "IndexReloader",
    "LocalHitlistClient",
    "PROTOCOL_BINARY",
    "PROTOCOL_JSON",
    "QUERY_OPS",
    "QUERY_OP_TABLE",
    "QueryOp",
    "READY_PREFIX",
    "RemoteHitlistClient",
    "WIRE_VERSION",
    "WireError",
    "WireProtocolError",
    "SERVING_INDEX_NAME",
    "SERVING_LOCK_NAME",
    "ServingIndex",
    "ServingIndexError",
    "build_serving_index",
    "ensure_serving_index",
    "manifest_digest",
    "reuseport_socket",
    "resolve_op",
    "run_single",
    "run_supervisor",
    "serving_build_lock",
]
