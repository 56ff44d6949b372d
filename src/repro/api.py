"""The stable, minimal facade over the study pipeline.

Everything a typical consumer needs lives behind four names::

    from repro.api import Study, open_corpus, release

    results = Study(seed=7).run()
    print(len(results.ntp), "passively observed addresses")

    corpus = open_corpus("campaign.bin")       # file or segment directory
    artifact = release(corpus)                 # ethics-aware /48 release

The facade is deliberately small and keyword-validated: it wraps
:class:`repro.core.StudyConfig` / :func:`repro.core.run_study` /
:func:`repro.core.load_corpus` / :func:`repro.core.build_release`
without exposing their full surface, so downstream scripts keep working
as the internals evolve (the consolidation of execution options into
:class:`repro.core.ExecutionOptions` is invisible here).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Tuple, Union

from .core import (
    AddressCorpus,
    CorpusIndex,
    ExecutionOptions,
    ReleaseArtifact,
    SegmentedCorpusReader,
    StudyConfig,
    StudyResults,
    build_release,
    load_corpus,
    run_study,
    verify_release_safety,
)
from .core.segments import MANIFEST_NAME
from .world import CAMPAIGN_EPOCH, WorldConfig, build_world
from .world.world import World

__all__ = ["Study", "connect", "open_corpus", "release", "sweep"]


class Study:
    """One full study — world, campaigns, analyses — as a single object.

    All parameters are keyword-only and validated up front::

        Study(seed=7).run()                          # defaults throughout
        Study(seed=7, weeks=12,
              execution=ExecutionOptions(workers=4,
                                         segment_dir="segments")).run()

    ``world`` (a prebuilt :class:`~repro.world.world.World`) and
    ``world_config`` (a :class:`~repro.world.WorldConfig` to build one
    from) are mutually exclusive; with neither, a default world is
    built from ``seed``, so equal seeds reproduce equal studies.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        weeks: int = 31,
        start: float = CAMPAIGN_EPOCH,
        world: Optional[World] = None,
        world_config: Optional[WorldConfig] = None,
        execution: Optional[ExecutionOptions] = None,
    ) -> None:
        if world is not None and world_config is not None:
            raise TypeError(
                "pass either world= or world_config=, not both"
            )
        if world is not None and not isinstance(world, World):
            raise TypeError(
                f"world must be a World, not {type(world).__name__}"
            )
        if world_config is not None and not isinstance(
            world_config, WorldConfig
        ):
            raise TypeError(
                f"world_config must be a WorldConfig, "
                f"not {type(world_config).__name__}"
            )
        if execution is not None and not isinstance(
            execution, ExecutionOptions
        ):
            raise TypeError(
                f"execution must be ExecutionOptions, "
                f"not {type(execution).__name__}"
            )
        self.seed = seed
        self.weeks = weeks
        self.start = start
        self._world = world
        self._world_config = world_config
        self.execution = execution
        # StudyConfig validates weeks/execution consistency eagerly, so
        # a bad Study fails at construction, not minutes into run().
        self._config = StudyConfig(
            start=start, weeks=weeks, seed=seed, execution=execution
        )

    @property
    def config(self) -> StudyConfig:
        """The underlying :class:`StudyConfig` (read-only view)."""
        return self._config

    def world(self) -> World:
        """The study's world, building (and caching) it on first use."""
        if self._world is None:
            config = self._world_config or WorldConfig(seed=self.seed)
            self._world = build_world(config)
        return self._world

    def run(self) -> StudyResults:
        """Run all campaigns and analyses; returns :class:`StudyResults`."""
        return run_study(self.world(), self._config)

    def __repr__(self) -> str:
        return (
            f"Study(seed={self.seed}, weeks={self.weeks}, "
            f"execution={self.execution!r})"
        )


def open_corpus(
    path: Union[str, Path],
    *,
    indexed: bool = False,
    metrics=None,
) -> AddressCorpus:
    """Load a corpus from a file *or* a segment directory.

    Accepts every on-disk corpus shape the pipeline produces: a text or
    binary corpus file (suffix-detected, as :func:`repro.core.load_corpus`),
    a segment directory, or that directory's ``MANIFEST.json``.

    A segment store is always folded from its seal-time partial
    indexes (:meth:`~repro.core.SegmentedCorpusReader.load_indexed`):
    the corpus, bit-identical to the campaign that wrote it, comes back
    held by its columnar :class:`~repro.core.CorpusIndex` alone,
    re-reading **zero** sealed segment files when the partials are
    intact (``metrics``, an optional
    :class:`~repro.obs.MetricsRegistry`, counts the reuse on
    ``repro_index_segments_reused_total``).  Its aggregates read the
    columns; the per-address record store is built from them on the
    first record-level read.  ``indexed=True`` only makes a corpus
    *file* build and attach its index at once.  To stream a large store
    segment by segment, use :class:`repro.core.SegmentedCorpusReader`
    directly.
    """
    path = Path(path)
    if path.name == MANIFEST_NAME:
        path = path.parent
    if path.is_dir():
        return SegmentedCorpusReader.open(path, metrics=metrics).load_indexed()
    corpus = load_corpus(path)
    if indexed:
        corpus.attach_index(CorpusIndex.build(corpus, metrics=metrics))
    return corpus


def sweep(
    spec,
    directory: Union[str, Path],
    *,
    resume: bool = False,
    matrix_workers: int = 1,
    cell_timeout: Optional[float] = None,
    max_cell_retries: int = 1,
    metrics=None,
):
    """Run (or resume) a declarative scenario sweep.

    ``spec`` is a :class:`~repro.matrix.MatrixSpec`, a plain dict in
    the same shape (axes ``presets``/``overrides``/``faults``/
    ``weeks``/``workers``/``seeds``), or a path to a JSON spec file.
    Cells run isolated in their own processes under ``directory``;
    infeasible cells are rejected before any compute, failed or hung
    cells are retried then recorded without sinking the sweep, and the
    atomically-maintained ``MATRIX.json`` makes ``resume=True``
    re-run only what a previous (possibly crashed) sweep left
    incomplete.  Returns :class:`~repro.matrix.MatrixResults`.
    """
    from .matrix import MatrixSpec, run_matrix

    if isinstance(spec, dict):
        spec = MatrixSpec.from_json(spec)
    elif isinstance(spec, (str, Path)):
        spec = MatrixSpec.from_file(spec)
    elif not isinstance(spec, MatrixSpec):
        raise TypeError(
            f"spec must be a MatrixSpec, dict or path, "
            f"not {type(spec).__name__}"
        )
    return run_matrix(
        spec,
        directory,
        resume=resume,
        matrix_workers=matrix_workers,
        cell_timeout=cell_timeout,
        max_cell_retries=max_cell_retries,
        metrics=metrics,
    )


#: ``host:port`` (or ``[v6-literal]:port``) — the remote connect shape.
_HOST_PORT = re.compile(
    r"^(?P<host>\[[0-9A-Fa-f:.]+\]|[^/\\\[\]:]+):(?P<port>\d{1,5})$"
)


def _parse_repro_url(
    target: str, protocol: Optional[str]
) -> Tuple[str, int, Optional[str]]:
    """Split ``repro://host:port[?protocol=...]`` into connect args."""
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(target)
    if parts.path or parts.fragment or parts.username or parts.password:
        raise ValueError(f"malformed repro:// URL: {target!r}")
    host, port = parts.hostname, parts.port
    if not host or port is None:
        raise ValueError(
            f"repro:// URL must name host and port: {target!r}"
        )
    query = parse_qs(parts.query, keep_blank_values=True)
    unknown = sorted(set(query) - {"protocol"})
    if unknown:
        raise ValueError(
            f"unknown repro:// URL parameter(s): {', '.join(unknown)}"
        )
    url_protocol = query.get("protocol", [None])[-1]
    if url_protocol is not None:
        if protocol is not None and protocol != url_protocol:
            raise ValueError(
                f"protocol={protocol!r} conflicts with the URL's "
                f"?protocol={url_protocol}"
            )
        protocol = url_protocol
    return host, port, protocol


async def connect(
    target: Union[str, Path],
    *,
    routing=None,
    metrics=None,
    rebuild: bool = False,
    coalesce: bool = True,
    reload_interval: Optional[float] = None,
    protocol: Optional[str] = None,
    max_frame_bytes: Optional[int] = None,
):
    """Connect to a hitlist service; returns an async query client.

    ``target`` is either a segment directory (or its ``MANIFEST.json``
    or ``SERVING.rsi``) — served **in-process**, opening the mmap-backed
    serving index via
    :func:`~repro.serve.ensure_serving_index` (built or rebuilt on
    demand, with an LPM origin table when ``routing`` is given) — or a
    running ``repro serve`` instance, named as ``host:port`` or a
    ``repro://host:port`` URL.  Both clients expose the same awaitable
    surface (``record``/``origin``/
    ``lifetime``/``entropy``/``features``/``contains``/``in_slash48``/
    ``in_slash64``, each with a ``_batch`` variant, plus ``stats``)::

        client = await connect("segments/")
        asn = await client.origin(address)

        client = await connect("127.0.0.1:8464")
        lifetimes = await client.lifetime_batch(addresses)

        client = await connect("repro://127.0.0.1:8464?protocol=json")

    Local serving never reads sealed ``.seg`` payloads — queries are
    answered entirely from ``SERVING.rsi`` and the manifest.

    Remote targets negotiate the wire protocol per connection.
    ``protocol`` (kwarg, or the URL's ``?protocol=``) is ``"binary"``
    (the default: request the RSB1 framed protocol, falling back to
    JSON lines when the server declines) or ``"json"`` (skip
    negotiation entirely); the granted protocol is readable as
    ``client.protocol``.  ``max_frame_bytes`` bounds how large a frame
    or reply line the client will send or accept.  Both knobs are
    remote-only — local targets reject them.

    ``reload_interval`` (local targets only, seconds) keeps the client
    live: a watcher stats the store's ``MANIFEST.json`` and hot-swaps
    the serving index when commits or compactions change its segment
    list — the same machinery ``repro serve --reload-interval`` uses.  The
    watcher dies with :meth:`LocalHitlistClient.aclose`.
    """
    import asyncio

    from .serve import (
        CoalescingEngine,
        IndexReloader,
        LocalHitlistClient,
        RemoteHitlistClient,
        ensure_serving_index,
    )
    from .serve.wire import PROTOCOL_BINARY

    if isinstance(target, str):
        host = port = None
        if target.startswith("repro://"):
            host, port, protocol = _parse_repro_url(target, protocol)
        else:
            match = _HOST_PORT.match(target)
            if match is not None and not Path(target).exists():
                host = match.group("host").strip("[]")
                port = int(match.group("port"))
        if host is not None:
            kwargs = {"protocol": protocol or PROTOCOL_BINARY}
            if max_frame_bytes is not None:
                kwargs["max_frame_bytes"] = max_frame_bytes
            return await RemoteHitlistClient.connect(
                host, port, **kwargs
            )
    if protocol is not None or max_frame_bytes is not None:
        raise ValueError(
            "protocol= and max_frame_bytes= only apply to remote "
            "host:port / repro:// targets, not local segment "
            f"directories: {str(target)!r}"
        )
    index = ensure_serving_index(
        target, routing=routing, metrics=metrics, rebuild=rebuild
    )
    engine = CoalescingEngine(index, metrics=metrics, coalesce=coalesce)
    watcher = None
    if reload_interval is not None and reload_interval > 0:
        reloader = IndexReloader(
            engine,
            target,
            routing=routing,
            metrics=metrics,
            interval=reload_interval,
        )
        watcher = asyncio.ensure_future(reloader.run())
    return LocalHitlistClient(engine, watcher=watcher)


def release(
    corpus: Union[AddressCorpus, str, Path], *, verify: bool = True
) -> ReleaseArtifact:
    """Build the ethics-aware /48 release of a corpus (or corpus path).

    With ``verify=True`` (the default) the artifact is audited for
    identifier leakage and a :class:`ValueError` names every violation —
    a release that returns is safe to publish.
    """
    if not isinstance(corpus, AddressCorpus):
        corpus = open_corpus(corpus)
    artifact = build_release(corpus)
    if verify:
        violations = verify_release_safety(artifact)
        if violations:
            raise ValueError(
                "release failed its safety audit: " + "; ".join(violations)
            )
    return artifact
