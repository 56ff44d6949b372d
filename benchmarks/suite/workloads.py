"""The four workloads: ``point``, ``bulk``, ``reload`` and ``collect``.

Each runs one *pass* against the real program and returns a
:class:`PassResult`: the end-to-end metrics, the per-layer numbers, the
counts of operations attempted and failed, and every disagreement with
the oracle.  Answers are checked after the timed windows close, never
inside them.

Every workload reports the same three end-to-end metrics (see
README.md):

* ``setup_s`` — median of several set-ups (program calls only);
* ``peak_rss_mib`` — peak resident memory of the program under test;
* ``bytes_per_item`` — wire bytes per address looked up, or segment
  bytes per observation collected.

The request latencies and rates, the reload lag and the campaign rate
are per-layer numbers (``run.TIMINGS``): on the shared benchmark host
no raw timing held a 10% bound from run to run.
Every number is as measured; none is corrected.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import open_corpus
from repro.core import (
    AddressCorpus,
    CampaignConfig,
    CorpusIndex,
    NTPCampaign,
    SegmentStore,
    SegmentedCorpusReader,
    run_campaign_parallel,
)
from repro.obs import MetricsRegistry
from repro.serve import ServingIndex, build_serving_index
from repro.world import CAMPAIGN_EPOCH, build_world, preset_config

import inputs
import serving
import stats
from spans import Tracer

#: Untimed traffic before every serving window: the first seconds of a
#: fresh server ran at ~14k req/s against ~25k warm.
WARMUP_S = 2.0
POINT_RATE = 6000.0
#: Share of ``--seconds`` spent in point's open-loop phase; the rest
#: goes to its closed-loop phase.
POINT_OPEN_SHARE = 0.35
POINT_OUTSTANDING_PER_CONNECTION = 32
BULK_IN_FLIGHT_PER_CONNECTION = 4
#: Bulk replies checked against the oracle: every Nth batch.
BULK_CHECK_EVERY = 8
RELOAD_RATE = 2000.0
RELOAD_POLL_S = 0.05
#: Reads scheduled past a reload cycle's pacing, for a slow reload.
RELOAD_SLACK_S = 5.0
PROBE_INTERVAL_S = 0.005
PROBE_TIMEOUT_S = 30.0
#: A run whose open-loop generator ran later than this at p99 is invalid.
#: Lateness p99 read about 0.1 ms while the host was quiet and 2-15 ms
#: while it stole time from the generator's vCPU, at 4,000 and 1,000
#: req/s as at 6,000 and 2,000.
MAX_LATE_P99_S = 0.002
COLLECT_WORKERS = 2
#: Collect rounds run until ``--seconds`` have passed, at least this
#: many; each folds and indexes its store FOLDS_PER_ROUND times.
MIN_ROUNDS = 3
FOLDS_PER_ROUND = 4
CONNECTIONS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the test harness runs every workload at toy sizes."""

    world: str = "large"
    addresses: int = inputs.SERVE_ADDRESSES
    fresh_size: int = inputs.FRESH_SEGMENT_ADDRESSES
    #: Measured reload commits (one more is made first, as warm-up).
    reload_commits: int = 12
    collect_weeks: int = 2
    replay_requests: int = 4000
    replay_batches: int = 64
    setup_repeats: int = 3


@dataclass
class Context:
    src: Path
    work: Path
    seed: int
    seconds: float
    tracer: Tracer
    sizes: Sizes = Sizes()
    #: Pinned collect-corpus digests, seed (as text) -> sha256 hex.
    pins: Dict[str, str] = field(default_factory=dict)


@dataclass
class PassResult:
    e2e: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    #: Answers that differ from the oracle.
    problems: List[str]
    #: Why the timings cannot be trusted, though the answers were right.
    invalid: List[str] = field(default_factory=list)
    #: Counts and sample sizes for the printed report and the history.
    report: Dict[str, object] = field(default_factory=dict)


@contextlib.contextmanager
def quiet_gc():
    """No collector pauses inside a timed window (set-up garbage frozen)."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _world(ctx: Context):
    return build_world(preset_config(ctx.sizes.world, seed=ctx.seed))


def _corpus(name: str, records: Sequence[inputs.Record]) -> AddressCorpus:
    corpus = AddressCorpus(name)
    for address, first, last, count in records:
        corpus.record_interval(address, first, last, count)
    return corpus


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _latency_layers(latencies: Sequence[float], lateness: Sequence[float]):
    summary = stats.summarize(latencies)
    ordered = sorted(latencies)

    def ms_at(values, q):
        return _ms(stats.quantile(values, q)) if values else 0.0

    return {
        "client.samples": float(summary["n"]),
        "req_p50_ms": ms_at(ordered, 0.5),
        "req_p90_ms": ms_at(ordered, 0.9),
        "client.req_p99_ms": ms_at(ordered, 0.99),
        "client.req_tail_ms": _ms(summary.get("tail", 0.0)),
        "client.req_tail_q": float(summary.get("tail_q", 0.0)),
        "client.late_p99_ms": ms_at(sorted(lateness), 0.99),
    }


# -- serving workloads ---------------------------------------------------------


class ServingRig:
    """The store, server, oracle and request stream of one serving pass."""

    def __init__(self, ctx: Context, *, fresh_segments: int = 0) -> None:
        self.ctx = ctx
        world = _world(ctx)
        self.routing = world.routing
        self.inputs = inputs.serving_inputs(
            ctx.seed,
            inputs.routed_slash40s(world.routing),
            addresses=ctx.sizes.addresses,
            fresh_segments=fresh_segments,
            fresh_size=ctx.sizes.fresh_size,
        )
        self.base = [_corpus("suite", records) for records in self.inputs.base]
        self.fresh = [
            _corpus("suite", records) for records in self.inputs.fresh
        ]
        merged = AddressCorpus("suite")
        for corpus in self.base:
            merged.merge(corpus)
        self.oracle = serving.Oracle(merged, world.routing)
        self.server: Optional[serving.ServerProcess] = None
        self.directory: Optional[Path] = None
        self.store: Optional[SegmentStore] = None
        self.fresh_metas: List = []
        #: Seconds of each set-up.
        self.setup_times: List[float] = []

    def write_store(self, directory: Path) -> Tuple[SegmentStore, List]:
        """Commit the base segments; write (not commit) the fresh ones."""
        store = SegmentStore(directory, name="suite")
        metas = [
            store.write_segment(
                corpus,
                segment_id=f"base-{n}",
                start_day=7 * n,
                end_day=7 * n + 7,
            )
            for n, corpus in enumerate(self.base)
        ]
        store.commit(metas, completed_weeks=len(metas))
        first_day = 7 * len(metas)
        fresh_metas = [
            store.write_segment(
                corpus,
                segment_id=f"fresh-{n:03d}",
                start_day=first_day + 7 * n,
                end_day=first_day + 7 * n + 7,
            )
            for n, corpus in enumerate(self.fresh)
        ]
        return store, fresh_metas

    def set_up(self, reload_interval: float, repeats: int) -> None:
        """Write the store and start a server on it, ``repeats`` times.

        Each set-up is timed from the first segment write to ``SERVE
        READY``, which includes the server's world build and index
        build.  All but the last server are stopped again.
        """
        tracer = self.ctx.tracer
        for attempt in range(repeats):
            self._discard_server()
            directory = self.ctx.work / f"store-{attempt}"
            with tracer.span("setup"):
                start = perf_counter()
                with tracer.span("setup.write_segments"):
                    store, fresh_metas = self.write_store(directory)
                with tracer.span("setup.spawn_server"):
                    server = serving.ServerProcess.start(
                        self.ctx.src,
                        directory,
                        seed=self.ctx.seed,
                        scale=self.ctx.sizes.world,
                        reload_interval=reload_interval,
                        metrics_path=self.ctx.work / f"server-{attempt}.json",
                        log_path=self.ctx.work / "server.log",
                    )
                self.setup_times.append(perf_counter() - start)
            self.server, self.directory = server, directory
            self.store, self.fresh_metas = store, fresh_metas

    def _discard_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            shutil.rmtree(self.directory)
            self.server = None

    def stop(self) -> Dict[str, object]:
        """Stop the measured server; returns its metrics snapshot."""
        server, self.server = self.server, None
        return server.stop()

    def abort(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None


def _late_check(layers: Dict[str, float]) -> List[str]:
    late = layers["client.late_p99_ms"]
    if late <= _ms(MAX_LATE_P99_S):
        return []
    return [
        f"open-loop generator lateness p99 {late:.2f} ms exceeds "
        f"{_ms(MAX_LATE_P99_S):.0f} ms"
    ]


def _serving_pass(
    ctx: Context,
    rig: ServingRig,
    traffic: Callable,
    reload_interval: float,
    replay_requests: Callable[[dict], Sequence[Tuple[int, str, Sequence]]],
    pick: serving.Pick,
) -> PassResult:
    """Set up, drive ``traffic``, stop, then check answers and replay."""
    tracer = ctx.tracer
    try:
        with serving.pinned_client():
            rig.set_up(reload_interval, ctx.sizes.setup_repeats)
            with tracer.span("traffic"):
                outcome = asyncio.run(traffic(rig))
        rss = rig.server.peak_rss_mib()
        snapshot = rig.stop()
    except BaseException:
        rig.abort()
        raise
    problems: List[str] = list(outcome.pop("problems"))
    with tracer.span("check"):
        problems += serving.check_replies(
            rig.oracle, pick, outcome.pop("replies")
        )
    layers = serving.server_layers(snapshot)
    expected_requests = outcome["sent"] + outcome["connections"]
    if layers["serve.service.requests"] != expected_requests:
        problems.append(
            f"server counted {layers['serve.service.requests']:.0f} requests, "
            f"clients sent {expected_requests} (hellos included)"
        )
    layers.update(outcome.pop("layers"))
    with tracer.span("replay"):
        replayed, replay_problems = asyncio.run(
            serving.replay(
                rig.directory, replay_requests(outcome), rig.oracle, tracer
            )
        )
    problems += replay_problems
    layers.update(replayed)
    layers["serve.service.other_us"] = max(
        0.0,
        1e3 * layers["req_p50_ms"]
        - layers["serve.wire.codec_us"]
        - layers["serve.engine.us_per_request"]
        - layers["serve.format.kernel_us"],
    )
    shutil.rmtree(rig.directory, ignore_errors=True)
    layers["failed_frac"] = outcome["failed"] / max(1, outcome["sent"])
    return PassResult(
        e2e={
            "setup_s": stats.median(rig.setup_times),
            "peak_rss_mib": rss,
            "bytes_per_item": layers.pop("serve.wire.bytes_per_lookup"),
        },
        layers=layers,
        attempted=outcome["sent"],
        failed=outcome["failed"],
        problems=problems,
        invalid=_late_check(layers),
        report={
            "sent": outcome["sent"],
            "succeeded": outcome["sent"] - outcome["failed"],
            "failed": outcome["failed"],
            "errors": outcome["errors"],
            "setup_samples": [round(t, 4) for t in rig.setup_times],
        },
    )


def _merge_errors(*recorders: serving.Recorder) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for rec in recorders:
        for kind, count in rec.errors.items():
            out[kind] = out.get(kind, 0) + count
    return out


def _point_pick(rig: ServingRig):
    ops, addresses = inputs.point_stream(rig.ctx.seed, rig.inputs)
    length = len(ops)

    def pick(seq: int):
        k = seq % length
        return ops[k], (addresses[k],)

    return pick


def run_point(ctx: Context) -> PassResult:
    """Single-address requests: open loop, then closed loop."""
    rig = ServingRig(ctx)
    pick = _point_pick(rig)
    open_s = POINT_OPEN_SHARE * ctx.seconds
    closed_s = (1.0 - POINT_OPEN_SHARE) * ctx.seconds

    async def traffic(rig: ServingRig) -> dict:
        clients = await serving.connect(rig.server, CONNECTIONS)
        try:
            tables = [serving.methods_of(client) for client in clients]
            warm = serving.Recorder(ctx.tracer)
            warm_offsets = inputs.poisson_offsets(
                ctx.seed, POINT_RATE, WARMUP_S, "point-warmup"
            )
            first = seq = await serving.open_loop(
                tables, pick, warm_offsets, 0, warm
            )
            offsets = inputs.poisson_offsets(
                ctx.seed, POINT_RATE, open_s, "point-open"
            )
            opened = serving.Recorder(ctx.tracer)
            closed = serving.Recorder(ctx.tracer)
            with quiet_gc():
                seq = await serving.open_loop(
                    tables, pick, offsets, seq, opened
                )
                wall, _ = await serving.closed_loop(
                    tables, POINT_OUTSTANDING_PER_CONNECTION, pick, seq,
                    closed_s, closed,
                )
        finally:
            await serving.close(clients)
        recorders = (warm, opened, closed)
        layers = _latency_layers(opened.latencies, opened.lateness)
        layers["point_req_per_s"] = len(closed.latencies) / wall
        return {
            "sent": sum(r.sent for r in recorders),
            "failed": sum(r.failed for r in recorders),
            "errors": _merge_errors(*recorders),
            "connections": len(clients),
            "replies": [reply for r in recorders for reply in r.replies],
            "problems": [],
            "layers": layers,
            "first_measured": first,
        }

    def replayed(outcome: dict):
        first = outcome["first_measured"]
        return [
            (seq, *pick(seq))
            for seq in range(first, first + ctx.sizes.replay_requests)
        ]

    return _serving_pass(ctx, rig, traffic, 1.0, replayed, pick)


def run_bulk(ctx: Context) -> PassResult:
    """4096-address batches, closed loop, ops cycling."""
    rig = ServingRig(ctx)
    batches = inputs.bulk_batches(ctx.seed, rig.inputs)

    def pick(seq: int):
        return batches[seq % len(batches)]

    def kept(seq: int) -> bool:
        return seq % BULK_CHECK_EVERY == 0

    async def traffic(rig: ServingRig) -> dict:
        clients = await serving.connect(rig.server, CONNECTIONS)
        try:
            tables = [serving.methods_of(client) for client in clients]
            warm = serving.Recorder(ctx.tracer, kept)
            _, first = await serving.closed_loop(
                tables, BULK_IN_FLIGHT_PER_CONNECTION, pick, 0, WARMUP_S, warm
            )
            measured = serving.Recorder(ctx.tracer, kept)
            with quiet_gc():
                wall, _ = await serving.closed_loop(
                    tables, BULK_IN_FLIGHT_PER_CONNECTION, pick, first,
                    ctx.seconds, measured,
                )
        finally:
            await serving.close(clients)
        recorders = (warm, measured)
        layers = _latency_layers(measured.latencies, ())
        layers["lookups_per_s"] = measured.lookups / wall
        return {
            "sent": sum(r.sent for r in recorders),
            "failed": sum(r.failed for r in recorders),
            "errors": _merge_errors(*recorders),
            "connections": len(clients),
            "replies": [reply for r in recorders for reply in r.replies],
            "problems": [],
            "layers": layers,
            "first_measured": first,
        }

    def replayed(outcome: dict):
        first = outcome["first_measured"]
        return [
            (seq, *pick(seq))
            for seq in range(first, first + ctx.sizes.replay_batches)
        ]

    return _serving_pass(ctx, rig, traffic, 1.0, replayed, pick)


async def _probe_visible(
    table: Dict[str, Callable],
    address: int,
    since: float,
    rec: serving.Recorder,
) -> Optional[float]:
    """Seconds from ``since`` until ``contains`` answers True, or None."""
    contains = table["contains"]
    while True:
        rec.sent += 1
        try:
            answer = await contains((address,))
        except Exception as error:  # counted, never fatal
            rec.fail(error)
            return None
        now = perf_counter()
        if answer == [True]:
            return now - since
        if now - since > PROBE_TIMEOUT_S:
            rec.fail(TimeoutError("commit never became visible"))
            return None
        await asyncio.sleep(PROBE_INTERVAL_S)


def run_reload(ctx: Context) -> PassResult:
    """Open-loop reads while segments are committed beside them.

    Each cycle commits one segment, waits until it is visible, and keeps
    the reads going until ``seconds / commits`` have passed.
    """
    commits = ctx.sizes.reload_commits
    rig = ServingRig(ctx, fresh_segments=commits + 1)
    pick = _point_pick(rig)
    pacing = ctx.seconds / commits

    async def traffic(rig: ServingRig) -> dict:
        clients = await serving.connect(rig.server, CONNECTIONS)
        reads, probes = [serving.methods_of(client) for client in clients]
        probe_rec = serving.Recorder(ctx.tracer, keep=lambda seq: False)
        lags: List[Optional[float]] = []
        commit_s: List[float] = []

        async def commit(number: int) -> None:
            # On the loop: a commit is one small manifest write and an
            # fsync (about 2 ms), and the load process runs no threads.
            start = perf_counter()
            rig.store.commit([rig.fresh_metas[number]])
            done = perf_counter()
            commit_s.append(done - start)
            tracer = ctx.tracer
            tracer.add("core.segments.commit", start, done, request=number)
            probe = rig.inputs.fresh[number][0][0]
            lag = await _probe_visible(probes, probe, done, probe_rec)
            lags.append(lag)
            if lag is not None:
                tracer.add("reload.visible", done, done + lag, request=number)

        async def cycle(number: int, seq: int, rec, duration: float):
            """Reads for ``duration`` s beside commit ``number``; returns
            the next sequence number."""
            offsets = inputs.poisson_offsets(
                ctx.seed, RELOAD_RATE, duration + RELOAD_SLACK_S,
                f"reload-{number}",
            )
            stop = asyncio.Event()
            start = perf_counter()
            reader = asyncio.ensure_future(
                serving.open_loop([reads], pick, offsets, seq, rec, stop)
            )
            try:
                await commit(number)
                await asyncio.sleep(max(0.0, start + duration - perf_counter()))
            finally:
                stop.set()
                seq = await reader
            return seq

        try:
            # Warm-up: reads plus the first commit, which also pays the
            # server's lazy world build for the origin table.
            warm = serving.Recorder(ctx.tracer)
            first = await cycle(0, 0, warm, WARMUP_S)
            measured = serving.Recorder(ctx.tracer)
            seq = first
            with quiet_gc():
                for number in range(1, commits + 1):
                    seq = await cycle(number, seq, measured, pacing)
            final = await _check_fresh(rig, probes, commits + 1, probe_rec)
        finally:
            await serving.close(clients)
        recorders = (warm, measured, probe_rec)
        measured_lags = [lag for lag in lags[1:] if lag is not None]
        layers = _latency_layers(measured.latencies, measured.lateness)
        layers["reload_lag_ms"] = _ms(stats.median(measured_lags or [0.0]))
        layers["serve.fleet.first_reload_ms"] = _ms(lags[0] or 0.0)
        layers["core.segments.commit_ms"] = _ms(stats.median(commit_s))
        layers["reload.commits"] = float(len(lags))
        return {
            "sent": sum(r.sent for r in recorders),
            "failed": sum(r.failed for r in recorders),
            "errors": _merge_errors(*recorders),
            "connections": len(clients),
            "replies": warm.replies + measured.replies,
            "problems": final,
            "layers": layers,
            "first_measured": first,
        }

    def replayed(outcome: dict):
        first = outcome["first_measured"]
        return [
            (seq, *pick(seq))
            for seq in range(first, first + ctx.sizes.replay_requests)
        ]

    result = _serving_pass(ctx, rig, traffic, RELOAD_POLL_S, replayed, pick)
    reloads = result.layers["serve.fleet.reloads"]
    if reloads != result.layers["reload.commits"]:
        result.problems.append(
            f"server reloaded {reloads:.0f} times for "
            f"{result.layers['reload.commits']:.0f} commits"
        )
    return result


async def _check_fresh(
    rig: ServingRig, table, committed: int, rec: serving.Recorder
) -> List[str]:
    """Every committed fresh address must be served with its record."""
    problems: List[str] = []
    fresh = rig.inputs.fresh[:committed]
    records = [record for segment in fresh for record in segment]
    for start in range(0, len(records), inputs.BULK_BATCH):
        chunk = records[start : start + inputs.BULK_BATCH]
        rec.sent += 1
        got = await table["record"]([address for address, *_ in chunk])
        want = [(first, last, count) for _, first, last, count in chunk]
        if got != want:
            problems.append(
                serving.describe(f"fresh records from {start}", got, want)
            )
    return problems


# -- the write path ------------------------------------------------------------


def corpus_digest(corpus) -> str:
    """sha256 over the corpus's records in address order (layout-free)."""
    digest = hashlib.sha256()
    pack = struct.Struct(">QQddQ").pack
    low = (1 << 64) - 1
    for address, (first, last, count) in sorted(corpus.items()):
        digest.update(pack(address >> 64, address & low, first, last, count))
    return digest.hexdigest()


def _index_columns(index: CorpusIndex):
    return (
        list(index.addresses),
        list(index.first),
        list(index.last),
        list(index.counts),
        list(index.entropies),
        list(index.pattern_codes),
        list(index.macs),
    )


@contextlib.contextmanager
def _timed_commits(tracer: Tracer):
    """Span every ``SegmentStore.commit`` made in this process."""
    if not tracer.enabled:
        yield
        return
    original = SegmentStore.commit

    def commit(self, *args, **kwargs):
        with tracer.span("core.segments.commit"):
            return original(self, *args, **kwargs)

    SegmentStore.commit = commit
    try:
        yield
    finally:
        SegmentStore.commit = original


def _collect_round(
    ctx: Context, directory: Path, fold_registry
) -> Tuple[dict, dict]:
    """One round: build the world, run a campaign into a fresh segment
    store, then fold and index the store ``FOLDS_PER_ROUND`` times.
    Returns the round's timings and results, and the objects the final
    checks need."""
    tracer = ctx.tracer
    with tracer.span("setup.build_world"):
        start = perf_counter()
        world = _world(ctx)
        setup = perf_counter() - start
    config = CampaignConfig(
        start=CAMPAIGN_EPOCH, weeks=ctx.sizes.collect_weeks, seed=ctx.seed
    )
    registry = MetricsRegistry()
    campaign = NTPCampaign(world, config, metrics=registry)
    store = SegmentStore(directory, name="ntp-pool", metrics=registry)
    # The collector stays on here: the program runs in this process, and
    # its collection pauses are part of what a campaign costs.
    with tracer.span("collect.campaign"):
        start = perf_counter()
        corpus = run_campaign_parallel(
            campaign, workers=COLLECT_WORKERS, segment_store=store
        )
        elapsed = perf_counter() - start
    with tracer.span("check.digest"):
        digest = corpus_digest(corpus)
    #: (fold seconds, RSI1 build seconds) per fold.
    folds: List[Tuple[float, float]] = []
    for _ in range(FOLDS_PER_ROUND):
        with tracer.span("collect.fold"):
            start = perf_counter()
            folded = open_corpus(directory, indexed=True, metrics=fold_registry)
            fold = perf_counter() - start
        with tracer.span("collect.rsi_build"):
            start = perf_counter()
            build_serving_index(directory, routing=world.routing)
            build = perf_counter() - start
        folds.append((fold, build))
    observations = registry.counter_value("repro_campaign_observations_total")
    summary = {
        "setup": setup,
        "rate": observations / elapsed,
        "failures": len(campaign.shard_failures),
        "digest": digest,
        "folds": folds,
    }
    state = {
        "world": world,
        "config": config,
        "registry": registry,
        "observations": observations,
        "folded": folded,
    }
    return summary, state


def run_collect(ctx: Context) -> PassResult:
    """Rounds of NTP campaign, fold and index build (see
    :func:`_collect_round`) until ``seconds`` have passed."""
    tracer = ctx.tracer
    fold_registry = MetricsRegistry()
    rounds: List[dict] = []
    state: Optional[dict] = None
    directory: Optional[Path] = None
    started = perf_counter()
    with _timed_commits(tracer):
        while (
            len(rounds) < MIN_ROUNDS
            or perf_counter() - started < ctx.seconds
        ):
            with tracer.span("collect.round"):
                if directory is not None:
                    shutil.rmtree(directory)
                directory = ctx.work / f"collect-{len(rounds)}"
                # Drop the last round's world first, so the campaign
                # workers do not fork (and later scan) a heap no real
                # run carries.
                state = None
                gc.collect()
                summary, state = _collect_round(ctx, directory, fold_registry)
                rounds.append(summary)
    rss = stats.peak_rss_mib()
    world, config, registry = state["world"], state["config"], state["registry"]
    folded, observations = state["folded"], state["observations"]
    setup_times = [r["setup"] for r in rounds]
    rates = [r["rate"] for r in rounds]
    folds = [fold for r in rounds for fold, _ in r["folds"]]
    builds = [build for r in rounds for _, build in r["folds"]]
    digests = [r["digest"] for r in rounds]
    failures = sum(r["failures"] for r in rounds)
    attempted = len(rounds) * (1 + 2 * FOLDS_PER_ROUND)
    problems: List[str] = []

    if len(set(digests)) != 1:
        problems.append(
            f"repeated campaigns produced {len(set(digests))} corpora"
        )
    # A pinned digest is that of a serial campaign; without one, run the
    # serial campaign here.
    pinned_digest = ctx.pins.get(str(ctx.seed))
    if pinned_digest is None:
        with tracer.span("check.serial"):
            serial = corpus_digest(NTPCampaign(world, config).run())
        if serial != digests[0]:
            problems.append(
                "the sharded, segmented corpus differs from a serial run"
            )
    elif digests[0] != pinned_digest:
        problems.append(
            f"corpus sha256 {digests[0]} differs from the pinned "
            f"{pinned_digest}"
        )
    with tracer.span("check.fold_equals_rebuild"):
        reader = SegmentedCorpusReader.open(directory)
        rebuilt = CorpusIndex.build(reader.load())
        if _index_columns(folded.index) != _index_columns(rebuilt):
            problems.append("folded index differs from a full rebuild")
    with tracer.span("check.served_index"):
        problems += _check_served_index(directory, rebuilt, world.routing)

    snapshot = registry.snapshot()
    counters, spans = snapshot["counters"], snapshot["spans"]
    queries = counters.get("repro_campaign_queries_total", 0)
    captured = counters.get("repro_campaign_captured_total", 0)
    window = spans.get("campaign-window", {"total": 0.0, "count": 0})
    flush = spans.get("segment-flush", {"total": 0.0})
    reused = fold_registry.counter_value(
        "repro_index_segments_reused_total"
    )
    rescanned = fold_registry.counter_value(
        "repro_index_segments_rescanned_total"
    )
    manifest = SegmentStore(directory).load_manifest()
    layers = {
        "core.parallel.window_s": window["total"] / max(1, window["count"]),
        "core.parallel.shard_attempts": float(
            counters.get("repro_shard_attempts_total", 0)
        ),
        "core.parallel.shard_retries": float(
            counters.get("repro_shard_retries_total", 0)
        ),
        "core.segments.flush_s": flush["total"],
        "core.campaign.capture_ratio": captured / max(1, queries),
        "core.index.reuse_ratio": reused / max(1, reused + rescanned),
        "collect.rounds": float(len(rounds)),
        "collect_obs_per_s": stats.median(rates),
        "fold_s": stats.median(folds),
        "rsi_build_s": stats.median(builds),
        "failed_frac": failures / attempted,
    }
    if tracer.enabled:
        commit_spans = [
            end - start
            for _, name, start, end, _, _ in tracer.spans
            if name == "core.segments.commit"
        ]
        layers["core.segments.commit_ms"] = _ms(stats.median(commit_spans))
    shutil.rmtree(directory, ignore_errors=True)
    return PassResult(
        e2e={
            "setup_s": stats.median(setup_times),
            "peak_rss_mib": rss,
            "bytes_per_item": manifest.total_bytes / observations,
        },
        layers=layers,
        attempted=attempted,
        failed=failures,
        problems=problems,
        report={
            "rounds": len(rounds),
            "folds": len(folds),
            "addresses": len(folded),
            "observations": observations,
            "corpus_sha256": digests[0],
            "digest_pinned": pinned_digest is not None,
            "setup_samples": [round(t, 4) for t in setup_times],
            "campaign_per_s": [round(rate, 1) for rate in rates],
        },
    )


def _check_served_index(
    directory: Path, oracle: CorpusIndex, routing
) -> List[str]:
    """The built RSI1 file must answer every corpus address as the oracle."""
    addresses = list(oracle.addresses)
    want_records = [
        (oracle.first[row], oracle.last[row], oracle.counts[row])
        for row in range(len(addresses))
    ]
    want_origins = [routing.origin_asn(address) for address in addresses]
    problems = []
    with ServingIndex.open(directory) as index:
        got = index.record_batch(addresses)
        if got != want_records:
            problems.append(
                serving.describe("RSI1 records", got, want_records)
            )
        got = index.origin_batch(addresses)
        if got != want_origins:
            problems.append(
                serving.describe("RSI1 origins", got, want_origins)
            )
    return problems


RUNNERS = {
    "point": run_point,
    "bulk": run_bulk,
    "reload": run_reload,
    "collect": run_collect,
}
