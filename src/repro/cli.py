"""Command-line interface.

Six subcommands cover the operational loop a downstream user needs:

* ``repro study``    — build a world, run the full three-campaign study,
  save the corpora, print the Table 1 comparison;
* ``repro analyze``  — headline analyses (lifetimes, EUI-64 prevalence,
  tracking classes) over a saved corpus;
* ``repro release``  — produce the ethics-aware /48-truncated release of
  a saved corpus, with the safety audit;
* ``repro report``   — run a study and emit the consolidated findings
  report;
* ``repro matrix``   — run a declarative scenario sweep (world x faults
  x weeks x seeds) with per-cell isolation, deadlines and crash-safe
  ``--resume``;
* ``repro serve``    — serve a segment store's hitlist over TCP from
  the mmap-backed ``SERVING.rsi`` index, coalescing concurrent lookups
  into vectorized kernel calls.

All randomness flows from ``--seed``; two invocations with identical
arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import io
import logging
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.tables import format_table, format_timings
from .api import open_corpus
from .core import (
    ExecutionOptions,
    StudyConfig,
    address_lifetime_summary,
    analyze_tracking,
    build_release,
    compare_datasets,
    durable,
    run_study,
    save_corpus,
    verify_release_safety,
)
from .core.segments import (
    DEFAULT_SEGMENT_BYTES,
    MANIFEST_NAME,
    SegmentStore,
)
from .core.storage import CorpusFormatError
from .core.tracking import TrackingClass
from .faults import FaultPlan
from .obs import MetricsRegistry, write_metrics
from .world import (
    CAMPAIGN_EPOCH,
    build_routing,
    build_world,
    preset_config,
    preset_names,
)

__all__ = ["main", "build_parser"]

logger = logging.getLogger("repro.cli")


def _world_config(args):
    return preset_config(args.scale, seed=args.seed)


def _fault_plan(args) -> Optional[FaultPlan]:
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    try:
        return FaultPlan.parse(spec)
    except ValueError as error:
        logger.error("bad --faults spec: %s", error)
        raise SystemExit(2)


def _study_config(args) -> StudyConfig:
    if getattr(args, "workers", 1) < 1:
        logger.error("--workers must be >= 1: %d", args.workers)
        raise SystemExit(2)
    if getattr(args, "max_shard_retries", 2) < 0:
        logger.error(
            "--max-shard-retries must be >= 0: %d", args.max_shard_retries
        )
        raise SystemExit(2)
    shard_timeout = getattr(args, "shard_timeout", None)
    if shard_timeout is not None and shard_timeout <= 0:
        logger.error("--shard-timeout must be > 0: %s", shard_timeout)
        raise SystemExit(2)
    if getattr(args, "segment_bytes", DEFAULT_SEGMENT_BYTES) < 1:
        logger.error(
            "--segment-bytes must be >= 1: %d", args.segment_bytes
        )
        raise SystemExit(2)
    segment_dir = getattr(args, "segment_dir", None)
    resume = getattr(args, "resume", False)
    if resume and not segment_dir:
        logger.error("--resume requires --segment-dir")
        raise SystemExit(2)
    # The executor would refuse these two with a ValueError traceback;
    # refuse them here, naming the flag, before the world is built.
    manifest = None
    if segment_dir and Path(segment_dir, MANIFEST_NAME).exists():
        manifest = SegmentStore(segment_dir).load_manifest()
    if resume and manifest is None:
        logger.warning(
            "no segment manifest in %s; starting fresh", segment_dir
        )
    elif resume and manifest.completed_weeks > args.weeks:
        logger.error(
            "--resume: the manifest in %s already covers %d weeks, past "
            "--weeks %d; pass --weeks %d or more",
            segment_dir,
            manifest.completed_weeks,
            args.weeks,
            manifest.completed_weeks,
        )
        raise SystemExit(2)
    elif not resume and manifest is not None and manifest.segments:
        logger.error(
            "--segment-dir %s already holds a committed manifest (%d "
            "weeks); pass --resume to continue it, or point --segment-dir "
            "at a fresh directory",
            segment_dir,
            manifest.completed_weeks,
        )
        raise SystemExit(2)
    execution = ExecutionOptions(
        workers=getattr(args, "workers", 1),
        segment_dir=segment_dir,
        segment_bytes=getattr(args, "segment_bytes", DEFAULT_SEGMENT_BYTES),
        resume_from_segments=resume and manifest is not None,
        faults=_fault_plan(args),
        max_shard_retries=getattr(args, "max_shard_retries", 2),
        shard_timeout=shard_timeout,
    )
    return StudyConfig(
        start=CAMPAIGN_EPOCH,
        weeks=args.weeks,
        seed=args.seed,
        execution=execution,
    )


def _write_text(path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically: UTF-8, ``\n`` line
    endings, the same bytes on every host."""
    durable.atomic_write(path, [text.encode("utf-8")])


def _print_profile(stage_seconds) -> None:
    logger.info("per-stage timings:\n%s", format_timings(stage_seconds))


def _cmd_study(args) -> int:
    study_config = _study_config(args)
    world = build_world(_world_config(args))
    logger.info("world: %s", world.stats())
    results = run_study(world, study_config)
    with results.metrics.span("table1-comparison"):
        comparison = compare_datasets(
            results.ntp,
            [results.hitlist, results.caida],
            world.ipv6_origin_asn,
        )
    print(comparison.render())
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    with results.metrics.span("save-corpora"):
        for corpus in results.corpora():
            path = output_dir / f"{corpus.name}.corpus.bin"
            count = save_corpus(corpus, path)
            print(f"saved {count:,} records to {path}")
    if args.metrics_out:
        write_metrics(results.metrics, args.metrics_out)
    if args.profile:
        _print_profile(results.stage_seconds)
    return 0


def _cmd_analyze(args) -> int:
    # One columnar index up front; the analyses below then read shared
    # index columns instead of re-scanning the records per headline.
    # For a segment directory the index is folded from the seal-time
    # partial indexes — already-sealed segments are not re-read.
    registry = MetricsRegistry()
    corpus = open_corpus(args.corpus, indexed=True, metrics=registry)
    print(f"corpus {corpus.name!r}: {len(corpus):,} addresses")
    reused = registry.counter_value("repro_index_segments_reused_total")
    rescanned = registry.counter_value(
        "repro_index_segments_rescanned_total"
    )
    if reused or rescanned:
        print(
            f"index: {int(reused):,} segment partials folded, "
            f"{int(rescanned):,} segments rescanned"
        )
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
    summary = address_lifetime_summary(corpus)
    print(
        f"lifetimes: {100 * summary.seen_once_fraction:.1f}% seen once, "
        f"{100 * summary.week_or_longer_fraction:.2f}% >= 1 week, "
        f"{100 * summary.month_or_longer_fraction:.2f}% >= 1 month"
    )
    report = analyze_tracking(corpus, lambda a: None, lambda a: None)
    print(
        f"EUI-64: {report.eui64_addresses:,} addresses "
        f"({100 * report.eui64_fraction:.2f}%), "
        f"{report.unique_macs:,} unique MACs, "
        f"{report.multi_slash64_macs:,} in >=2 /64s"
    )
    if report.multi_slash64_macs:
        rows = [
            [cls.value, report.classes[cls]]
            for cls in TrackingClass
        ]
        print(format_table(["tracking class", "MACs"], rows))
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import study_report

    study_config = _study_config(args)
    world = build_world(_world_config(args))
    results = run_study(world, study_config)
    with results.metrics.span("analysis-report"):
        text = study_report(world, results)
    if args.output:
        _write_text(args.output, text)
        logger.info("report written to %s", args.output)
    else:
        print(text)
    if args.metrics_out:
        write_metrics(results.metrics, args.metrics_out)
    if args.profile:
        _print_profile(results.stage_seconds)
    return 0


def _cmd_matrix(args) -> int:
    from .analysis.matrix_report import format_matrix_report
    from .matrix import MatrixSpec, run_matrix

    try:
        spec = MatrixSpec.from_file(args.spec)
    except (OSError, ValueError) as error:
        logger.error("bad matrix spec %s: %s", args.spec, error)
        raise SystemExit(2)
    registry = MetricsRegistry()
    try:
        results = run_matrix(
            spec,
            args.dir,
            resume=args.resume,
            matrix_workers=args.matrix_workers,
            cell_timeout=args.cell_timeout,
            max_cell_retries=args.max_cell_retries,
            metrics=registry,
        )
    except ValueError as error:
        logger.error("matrix sweep refused: %s", error)
        raise SystemExit(2)
    text = format_matrix_report(
        results.manifest, directory=results.directory
    )
    if args.report:
        _write_text(args.report, text)
        logger.info("matrix report written to %s", args.report)
    else:
        print(text)
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
    counts = results.counts
    logger.info(
        "sweep finished: %d ok, %d failed, %d timeout, %d rejected, "
        "%d skipped on resume",
        counts["ok"],
        counts["failed"],
        counts["timeout"],
        counts["rejected"],
        counts["skipped_resume"],
    )
    # Graceful degradation is the contract: failed cells are recorded
    # in MATRIX.json, not turned into a non-zero sweep exit.
    return 0


def _cmd_release(args) -> int:
    corpus = open_corpus(args.corpus)
    artifact = build_release(corpus)
    violations = verify_release_safety(artifact)
    if violations:
        for violation in violations:
            print(f"UNSAFE: {violation}", file=sys.stderr)
        return 1
    text = io.StringIO()
    artifact.write(text)
    _write_text(args.output, text.getvalue())
    print(
        f"released {artifact.prefix_count:,} /48s "
        f"(aggregating {artifact.address_count:,} addresses) to {args.output}"
    )
    return 0


def _cmd_serve(args) -> int:
    # Lazy import: serving is optional machinery; the other subcommands
    # must not pay for (or depend on) it.
    from .serve import ensure_serving_index
    from .serve.fleet import FleetConfig, run_single, run_supervisor

    if args.serve_workers < 1:
        logger.error(
            "--serve-workers must be >= 1: %d", args.serve_workers
        )
        return 2
    if args.reload_interval < 0:
        logger.error(
            "--reload-interval must be >= 0: %s", args.reload_interval
        )
        return 2
    if args.drain_timeout < 0:
        logger.error(
            "--drain-timeout must be >= 0: %s", args.drain_timeout
        )
        return 2
    if args.max_pipeline < 1:
        logger.error(
            "--max-pipeline must be >= 1: %d", args.max_pipeline
        )
        return 2
    from .serve.wire import MIN_FRAME_BYTES

    if args.max_frame_bytes < MIN_FRAME_BYTES:
        logger.error(
            "--max-frame-bytes must be >= %d: %d",
            MIN_FRAME_BYTES, args.max_frame_bytes,
        )
        return 2

    if args.build_only:
        registry = MetricsRegistry()
        routing = None
        if args.scale is not None:
            # The synthetic worlds are deterministic in (scale, seed),
            # so the routing table (hence the flattened origin table
            # baked into the index) is reproducible from the flags —
            # from the world's AS layer alone.
            routing = build_routing(
                preset_config(args.scale, seed=args.seed)
            )
        try:
            index = ensure_serving_index(
                args.segment_dir,
                routing=routing,
                metrics=registry,
                rebuild=args.rebuild,
                lock=True,
            )
        except FileNotFoundError as error:
            logger.error("no segment store to serve: %s", error)
            return 2
        index.close()
        if args.metrics_out:
            write_metrics(registry, args.metrics_out)
        print(f"serving index ready at {index.path}")
        return 0

    config = FleetConfig(
        directory=args.segment_dir,
        host=args.host,
        port=args.port,
        workers=args.serve_workers,
        scale=args.scale,
        seed=args.seed,
        rebuild=args.rebuild,
        reload_interval=args.reload_interval,
        drain_timeout=args.drain_timeout,
        metrics_out=args.metrics_out,
        max_pipeline=args.max_pipeline,
        max_frame_bytes=args.max_frame_bytes,
        json_only=args.json_only,
    )
    if config.workers == 1:
        return run_single(config)
    return run_supervisor(config)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'IPv6 Hitlists at Scale' "
                    "(SIGCOMM 2023)",
    )
    parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        choices=["debug", "info", "warning", "error", "critical"],
        help="stderr logging verbosity (default: info)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_campaign_options(subparser) -> None:
        subparser.add_argument(
            "--workers", type=int, default=1,
            help="worker processes for the NTP collection "
                 "(sharded by device; results are identical for any count)",
        )
        subparser.add_argument(
            "--resume", action="store_true",
            help="continue the NTP collection from --segment-dir's "
                 "committed manifest watermark (starts fresh when DIR "
                 "holds no manifest yet)",
        )
        subparser.add_argument(
            "--segment-dir", default=None, metavar="DIR",
            help="stream the NTP corpus into sealed segment files under "
                 "DIR (manifest-tracked; memory use is bounded by "
                 "--segment-bytes however long the campaign runs); "
                 "with --resume, continues from DIR's committed manifest",
        )
        subparser.add_argument(
            "--segment-bytes", type=int, default=DEFAULT_SEGMENT_BYTES,
            metavar="N",
            help="flush budget: seal a segment once the in-memory buffer "
                 f"reaches N serialized bytes (default: "
                 f"{DEFAULT_SEGMENT_BYTES})",
        )
        subparser.add_argument(
            "--faults", default=None, metavar="SPEC",
            help="deterministic fault-injection plan for the NTP "
                 "collection, e.g. "
                 "'flap=0.2,loss=0.05,corrupt=0.01,seed=3,loss.BR=0.2'; "
                 "an empty spec injects nothing",
        )
        subparser.add_argument(
            "--max-shard-retries", type=int, default=2, metavar="N",
            help="resubmit a failed collection shard up to N times before "
                 "recomputing it inline (default: 2)",
        )
        subparser.add_argument(
            "--shard-timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock deadline for each collection shard attempt, "
                 "counted from its start; a hung shard is killed and "
                 "retried (default: no deadline)",
        )
        subparser.add_argument(
            "--profile", action="store_true",
            help="print a per-stage wall-clock timing table (collection, "
                 "comparison campaigns, corpus indexing, analysis) to "
                 "stderr",
        )
        subparser.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write the study's telemetry snapshot to PATH when done "
                 "(JSON by default; Prometheus text exposition for .prom "
                 "or .txt paths)",
        )

    study = commands.add_parser(
        "study", help="run the full three-campaign study and save corpora"
    )
    study.add_argument("--seed", type=int, default=7)
    study.add_argument("--weeks", type=int, default=31)
    study.add_argument(
        "--scale", choices=sorted(preset_names()), default="tiny",
        help="world size preset",
    )
    study.add_argument("--output-dir", default="corpora")
    add_campaign_options(study)
    study.set_defaults(handler=_cmd_study)

    analyze = commands.add_parser(
        "analyze", help="headline analyses over a saved corpus"
    )
    analyze.add_argument(
        "--seed", type=int, default=7,
        help="accepted on every subcommand for interface uniformity; "
             "analyses of a saved corpus are deterministic regardless",
    )
    analyze.add_argument(
        "corpus",
        help="path to a .corpus.bin/.csv file or a --segment-dir directory",
    )
    analyze.add_argument(
        "--metrics-out", default=None,
        help="write the analysis telemetry (index reuse counters) to "
             "this path: JSON, or Prometheus text for .prom/.txt",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    matrix = commands.add_parser(
        "matrix",
        help="run a declarative scenario sweep (world x faults x weeks "
             "x seeds) with per-cell isolation and crash-safe resume",
    )
    matrix.add_argument(
        "spec",
        help="path to a JSON matrix spec (axes: presets, overrides, "
             "faults, weeks, workers, seeds; optional pipeline)",
    )
    matrix.add_argument(
        "--seed", type=int, default=7,
        help="accepted on every subcommand for interface uniformity; "
             "cell seeds come from the spec's seeds axis",
    )
    matrix.add_argument(
        "--dir", required=True, metavar="DIR",
        help="sweep directory: MATRIX.json plus one cells/<id>/ output "
             "directory per cell",
    )
    matrix.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep: verified completed cells "
             "are skipped, incomplete and failed cells re-run",
    )
    matrix.add_argument(
        "--matrix-workers", type=int, default=1, metavar="N",
        help="cells executed concurrently, each in its own process "
             "(default: 1)",
    )
    matrix.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per cell attempt; a hung cell is "
             "killed and retried (default: no deadline)",
    )
    matrix.add_argument(
        "--max-cell-retries", type=int, default=1, metavar="N",
        help="re-run a failed cell up to N times before recording it as "
             "terminally failed (default: 1)",
    )
    matrix.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the cross-cell comparison report to PATH instead of "
             "stdout",
    )
    matrix.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the sweep telemetry (repro_matrix_* counters) to "
             "PATH: JSON, or Prometheus text for .prom/.txt",
    )
    matrix.set_defaults(handler=_cmd_matrix)

    release = commands.add_parser(
        "release", help="write the ethics-aware /48-truncated release"
    )
    release.add_argument(
        "--seed", type=int, default=7,
        help="accepted on every subcommand for interface uniformity; "
             "the release aggregation is deterministic regardless",
    )
    release.add_argument(
        "corpus",
        help="path to a saved corpus file or a --segment-dir directory",
    )
    release.add_argument("--output", default="release_48s.csv")
    release.set_defaults(handler=_cmd_release)

    serve = commands.add_parser(
        "serve",
        help="serve a segment store's hitlist over TCP from the "
             "mmap-backed on-disk index (RSB1 binary frames, "
             "negotiated per connection; JSON-lines fallback)",
    )
    serve.add_argument(
        "segment_dir",
        help="a --segment-dir directory (or its MANIFEST.json); the "
             "SERVING.rsi index is built next to the manifest if "
             "missing, torn, or stale",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 picks a free port, announced on the "
             "'SERVE READY <host> <port>' stdout line (default: 0)",
    )
    serve.add_argument(
        "--seed", type=int, default=7,
        help="world seed used with --scale to rebuild the routing "
             "table for origin-ASN queries (default: 7)",
    )
    serve.add_argument(
        "--scale", choices=sorted(preset_names()), default=None,
        help="rebuild this preset's routing table (from its AS layer "
             "alone; no world is built) and bake its flattened LPM "
             "origin table into the serving index (default: no origin "
             "table)",
    )
    serve.add_argument(
        "--rebuild", action="store_true",
        help="rebuild the serving index even if a current one exists",
    )
    serve.add_argument(
        "--serve-workers", type=int, default=1, metavar="N",
        help="pre-forked worker processes SO_REUSEPORT-sharing the "
             "port, each mmapping the same SERVING.rsi; the supervisor "
             "restarts crashed workers with capped backoff "
             "(default: 1 — serve in-process, no fork)",
    )
    serve.add_argument(
        "--reload-interval", type=float, default=1.0,
        metavar="SECONDS",
        help="poll MANIFEST.json every SECONDS and hot-swap the "
             "serving index when commits/compactions change it, "
             "without a restart (0 disables; default: 1.0)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="on SIGTERM, let accepted in-flight requests flush their "
             "replies for up to SECONDS before closing (default: 5.0)",
    )
    serve.add_argument(
        "--max-pipeline", type=int, default=128, metavar="N",
        help="per-connection cap on pipelined in-flight requests; the "
             "server stops reading a connection at the cap until "
             "replies flush (default: 128)",
    )
    serve.add_argument(
        "--max-frame-bytes", type=int, default=8 << 20, metavar="N",
        help="per-connection bound on a request line (JSON) or frame "
             "(RSB1); an oversized request gets a typed error and the "
             "connection closes (default: 8388608 = 8 MiB)",
    )
    serve.add_argument(
        "--json-only", action="store_true",
        help="decline RSB1 binary upgrades; every connection speaks "
             "JSON lines (for old clients and wire debugging)",
    )
    serve.add_argument(
        "--build-only", action="store_true",
        help="build/refresh the serving index and exit without "
             "listening (for CI and cron)",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write serving telemetry on exit: JSON, or Prometheus "
             "text for .prom/.txt",
    )
    serve.set_defaults(handler=_cmd_serve)

    report = commands.add_parser(
        "report", help="run a study and print the full findings report"
    )
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--weeks", type=int, default=31)
    report.add_argument(
        "--scale", choices=sorted(preset_names()), default="tiny"
    )
    report.add_argument("--output", default=None)
    add_campaign_options(report)
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # force=True rebinds the handler to the *current* sys.stderr on
    # every invocation (tests swap the stream between calls).
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    try:
        return args.handler(args)
    except CorpusFormatError as error:
        # A torn manifest, a truncated corpus, a damaged segment or
        # serving index: bad input, named with its path and offset.
        logger.error("unreadable input: %s", error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
