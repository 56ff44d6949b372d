"""Fault-tolerant execution of a validated scenario sweep.

Each cell attempt runs in its **own forked process** (one campaign or
full study per cell), so a cell that crashes, hangs or is OOM-killed
takes down only itself.  The coordinating process drives the same
supervisor as the sharded campaign (:func:`repro.core.jobs.run_jobs`):

* up to ``matrix_workers`` cells run concurrently;
* every cell attempt gets a wall-clock deadline (``cell_timeout``); an
  overrunning cell's process is killed and the attempt recorded with
  ``kind="timeout"`` — the one failure mode exception-based retry can
  never catch;
* failed attempts are retried with capped exponential backoff (the
  shard-retry policy one level up), and a cell that keeps failing
  degrades to a terminal typed :class:`CellFailure` while the sweep
  continues;
* the ``MATRIX.json`` manifest is atomically rewritten after *every*
  transition, so a sweep killed at any instant resumes losing at most
  the cells that were mid-flight.

Cell outputs are deterministic (the campaign's keyed-RNG invariant),
so a resumed sweep's re-run cells — and a fresh sweep's — produce
byte-identical corpora; resume verifies completed cells by re-hashing
their corpus files rather than trusting the manifest blindly.

Chaos hooks: a cell process calls
:func:`repro.faults.chaos.maybe_fail_shard` with its **cell index** at
entry, so the existing ``REPRO_CHAOS_*`` token protocol can kill, hang
or fault any chosen cell for tests and CI without touching the sweep
code.
"""

from __future__ import annotations

import hashlib
import json
import logging
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core import durable
from ..core.campaign import CampaignConfig, NTPCampaign
from ..core.jobs import Outcome, backoff_delay, run_jobs
from ..core.parallel import run_campaign_parallel
from ..core.storage import save_corpus
from ..core.study import ExecutionOptions, StudyConfig, run_study
from ..faults.chaos import maybe_fail_shard
from ..obs import DEFAULT_TIME_BUCKETS, MetricsRegistry
from ..world import CAMPAIGN_EPOCH
from ..world.population import build_world
from .manifest import (
    MATRIX_NAME,
    CellRecord,
    MatrixManifest,
    load_manifest,
    save_manifest,
)
from .spec import CellSpec, MatrixSpec, expand_and_validate

__all__ = [
    "CellFailure",
    "MatrixResults",
    "execute_cell",
    "run_matrix",
]

logger = logging.getLogger(__name__)

#: File a cell process writes (atomically, last) on success.
RESULT_NAME = "RESULT.json"


@dataclass(frozen=True)
class CellFailure:
    """One recovered (or terminal) cell failure."""

    cell_id: str
    kind: str
    attempt: int
    error: str
    #: ``"retried"`` when the cell was requeued, ``"failed"`` when its
    #: retries were exhausted and the failure became terminal.
    action: str


@dataclass
class MatrixResults:
    """What a sweep returns: its manifest plus the failure log."""

    directory: Path
    manifest: MatrixManifest
    failures: List[CellFailure] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def counts(self) -> Dict[str, int]:
        return self.manifest.counts()

    @property
    def complete(self) -> bool:
        return self.manifest.complete


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def execute_cell(
    cell: CellSpec,
    cell_dir: Union[str, Path],
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Run one cell to completion in the current process.

    Builds the cell's world, runs its pipeline (the NTP collection, or
    the full study for ``pipeline="study"``), saves the resulting
    corpus to ``<cell_dir>/corpus.bin`` and then atomically writes
    ``RESULT.json``, the cell's on-disk record (the only one of its
    metrics snapshot).  The cell commits when its attempt reports the
    returned result on its result pipe (:func:`repro.core.jobs.run_jobs`):
    an attempt that dies first reports nothing and is counted failed.
    """
    cell_dir = Path(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    registry = metrics if metrics is not None else MetricsRegistry()
    started = time.perf_counter()
    world = build_world(cell.world_config())
    plan = cell.fault_plan()
    if cell.pipeline == "study":
        config = StudyConfig(
            start=CAMPAIGN_EPOCH,
            weeks=cell.weeks,
            seed=cell.seed,
            execution=ExecutionOptions(
                workers=cell.workers,
                faults=plan,
                metrics=registry,
            ),
        )
        corpus = run_study(world, config).ntp
    else:
        campaign = NTPCampaign(
            world,
            CampaignConfig(
                start=CAMPAIGN_EPOCH,
                weeks=cell.weeks,
                seed=cell.seed,
                faults=plan,
            ),
            metrics=registry,
        )
        if cell.workers > 1:
            corpus = run_campaign_parallel(
                campaign, workers=cell.workers
            )
        else:
            corpus = campaign.run()
    corpus_path = cell_dir / "corpus.bin"
    save_corpus(corpus, corpus_path)
    result = {
        "cell_id": cell.cell_id,
        "label": cell.label,
        "records": len(corpus),
        "digest": _sha256_file(corpus_path),
        "seconds": time.perf_counter() - started,
        "metrics": registry.snapshot(),
    }
    durable.atomic_write(
        cell_dir / RESULT_NAME,
        [json.dumps(result, sort_keys=True, indent=1).encode("utf-8")],
    )
    return result


def run_matrix(
    spec: MatrixSpec,
    directory: Union[str, Path],
    *,
    resume: bool = False,
    matrix_workers: int = 1,
    cell_timeout: Optional[float] = None,
    max_cell_retries: int = 1,
    retry_backoff: float = 0.25,
    retry_backoff_cap: float = 30.0,
    metrics: Optional[MetricsRegistry] = None,
) -> MatrixResults:
    """Run (or resume) a scenario sweep under ``directory``.

    * Infeasible cells are rejected by validation before any compute
      and recorded with their reasons.
    * Each runnable cell attempt executes in its own forked process with
      a ``cell_timeout`` wall-clock deadline (hung cells are killed) and
      up to ``max_cell_retries`` capped-backoff retries; a permanently
      failed cell becomes a terminal ``failed``/``timeout`` record and
      the sweep continues.
    * ``MATRIX.json`` is atomically rewritten after every transition.
      With ``resume=True`` a prior manifest's completed cells are
      verified by re-hashing their corpus files and skipped; everything
      else re-runs.  Without ``resume`` an existing manifest is an
      error — a sweep is never silently restarted from scratch.
    """
    if matrix_workers < 1:
        raise ValueError(f"matrix_workers must be >= 1: {matrix_workers}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be > 0: {cell_timeout}")
    if max_cell_retries < 0:
        raise ValueError(
            f"max_cell_retries must be >= 0: {max_cell_retries}"
        )
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0: {retry_backoff}")
    if retry_backoff_cap <= 0:
        raise ValueError(
            f"retry_backoff_cap must be > 0: {retry_backoff_cap}"
        )

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cells_root = directory / "cells"
    registry = metrics if metrics is not None else MetricsRegistry()
    m_ok = registry.counter(
        "repro_matrix_cells_ok_total", "cells completed successfully"
    )
    m_failed = registry.counter(
        "repro_matrix_cells_failed_total",
        "cells terminally failed (exception or oom-kill)",
    )
    m_timeout = registry.counter(
        "repro_matrix_cells_timeout_total",
        "cells terminally failed by overrunning their deadline",
    )
    m_rejected = registry.counter(
        "repro_matrix_cells_rejected_total",
        "cells rejected by validation before any compute",
    )
    m_skipped = registry.counter(
        "repro_matrix_cells_skipped_resume_total",
        "completed cells verified and skipped on resume",
    )
    m_retries = registry.counter(
        "repro_matrix_cell_retries_total", "failed cell attempts requeued"
    )
    h_seconds = registry.histogram(
        "repro_matrix_cell_seconds",
        "wall-clock seconds per completed cell attempt",
        buckets=DEFAULT_TIME_BUCKETS,
    )

    runnable, rejected = expand_and_validate(spec)
    spec_digest = spec.digest()

    prior: Optional[MatrixManifest] = None
    loaded = load_manifest(directory)
    if loaded is not None:
        prior, used_path, skipped_generations = loaded
        if not resume:
            raise ValueError(
                f"{directory} already holds a sweep manifest "
                f"({used_path.name}); pass resume=True to continue it, "
                "or point at a fresh directory"
            )
        if prior.spec_digest != spec_digest:
            raise ValueError(
                "the existing manifest belongs to a different matrix "
                f"spec (manifest {prior.spec_digest}, requested "
                f"{spec_digest}); refusing to mix sweeps in one directory"
            )
        for bad_path, reason in skipped_generations:
            logger.warning(
                "resume fell back past corrupt generation %s: %s",
                bad_path,
                reason,
            )
    elif resume:
        logger.info(
            "resume requested but %s holds no manifest; starting fresh",
            directory,
        )

    manifest = MatrixManifest(
        spec_digest=spec_digest, spec=spec.to_json()
    )
    failures: List[CellFailure] = []
    to_run: Dict[str, CellSpec] = {}

    for rejection in rejected:
        manifest.cells[rejection.cell_id] = CellRecord(
            cell_id=rejection.cell_id,
            label=rejection.label,
            params=rejection.params,
            status="rejected",
            reasons=rejection.reasons,
        )
        m_rejected.inc()
        logger.warning(
            "cell %s rejected before run: %s",
            rejection.cell_id,
            "; ".join(rejection.reasons),
        )
    for cell in runnable:
        record = CellRecord(
            cell_id=cell.cell_id, label=cell.label, params=cell.params
        )
        previous = prior.cells.get(cell.cell_id) if prior else None
        if (
            previous is not None
            and previous.status == "ok"
            and previous.digest is not None
        ):
            corpus_path = cells_root / cell.cell_id / "corpus.bin"
            if (
                corpus_path.exists()
                and _sha256_file(corpus_path) == previous.digest
            ):
                record = previous
                record.skipped_resume = True
                manifest.cells[cell.cell_id] = record
                m_skipped.inc()
                continue
            logger.warning(
                "resume could not verify completed cell %s "
                "(missing or altered corpus); re-running it",
                cell.cell_id,
            )
        manifest.cells[cell.cell_id] = record
        to_run[cell.cell_id] = cell

    save_manifest(manifest, directory / MATRIX_NAME)

    def cell_attempt(cell_id: str) -> Dict[str, object]:
        """One cell attempt, in its forked process.

        Honours the ``REPRO_CHAOS_*`` protocol keyed on the **cell
        index**, then runs :func:`execute_cell`.
        """
        cell = to_run[cell_id]
        cell_dir = cells_root / cell_id
        cell_dir.mkdir(parents=True, exist_ok=True)
        # A stale record must not outlive this attempt's writes.
        (cell_dir / RESULT_NAME).unlink(missing_ok=True)
        maybe_fail_shard(cell.index)
        return execute_cell(cell, cell_dir)

    def started(cell_id: str, attempt: int) -> None:
        record = manifest.cells[cell_id]
        record.status = "running"
        record.attempts = attempt
        save_manifest(manifest, directory / MATRIX_NAME)

    def settle(outcome: Outcome) -> Optional[float]:
        """Classify a finished cell attempt and advance its record."""
        cell_id = outcome.key
        record = manifest.cells[cell_id]
        h_seconds.observe(outcome.seconds)
        if outcome.ok:
            result = outcome.value
            record.status = "ok"
            record.kind = None
            record.error = None
            record.digest = result["digest"]
            record.records = result["records"]
            record.seconds = result["seconds"]
            m_ok.inc()
            logger.info(
                "cell %s ok (%s records, %.2fs, attempt %d)",
                cell_id,
                record.records,
                outcome.seconds,
                outcome.attempt,
            )
            save_manifest(manifest, directory / MATRIX_NAME)
            return None

        if outcome.timed_out:
            kind = "timeout"
            error = (
                f"cell overran its {cell_timeout}s wall-clock deadline "
                "and was killed"
            )
        elif outcome.exitcode == -signal.SIGKILL:
            kind = "oom-kill"
            error = "cell process was killed (SIGKILL, likely OOM)"
        elif outcome.error is not None:
            kind, error = "exception", outcome.error
        else:
            kind = "exception"
            error = f"cell process exited with status {outcome.exitcode}"
        record.kind = kind
        record.error = error
        delay = None
        if outcome.attempt <= max_cell_retries:
            action = "retried"
            record.status = "pending"
            m_retries.inc()
            delay = backoff_delay(
                outcome.attempt, retry_backoff, retry_backoff_cap
            )
        else:
            action = "failed"
            record.status = "timeout" if kind == "timeout" else "failed"
            if kind == "timeout":
                m_timeout.inc()
            else:
                m_failed.inc()
        failures.append(
            CellFailure(
                cell_id=cell_id,
                kind=kind,
                attempt=outcome.attempt,
                error=error,
                action=action,
            )
        )
        logger.warning(
            "cell %s failed (attempt %d, %s): %s -> %s",
            cell_id,
            outcome.attempt,
            kind,
            error,
            action,
        )
        save_manifest(manifest, directory / MATRIX_NAME)
        return delay

    run_jobs(
        list(to_run),
        cell_attempt,
        settle,
        workers=matrix_workers,
        timeout=cell_timeout,
        started=started,
    )

    return MatrixResults(
        directory=directory,
        manifest=manifest,
        failures=failures,
        metrics=registry,
    )
