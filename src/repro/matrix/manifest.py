"""The crash-safe sweep manifest: ``MATRIX.json``.

The manifest is the sweep's single source of truth: one
:class:`CellRecord` per expanded cell (runnable or rejected), updated
and rewritten after *every* cell transition.  It follows the segment
store's durability discipline (atomic replace, CRC-checked bytes) and
adds rotated generations:

* **atomic replace** — written to a temp file, fsynced, then
  ``os.replace``\\ d over the live name, so a reader never sees a
  partially-written manifest;
* **CRC framing** — the document embeds a CRC32 of its own canonical
  JSON, so a torn or bit-flipped file is *detected*, not trusted;
* **rotated generations** — the previous manifest survives as
  ``MATRIX.json.1``, and :func:`load_manifest` falls back to it when
  the live file is missing or fails its CRC.

A sweep killed at any instant therefore resumes from a manifest that
is at worst one cell transition stale — and ``--resume`` re-runs
exactly the cells that manifest does not prove complete.
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core import durable

__all__ = [
    "MATRIX_NAME",
    "MATRIX_FORMAT",
    "CellRecord",
    "MatrixManifest",
    "MatrixManifestError",
    "load_manifest",
    "save_manifest",
]

logger = logging.getLogger(__name__)

#: File name of the live sweep manifest inside a matrix directory.
MATRIX_NAME = "MATRIX.json"

#: Format tag; bump on incompatible layout changes.
MATRIX_FORMAT = "repro-matrix-v1"

#: Every status a cell record can carry.  ``pending`` and ``running``
#: are transient (a crashed sweep leaves them behind; resume re-runs
#: them); the rest are terminal.
CELL_STATUSES = (
    "pending",
    "running",
    "ok",
    "rejected",
    "failed",
    "timeout",
)


class MatrixManifestError(ValueError):
    """A manifest file is structurally invalid or fails its CRC."""


@dataclass
class CellRecord:
    """One cell's lifecycle, as recorded in the manifest."""

    cell_id: str
    label: str
    params: Dict[str, object]
    status: str = "pending"
    #: Execution attempts so far (0 for rejected / never-started cells).
    attempts: int = 0
    #: Failure classification of the *last* failed attempt
    #: (``exception`` / ``timeout`` / ``oom-kill``), ``None`` otherwise.
    kind: Optional[str] = None
    #: Last failure message, ``None`` while healthy.
    error: Optional[str] = None
    #: Validation rejection reasons (rejected cells only).
    reasons: Tuple[str, ...] = ()
    #: SHA-256 of the cell's corpus file once complete.
    digest: Optional[str] = None
    #: Corpus record count once complete.
    records: Optional[int] = None
    #: Wall-clock seconds of the successful attempt.
    seconds: Optional[float] = None
    #: True when a resumed sweep verified this cell's prior output and
    #: did not re-run it.
    skipped_resume: bool = False

    def __post_init__(self) -> None:
        if self.status not in CELL_STATUSES:
            raise MatrixManifestError(
                f"unknown cell status {self.status!r} for {self.cell_id}"
            )

    def to_json(self) -> Dict[str, object]:
        return {
            "cell_id": self.cell_id,
            "label": self.label,
            "params": self.params,
            "status": self.status,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
            "reasons": list(self.reasons),
            "digest": self.digest,
            "records": self.records,
            "seconds": self.seconds,
            "skipped_resume": self.skipped_resume,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "CellRecord":
        try:
            return cls(
                cell_id=str(doc["cell_id"]),
                label=str(doc["label"]),
                params=dict(doc["params"]),
                status=str(doc["status"]),
                attempts=int(doc.get("attempts", 0)),
                kind=doc.get("kind"),
                error=doc.get("error"),
                reasons=tuple(doc.get("reasons") or ()),
                digest=doc.get("digest"),
                records=doc.get("records"),
                seconds=doc.get("seconds"),
                skipped_resume=bool(doc.get("skipped_resume", False)),
            )
        except (KeyError, TypeError) as error:
            raise MatrixManifestError(
                f"malformed cell record: {error}"
            ) from error


@dataclass
class MatrixManifest:
    """The whole sweep's state: spec identity plus per-cell records."""

    spec_digest: str
    spec: Dict[str, object] = field(default_factory=dict)
    cells: Dict[str, CellRecord] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """Cells per terminal/transient status (plus resume skips)."""
        counts = {status: 0 for status in CELL_STATUSES}
        counts["skipped_resume"] = 0
        for record in self.cells.values():
            counts[record.status] += 1
            if record.skipped_resume:
                counts["skipped_resume"] += 1
        return counts

    @property
    def complete(self) -> bool:
        """True when no cell is left in a transient state."""
        return all(
            record.status not in ("pending", "running")
            for record in self.cells.values()
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "format": MATRIX_FORMAT,
            "spec_digest": self.spec_digest,
            "spec": self.spec,
            "cells": {
                cell_id: record.to_json()
                for cell_id, record in sorted(self.cells.items())
            },
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "MatrixManifest":
        if doc.get("format") != MATRIX_FORMAT:
            raise MatrixManifestError(
                f"not a {MATRIX_FORMAT} manifest: "
                f"format={doc.get('format')!r}"
            )
        cells_doc = doc.get("cells")
        if not isinstance(cells_doc, dict):
            raise MatrixManifestError("manifest carries no cell map")
        return cls(
            spec_digest=str(doc.get("spec_digest", "")),
            spec=dict(doc.get("spec") or {}),
            cells={
                cell_id: CellRecord.from_json(record)
                for cell_id, record in cells_doc.items()
            },
        )


def _document_crc(doc: Dict[str, object]) -> int:
    """CRC32 of the document's canonical JSON, excluding the crc field."""
    body = {key: value for key, value in doc.items() if key != "crc32"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def save_manifest(
    manifest: MatrixManifest, path: Union[str, Path]
) -> Path:
    """Atomically persist ``manifest``, rotating the prior generation.

    Write order makes every crash window safe: the new bytes are
    durable in a temp file first; the previous live manifest is rotated
    to ``.1`` only then; and the final ``os.replace`` publishes the new
    generation in one atomic step.  Between rotation and publish a
    crash leaves only ``.1`` — which the loader accepts.
    """
    path = Path(path)
    doc = manifest.to_json()
    doc["crc32"] = _document_crc(doc)
    payload = json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")
    durable.atomic_write(
        path, [payload], previous=path.with_name(f"{path.name}.1")
    )
    return path


def _load_one(path: Path) -> MatrixManifest:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise MatrixManifestError(
            f"{path.name} is not valid JSON: {error}"
        ) from error
    if not isinstance(doc, dict):
        raise MatrixManifestError(f"{path.name} is not a JSON object")
    recorded = doc.get("crc32")
    if recorded is None:
        raise MatrixManifestError(f"{path.name} carries no CRC")
    actual = _document_crc(doc)
    if recorded != actual:
        raise MatrixManifestError(
            f"{path.name} fails its CRC check "
            f"(recorded {recorded}, computed {actual})"
        )
    return MatrixManifest.from_json(doc)


def load_manifest(
    directory: Union[str, Path],
) -> Optional[Tuple[MatrixManifest, Path, List[Tuple[Path, str]]]]:
    """Load the newest intact manifest generation from ``directory``.

    Returns ``(manifest, path_used, skipped)`` where ``skipped`` lists
    ``(path, reason)`` for every newer generation that was present but
    torn/corrupt, or ``None`` when no generation exists at all.  A
    corrupt live file with no fallback raises
    :class:`MatrixManifestError` — silently starting a fresh sweep over
    a damaged one would discard completed cells.
    """
    directory = Path(directory)
    live = directory / MATRIX_NAME
    candidates = [live, live.with_name(f"{live.name}.1")]
    skipped: List[Tuple[Path, str]] = []
    last_error: Optional[MatrixManifestError] = None
    for candidate in candidates:
        if not candidate.exists():
            continue
        try:
            manifest = _load_one(candidate)
        except MatrixManifestError as error:
            skipped.append((candidate, str(error)))
            last_error = error
            logger.warning(
                "skipping corrupt matrix manifest %s: %s", candidate, error
            )
            continue
        return manifest, candidate, skipped
    if last_error is not None:
        raise MatrixManifestError(
            f"every manifest generation in {directory} is corrupt: "
            + "; ".join(reason for _, reason in skipped)
        )
    return None
