"""The declarative sweep spec and its generate/validate split.

A :class:`MatrixSpec` lists the *axes* of a scenario sweep — world
presets, :class:`~repro.world.population.WorldConfig` override sets,
fault-plan spec strings, campaign lengths, per-cell worker counts and
seeds — and :meth:`MatrixSpec.expand` takes their cartesian product
into an ordered list of :class:`CellSpec` values.  Expansion is pure
and deterministic: the same spec always yields the same cells with the
same stable ``cell_id``\\ s, which is what lets a resumed sweep match
its manifest records back to cells.

Validation is a separate, *total* pass (AEnv-style generator/validator
split): :func:`validate_cell` returns every reason a cell is
infeasible — unknown preset, unknown or unbuildable world override,
malformed fault spec, week/pipeline conflicts — and
:func:`expand_and_validate` partitions the expansion into runnable
cells and structured :class:`CellRejected` records *before* any
campaign compute is spent.  A rejected cell is a first-class sweep
outcome, not an exception.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.study import CAIDA_LAST_WEEK
from ..faults.plan import FaultPlan
from ..world.population import WorldConfig
from ..world.presets import preset_config, preset_names

__all__ = [
    "CellRejected",
    "CellSpec",
    "MatrixSpec",
    "expand_and_validate",
    "validate_cell",
]

#: Pipelines a cell can run: the NTP collection alone, or the full
#: three-dataset study (which needs the CAIDA campaign's minimum span).
PIPELINES = ("campaign", "study")

#: ``(key, value)`` pairs — a WorldConfig override set frozen into a
#: hashable, canonically ordered form.
_Overrides = Tuple[Tuple[str, object], ...]

_WORLD_FIELDS = frozenset(
    spec.name for spec in dataclass_fields(WorldConfig)
)


def _freeze_overrides(overrides: Union[dict, _Overrides]) -> _Overrides:
    if isinstance(overrides, dict):
        items = overrides.items()
    else:
        items = tuple(overrides)
    return tuple(sorted((str(key), value) for key, value in items))


def _canonical_json(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CellSpec:
    """One fully-specified cell of the sweep (pure configuration)."""

    index: int
    preset: str
    overrides: _Overrides
    faults: Optional[str]
    weeks: int
    workers: int
    seed: int
    pipeline: str = "campaign"

    @property
    def params(self) -> Dict[str, object]:
        """The cell's science parameters as a plain JSON-able dict."""
        return {
            "preset": self.preset,
            "overrides": dict(self.overrides),
            "faults": self.faults,
            "weeks": self.weeks,
            "workers": self.workers,
            "seed": self.seed,
            "pipeline": self.pipeline,
        }

    @property
    def cell_id(self) -> str:
        """Stable id: ordinal position plus a digest of the parameters.

        The ordinal keeps directory listings in expansion order; the
        digest makes a spec edit that reorders or changes cells
        impossible to confuse with the original on resume.
        """
        digest = hashlib.blake2b(
            _canonical_json(self.params).encode("utf-8"), digest_size=4
        ).hexdigest()
        return f"c{self.index:04d}-{digest}"

    @property
    def label(self) -> str:
        """Human-oriented one-line description for logs and reports."""
        parts = [self.preset]
        if self.overrides:
            parts.append(
                "+".join(f"{key}={value}" for key, value in self.overrides)
            )
        parts.append(f"faults={self.faults or 'none'}")
        parts.append(f"weeks={self.weeks}")
        if self.workers != 1:
            parts.append(f"workers={self.workers}")
        parts.append(f"seed={self.seed}")
        if self.pipeline != "campaign":
            parts.append(self.pipeline)
        return " ".join(parts)

    def world_config(self) -> WorldConfig:
        """Build the cell's :class:`WorldConfig` (may raise ValueError)."""
        return preset_config(
            self.preset, seed=self.seed, **dict(self.overrides)
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        """Parse the cell's fault spec (``None`` stays ``None``)."""
        if self.faults is None:
            return None
        return FaultPlan.parse(self.faults)


@dataclass(frozen=True)
class CellRejected:
    """One infeasible cell, rejected by validation before any compute."""

    index: int
    cell_id: str
    label: str
    reasons: Tuple[str, ...]
    params: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MatrixSpec:
    """The declarative axes of a scenario sweep.

    Every axis is a sequence; the sweep is the cartesian product in
    fixed axis order (presets → overrides → faults → weeks → workers →
    seeds), so cell ordinals are reproducible from the spec alone::

        MatrixSpec(presets=("tiny",),
                   faults=(None, "flap=0.3,loss=0.05,seed=9"),
                   seeds=(0, 1)).expand()   # 4 cells

    ``overrides`` entries are :class:`WorldConfig` field dicts applied
    on top of the preset (``{}`` means the preset as-is); ``pipeline``
    selects what each cell runs (``"campaign"`` — the NTP collection —
    or the full three-dataset ``"study"``).
    """

    presets: Tuple[str, ...] = ("tiny",)
    overrides: Tuple[_Overrides, ...] = ((),)
    faults: Tuple[Optional[str], ...] = (None,)
    weeks: Tuple[int, ...] = (2,)
    workers: Tuple[int, ...] = (1,)
    seeds: Tuple[int, ...] = (0,)
    pipeline: str = "campaign"

    def __post_init__(self) -> None:
        freeze = object.__setattr__
        freeze(self, "presets", tuple(str(name) for name in self.presets))
        freeze(
            self,
            "overrides",
            tuple(_freeze_overrides(entry) for entry in self.overrides),
        )
        freeze(
            self,
            "faults",
            tuple(
                None if entry is None else str(entry)
                for entry in self.faults
            ),
        )
        freeze(self, "weeks", tuple(int(value) for value in self.weeks))
        freeze(self, "workers", tuple(int(value) for value in self.workers))
        freeze(self, "seeds", tuple(int(value) for value in self.seeds))
        for axis in ("presets", "overrides", "faults", "weeks", "workers",
                     "seeds"):
            if not getattr(self, axis):
                raise ValueError(f"matrix axis {axis!r} must not be empty")

    def expand(self) -> List[CellSpec]:
        """The cartesian product of the axes, in stable order."""
        cells = []
        product = itertools.product(
            self.presets,
            self.overrides,
            self.faults,
            self.weeks,
            self.workers,
            self.seeds,
        )
        for index, combo in enumerate(product):
            preset, overrides, faults, weeks, workers, seed = combo
            cells.append(
                CellSpec(
                    index=index,
                    preset=preset,
                    overrides=overrides,
                    faults=faults,
                    weeks=weeks,
                    workers=workers,
                    seed=seed,
                    pipeline=self.pipeline,
                )
            )
        return cells

    def to_json(self) -> Dict[str, object]:
        return {
            "presets": list(self.presets),
            "overrides": [dict(entry) for entry in self.overrides],
            "faults": list(self.faults),
            "weeks": list(self.weeks),
            "workers": list(self.workers),
            "seeds": list(self.seeds),
            "pipeline": self.pipeline,
        }

    def digest(self) -> str:
        """Stable identity of the spec (pins manifests to their sweep)."""
        return hashlib.blake2b(
            _canonical_json(self.to_json()).encode("utf-8"), digest_size=16
        ).hexdigest()

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "MatrixSpec":
        """Build a spec from a JSON document, wrapping bare scalars.

        Unknown keys are an error — a typoed axis name must not
        silently fall back to the default axis.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"matrix spec must be a JSON object, not "
                f"{type(doc).__name__}"
            )
        known = {
            "presets", "overrides", "faults", "weeks", "workers", "seeds",
            "pipeline",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown matrix spec keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )

        def axis(key: str, default):
            if key not in doc:
                return default
            value = doc[key]
            if isinstance(value, (list, tuple)):
                return tuple(value)
            return (value,)

        kwargs = {
            "presets": axis("presets", ("tiny",)),
            "overrides": axis("overrides", ({},)),
            "faults": axis("faults", (None,)),
            "weeks": axis("weeks", (2,)),
            "workers": axis("workers", (1,)),
            "seeds": axis("seeds", (0,)),
        }
        if "pipeline" in doc:
            kwargs["pipeline"] = str(doc["pipeline"])
        for entry in kwargs["overrides"]:
            if not isinstance(entry, (dict, tuple)):
                raise ValueError(
                    f"each overrides entry must be an object of "
                    f"WorldConfig fields, not {type(entry).__name__}"
                )
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "MatrixSpec":
        """Load a spec from a JSON file."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"matrix spec {path} is not valid JSON: {error}"
            ) from error
        return cls.from_json(doc)


def validate_cell(cell: CellSpec) -> List[str]:
    """Every reason ``cell`` cannot run (empty means feasible).

    Validation is total — it collects all failures instead of stopping
    at the first, so a rejection record tells the whole story — and
    runs entirely on configuration: nothing here builds a world or
    spends campaign compute.
    """
    reasons: List[str] = []
    if cell.pipeline not in PIPELINES:
        reasons.append(
            f"unknown pipeline {cell.pipeline!r} "
            f"(choose from {', '.join(PIPELINES)})"
        )
    if cell.weeks < 1:
        reasons.append(f"weeks must be >= 1: {cell.weeks}")
    elif cell.pipeline == "study" and cell.weeks < CAIDA_LAST_WEEK:
        reasons.append(
            f"study pipeline needs at least {CAIDA_LAST_WEEK} weeks "
            f"(the CAIDA campaign's span): {cell.weeks}"
        )
    if cell.workers < 1:
        reasons.append(f"workers must be >= 1: {cell.workers}")
    world_ok = True
    if cell.preset not in preset_names():
        world_ok = False
        reasons.append(
            f"unknown world preset {cell.preset!r} "
            f"(choose from {', '.join(preset_names())})"
        )
    bad_keys = sorted(
        key for key, _ in cell.overrides if key not in _WORLD_FIELDS
    )
    if bad_keys:
        world_ok = False
        reasons.append(
            f"unknown WorldConfig override field(s): {', '.join(bad_keys)}"
        )
    if world_ok:
        try:
            cell.world_config()
        except (ValueError, TypeError) as error:
            reasons.append(f"world config rejected: {error}")
    try:
        cell.fault_plan()
    except ValueError as error:
        reasons.append(f"fault spec rejected: {error}")
    return reasons


def expand_and_validate(
    spec: MatrixSpec,
) -> Tuple[List[CellSpec], List[CellRejected]]:
    """Expand ``spec`` and partition cells into runnable vs rejected."""
    runnable: List[CellSpec] = []
    rejected: List[CellRejected] = []
    for cell in spec.expand():
        reasons = validate_cell(cell)
        if reasons:
            rejected.append(
                CellRejected(
                    index=cell.index,
                    cell_id=cell.cell_id,
                    label=cell.label,
                    reasons=tuple(reasons),
                    params=cell.params,
                )
            )
        else:
            runnable.append(cell)
    return runnable, rejected
