"""Machine-readable benchmark artifacts.

Each bench publishes two artifacts under ``benchmarks/output/``: a
human-readable text rendering (via :func:`publish_text` or the conftest
``publish`` helper) and a small JSON document named ``BENCH_<name>.json``
(via :func:`write_bench_json`) that CI jobs and regression tooling can
assert on without parsing prose.

The JSON layout is deliberately flat: a ``bench`` name, the machine and
code the numbers were taken on (the fields of the benchmark suite's
run fingerprint: Python and numpy versions, CPU count, platform, git
revision and dirty flag), and whatever measurements the bench reports.
Timings are wall-clock seconds as floats.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

from suite.stats import fingerprint

__all__ = ["OUTPUT_DIR", "publish_text", "write_bench_json"]

#: The checkout whose git revision the artifacts record.
ROOT = pathlib.Path(__file__).resolve().parents[1]

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: The fingerprint fields every artifact carries.
FINGERPRINT_FIELDS = (
    "python",
    "numpy",
    "cpu_count",
    "platform",
    "git_revision",
    "git_dirty",
)


def publish_text(name: str, text: str) -> pathlib.Path:
    """Print a bench's text artifact and persist it to disk."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    print(f"[artifact written to {path}]")
    return path


def write_bench_json(name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` with the bench's measurements."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"BENCH_{name}.json"
    machine = fingerprint(ROOT, seed=0, argv=())
    document = {"bench": name}
    document.update((key, machine[key]) for key in FINGERPRINT_FIELDS)
    document.update(payload)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {path}]")
    return path
