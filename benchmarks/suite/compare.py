"""Compare two sets of suite runs metric by metric.

    python3 benchmarks/suite/compare.py A.json [A2.json ...] -- B.json [...]

``A`` is the parent (or the first set), ``B`` the change.  Each file is
what ``run.py --out`` writes (a list of run records), one record, or a
``HISTORY.jsonl``.  For every end-to-end metric of ``BENCHMARK.json`` and
every workload present on both sides it prints each side's median and
quartiles, how many of the paired runs (the i-th run of A against the
i-th of B) B won, and a verdict:

* ``improved`` — at least ten pairs were run, B won at least nine
  tenths of them (ties count for neither), and the medians differ by
  more than A's own quartile distance, with no more failed operations
  than A;
* ``worse`` — B's median is worse than A's by more than the metric's
  bound;
* ``unresolved`` — the run-to-run spread (quartile distance over
  median, either side) is wider than the bound, so "no worse" cannot be
  shown — unless every B run reads better than every A run;
* ``unchanged`` — otherwise: no regression shown, and no gain claimed
  (with fewer than ten pairs none can be).

Each workload's failed share (failed over attempted operations) is
gated too: ``worse`` when B's exceeds A's by more than 0.001.  The
timings that are per-layer metrics (``run.TIMINGS``) follow, ungated:
``improved`` by the rule above, else ``not gated``; runs whose open-loop
generator fell behind (``invalid``) are left out of these rows.

Exit status 1 when any (metric, workload) is worse, 2 when the sides
cannot be compared — a run gave a wrong answer, or the runs measured
for different lengths — else 0.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import stats
from run import TIMINGS

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9
MIN_PAIRS = 10
#: How much larger a share of failed operations B may have than A.
FAILED_SHARE_BOUND = 0.001


def load_records(path: Path) -> List[Dict[str, object]]:
    """Run records from a JSON list, one JSON record, or JSON lines."""
    text = path.read_text()
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return loaded if isinstance(loaded, list) else [loaded]


def _relative(delta: float, base: float) -> float:
    """``delta`` as a share of ``base``; infinite when ``base`` is 0."""
    if base:
        return delta / base
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: Optional[float],
    failed_share: Tuple[float, float] = (0.0, 0.0),
) -> Dict[str, object]:
    """The verdict for one (metric, workload); see the module docstring.

    ``bound`` None marks a metric that is not gated.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = stats.quartiles(a)
    q1b, med_b, q3b = stats.quartiles(b)
    # Positive: B is worse than A by that share of A's median.
    worse_by = _relative(sign * (med_b - med_a), med_a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    spread = max(_relative(q3a - q1a, med_a), _relative(q3b - q1b, med_b))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(med_b - med_a) > q3a - q1a
        and worse_by < 0
        and failed_share[1] <= failed_share[0]
    ):
        outcome = "improved"
    elif bound is None:
        outcome = "not gated"
    elif spread > bound and not all_better:
        outcome = "worse" if all_worse and worse_by > bound else "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "a": (q1a, med_a, q3a),
        "b": (q1b, med_b, q3b),
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": outcome,
    }


def failed_verdict(share_a: float, share_b: float) -> str:
    """``worse`` when B fails a larger share than A, beyond the bound."""
    return "worse" if share_b - share_a > FAILED_SHARE_BOUND else "unchanged"


def _failed_share(records) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def refusal(
    side_a: List[Dict[str, object]], side_b: List[Dict[str, object]]
) -> Optional[str]:
    """Why the two sides cannot be compared, or None when they can."""
    for label, side in (("A", side_a), ("B", side_b)):
        bad = [r for r in side if r.get("correct") is not True]
        if bad:
            return (
                f"side {label}: {len(bad)} of {len(side)} runs gave a wrong "
                "answer, so they measured nothing to compare"
            )
    lengths = {r["seconds"] for r in side_a + side_b}
    if len(lengths) > 1:
        return f"the runs measured for different lengths: {sorted(lengths)} s"
    return None


def compare(
    side_a: List[Dict[str, object]],
    side_b: List[Dict[str, object]],
    benchmark: Dict[str, object],
    out=sys.stdout,
) -> Dict[str, int]:
    """Print the comparison table; returns the count of each verdict."""
    counts: Dict[str, int] = {}
    workloads = [
        spec["name"]
        for spec in benchmark["workloads"]
        if any(r["workload"] == spec["name"] for r in side_a)
        and any(r["workload"] == spec["name"] for r in side_b)
    ]
    print(
        f"{'metric':<18} {'workload':<8} {'A median [Q1, Q3]':>30} "
        f"{'B median [Q1, Q3]':>30} {'worse by':>8} {'B wins':>7} verdict",
        file=out,
    )
    for workload in workloads:
        runs_a = [r for r in side_a if r["workload"] == workload]
        runs_b = [r for r in side_b if r["workload"] == workload]
        shares = (_failed_share(runs_a), _failed_share(runs_b))
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name] for r in runs_a]
            b = [r["metrics"][name] for r in runs_b]
            result = verdict(a, b, spec["better"], spec["bound"], shares)
            counts[result["verdict"]] = counts.get(result["verdict"], 0) + 1
            _row(out, name, workload, result, f"bound {spec['bound']:.0%}")
        valid_a = [r for r in runs_a if not r.get("invalid")]
        valid_b = [r for r in runs_b if not r.get("invalid")]
        left_out = len(runs_a) + len(runs_b) - len(valid_a) - len(valid_b)
        for spec in benchmark["per_layer"]:
            name = spec["name"]
            a = [r["layers"].get(name, 0.0) for r in valid_a]
            b = [r["layers"].get(name, 0.0) for r in valid_b]
            if name in TIMINGS and a and b and all(a) and all(b):
                result = verdict(a, b, spec["better"], None, shares)
                note = f"per layer, {left_out} invalid runs left out"
                _row(out, name, workload, result, note)
        outcome = failed_verdict(*shares)
        counts[outcome] = counts.get(outcome, 0) + 1
        print(
            f"{'failed share':<18} {workload:<8} {shares[0]:>30.6f} "
            f"{shares[1]:>30.6f} {shares[1] - shares[0]:>+8.4f} {'':>7} "
            f"{outcome} (bound +{FAILED_SHARE_BOUND})",
            file=out,
        )
    return counts


def _row(out, name: str, workload: str, result, note: str) -> None:
    print(
        f"{name:<18} {workload:<8} {_triple(result['a']):>30} "
        f"{_triple(result['b']):>30} {result['worse_by']:>+8.1%} "
        f"{result['wins']:>3}/{result['pairs']:<3} {result['verdict']}"
        f" ({note}, spread {result['spread']:.1%})",
        file=out,
    )


def _triple(values: Tuple[float, float, float]) -> str:
    q1, med, q3 = values
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    split = args.index("--") if "--" in args else -1
    if split < 1 or split == len(args) - 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    side_a = [r for path in args[:split] for r in load_records(Path(path))]
    side_b = [
        r for path in args[split + 1 :] for r in load_records(Path(path))
    ]
    reason = refusal(side_a, side_b)
    if reason is not None:
        print(f"not compared: {reason}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = compare(side_a, side_b, benchmark)
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
