"""One command for the hitlist benchmark suite.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
                                    [--trace [0|1]] [--out FILE]

Runs the named workload (all four when none is named) against the real
program — ``repro serve`` over TCP for ``point``, ``bulk`` and
``reload``; ``run_campaign_parallel`` into a segment store for
``collect`` — checks every answer against an in-process oracle, and
prints each metric by name and unit.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics (a per-layer metric reads 0 on a
workload that does not exercise that layer).

``--trace`` runs the workload twice: untraced first, then with
bench-side spans around every call into the program.  Every number
comes from the untraced pass, except what only spans measure; the
traced pass's relative difference is reported as
``trace.overhead.<metric>`` and the spans are written to
``results/trace-<workload>.json``.

A run whose open-loop generator fell behind its schedule is *invalid*:
its record says why, and its timings are void (compare.py leaves them
out).  No end-to-end metric is measured under that schedule, so they
are still reported.

Every run is appended to ``results/HISTORY.jsonl`` with its
fingerprint.  Exit status: 0 when every answer matched; 1 on any wrong
answer (no metrics are printed); 2 when the program is missing or
``--seconds`` is not ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
RESULTS = SUITE / "results"
WORK = SUITE / ".work"
WORKLOADS = ("point", "bulk", "reload", "collect")
#: The request, reload and campaign timings.  None held a 10% bound
#: from run to run on the benchmark host, so they are per-layer
#: metrics; compare.py still compares them, ungated.
TIMINGS = (
    "req_p50_ms",
    "req_p90_ms",
    "point_req_per_s",
    "lookups_per_s",
    "reload_lag_ms",
    "collect_obs_per_s",
    "fold_s",
    "rsi_build_s",
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOADS,
        help="run one workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="must equal run_seconds of BENCHMARK.json, which fixes the "
             "run length (accepted so a caller can state it)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run a traced pass and print per-layer metrics",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write this run's records as JSON (for compare.py)",
    )
    return parser.parse_args(argv)


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_block(
    specs: Sequence[Dict[str, str]], values: Dict[str, float]
) -> Dict[str, Dict[str, object]]:
    return {
        spec["name"]: {
            "value": float(values.get(spec["name"], 0.0)),
            "unit": spec["unit"],
        }
        for spec in specs
    }


def _print_table(title: str, specs, values: Dict[str, float]) -> None:
    print(title)
    for spec in specs:
        name = spec["name"]
        print(f"  {name:<42} {values.get(name, 0.0):>14.4f} {spec['unit']}")


def run_workload(workloads, name: str, args, benchmark) -> Dict[str, object]:
    """Both passes of one workload; returns its history record."""
    from spans import Tracer

    pins = json.loads((SUITE / "pins.json").read_text())["collect"]
    seconds = float(benchmark["run_seconds"])
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = workloads.RUNNERS[name]

    def one_pass(tracer, sizes=workloads.Sizes()):
        return runner(
            workloads.Context(
                SRC, work, args.seed, seconds, tracer, sizes,
                pins=pins["corpus_sha256"],
            )
        )

    try:
        plain = one_pass(Tracer(enabled=False))
        traced = None
        coverage = 0.0
        if args.trace:
            tracer = Tracer()
            started = perf_counter()
            traced = one_pass(tracer, workloads.Sizes(setup_repeats=1))
            coverage = tracer.root_coverage(started, perf_counter())
            tracer.write(RESULTS / f"trace-{name}.json")
    except BaseException:
        print(f"{name} failed; its scratch files are kept in {work}",
              file=sys.stderr)
        raise
    shutil.rmtree(work, ignore_errors=True)
    passes = [plain] + ([traced] if traced else [])
    problems = [p for result in passes for p in result.problems]
    invalid = [i for result in passes for i in result.invalid]
    layers = dict(plain.layers)
    if traced is not None:
        for metric, value in traced.layers.items():
            layers.setdefault(metric, value)
        layers["trace.coverage"] = coverage
        before = {**plain.e2e, **plain.layers}
        after = {**traced.e2e, **traced.layers}
        for metric in [*plain.e2e, *TIMINGS]:
            if before.get(metric):
                overhead = after[metric] / before[metric] - 1
                layers[f"trace.overhead.{metric}"] = overhead
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems[:20],
        "invalid": invalid,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": plain.e2e,
        "layers": layers,
        "report": plain.report,
    }


def run_alone(args, benchmark) -> List[Dict[str, object]]:
    """Run one workload in this process; print and record it."""
    sys.path.insert(0, str(SRC))
    import stats
    import workloads

    record = run_workload(workloads, args.workload, args, benchmark)
    record["fingerprint"] = stats.fingerprint(ROOT, args.seed, sys.argv)
    RESULTS.mkdir(parents=True, exist_ok=True)
    with (RESULTS / "HISTORY.jsonl").open("a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"== {args.workload} (seed {args.seed}, {record['seconds']:g} s)")
    print(
        f"  attempted {record['attempted']}, failed {record['failed']}, "
        + ", ".join(f"{k} {v}" for k, v in record["report"].items())
    )
    _print_table("  end to end:", benchmark["end_to_end"], record["metrics"])
    _print_table(
        "  timings (per layer, not gated):",
        [
            spec for spec in benchmark["per_layer"]
            if spec["name"] in TIMINGS and record["layers"].get(spec["name"])
        ],
        record["layers"],
    )
    if args.trace:
        _print_table("  per layer:", benchmark["per_layer"], record["layers"])
    for problem in record["problems"]:
        print(f"  WRONG: {problem}")
    for reason in record["invalid"]:
        print(f"  INVALID: {reason}; this run's timings are void")
    return [record]


def run_each(args) -> List[Dict[str, object]]:
    """Every workload in a fresh interpreter of its own, so no workload
    inherits another's heap, and each peak-memory reading is its own."""
    records: List[Dict[str, object]] = []
    WORK.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        out = WORK / f"each-{os.getpid()}-{name}.json"
        command = [
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
            "--out", str(out),
        ]
        subprocess.run(command, check=False)
        if out.exists():
            records += json.loads(out.read_text())
            out.unlink()
        else:
            records.append({"workload": name, "correct": False,
                            "attempted": 0, "failed": 0})
    return records


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"the program is missing: no package at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is not None and args.seconds != benchmark["run_seconds"]:
        print(
            f"--seconds {args.seconds:g}: the run length is run_seconds "
            f"of BENCHMARK.json, {benchmark['run_seconds']}",
            file=sys.stderr,
        )
        return 2
    records = run_alone(args, benchmark) if args.workload else run_each(args)
    if args.out is not None:
        args.out.write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n"
        )

    correct = all(r["correct"] for r in records)
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics: Dict[str, object] = {}
    if correct:
        for record in records:
            values = record["layers"] if args.trace else record["metrics"]
            block = _metric_block(specs, values)
            if not args.workload:
                prefix = record["workload"]
                block = {f"{prefix}.{k}": v for k, v in block.items()}
            metrics.update(block)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
