"""Tests of the suite's own machinery: ``pytest benchmarks/suite -q``.

No sockets: the serving workloads are driven through the same layers
in-process (wire codec, coalescing engine, RSI1 kernels, live reload),
and ``collect`` runs whole at toy size.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import platform
from pathlib import Path

import pytest

import compare
import inputs
import run
import serving
import stats
import workloads
from repro.serve import (
    CoalescingEngine,
    IndexReloader,
    LocalHitlistClient,
    ensure_serving_index,
)
from spans import Tracer

SUITE = Path(__file__).resolve().parent

TOY = workloads.Sizes(
    world="tiny",
    addresses=2400,
    fresh_size=100,
    reload_commits=2,
    collect_weeks=1,
    replay_requests=300,
    replay_batches=4,
    setup_repeats=1,
)


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(
        SUITE.parents[1] / "src", tmp_path, 3, 0.2, Tracer(), TOY
    )


# -- statistics ----------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 0.5),
        (99, 0.75),
        (100, 0.9),
        (199, 0.9),
        (200, 0.95),
        (1000, 0.99),
        (9999, 0.99),
        (10_000, 0.999),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_summary_reports_median_tail_and_count():
    summary = stats.summarize([float(n) for n in range(1000)])
    assert summary["n"] == 1000
    assert summary["p50"] == 499.5
    assert summary["tail_q"] == 0.99
    assert stats.summarize([1.0] * 10) == {"n": 10, "p50": 1.0}


def test_histogram_quantile_interpolates_within_a_bucket():
    dump = {
        "buckets": [1.0, 2.0], "counts": [0, 10, 0], "sum": 15.0, "count": 10
    }
    assert stats.histogram_quantile(dump, 0.5) == pytest.approx(1.5)


def test_poisson_schedule_is_a_pure_function_of_the_seed():
    offsets = inputs.poisson_offsets(5, 1000.0, 2.0)
    assert offsets == inputs.poisson_offsets(5, 1000.0, 2.0)
    assert offsets != inputs.poisson_offsets(6, 1000.0, 2.0)
    assert offsets != inputs.poisson_offsets(5, 1000.0, 2.0, "other")
    assert offsets == sorted(offsets)
    assert 0.0 < offsets[0] and offsets[-1] < 2.0
    assert abs(len(offsets) - 2000) < 5 * 2000 ** 0.5


def test_fingerprint_records_machine_code_and_invocation():
    fingerprint = stats.fingerprint(
        SUITE.parents[1], 7, [str(SUITE / "run.py"), "--seed", "7"]
    )
    argv = ["benchmarks/suite/run.py", "--seed", "7"]
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    assert fingerprint["numpy"] == numpy_version
    assert fingerprint["cpu_count"] == os.cpu_count()
    assert fingerprint["python"] == platform.python_version()
    assert fingerprint["platform"] == platform.platform()
    assert fingerprint["seed"] == 7 and fingerprint["argv"] == argv
    if fingerprint["git_revision"] is None:
        assert fingerprint["git_dirty"] is None
    else:
        assert len(fingerprint["git_revision"]) == 40
        assert fingerprint["git_dirty"] in (True, False)


# -- compare.py ----------------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def _verdict(a, b, better="lower", bound=0.1, failed=(0.0, 0.0)):
    return compare.verdict(a, b, better, bound, failed)["verdict"]


def test_compare_calls_a_clear_gain_improved_and_a_clear_loss_worse():
    assert _verdict(BASE, [x * 0.9 for x in BASE]) == "improved"
    assert _verdict(BASE, [x * 1.2 for x in BASE]) == "worse"
    assert _verdict(BASE, [x * 1.1 for x in BASE], "higher") == "improved"
    assert _verdict(BASE, [x * 0.8 for x in BASE], "higher") == "worse"


def test_compare_calls_a_move_within_the_bound_unchanged():
    assert _verdict(BASE, [x * 1.05 for x in reversed(BASE)]) == "unchanged"


def test_compare_needs_nine_of_ten_pairs_to_claim_a_gain():
    nine = [x - 5 for x in BASE[:9]] + [BASE[9] + 1]
    eight = [x - 5 for x in BASE[:8]] + [BASE[8] + 1, BASE[9] + 1]
    assert _verdict(BASE, nine) == "improved"
    assert _verdict(BASE, eight) == "unchanged"


def test_compare_claims_no_gain_from_fewer_than_ten_pairs():
    assert _verdict(BASE[:9], [x * 0.8 for x in BASE[:9]]) == "unchanged"
    assert _verdict(BASE[:3], [x * 1.5 for x in BASE[:3]]) == "worse"


def test_compare_calls_spread_wider_than_the_bound_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert _verdict(noisy, list(reversed(noisy))) == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    assert _verdict(noisy, [x * 0.3 for x in noisy]) == "improved"


def test_compare_refuses_a_gain_that_fails_more_operations():
    faster = [x * 0.9 for x in BASE]
    assert _verdict(BASE, faster, failed=(0.0, 0.01)) == "unchanged"


def test_compare_survives_a_zero_median():
    assert _verdict([0.0] * 3, [0.0] * 3) == "unchanged"
    assert _verdict([0.0] * 3, [1.0] * 3) == "worse"
    assert _verdict([0.0] * 3, [1.0] * 3, "higher") == "unchanged"


def test_compare_claims_only_gains_on_an_ungated_metric():
    assert _verdict(BASE, [x * 0.9 for x in BASE], bound=None) == "improved"
    assert _verdict(BASE, [x * 1.5 for x in BASE], bound=None) == "not gated"


def _record(workload="point", value=100.0, **fields):
    record = {
        "workload": workload, "seconds": 10.0, "correct": True,
        "attempted": 1000, "failed": 0,
        "metrics": {"setup_s": value}, "layers": {"req_p50_ms": value},
    }
    record.update(fields)
    return record


BENCH = {
    "workloads": [{"name": "point"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}
    ],
    "per_layer": [{"name": "req_p50_ms", "unit": "ms", "better": "lower"}],
}


def test_compare_gates_the_failed_share_at_one_in_a_thousand():
    assert compare.failed_verdict(0.0, 0.001) == "unchanged"
    assert compare.failed_verdict(0.002, 0.0031) == "worse"
    side_a = [_record() for _ in range(3)]
    side_b = [_record(failed=2) for _ in range(3)]
    out = io.StringIO()
    counts = compare.compare(side_a, side_b, BENCH, out)
    assert counts == {"unchanged": 1, "worse": 1}
    assert "req_p50_ms" in out.getvalue() and "not gated" in out.getvalue()


def test_compare_leaves_invalid_runs_out_of_the_timings():
    late = ["open-loop generator lateness p99 3.00 ms exceeds 2 ms"]
    side_a = [_record(value=100.0 + n) for n in range(10)]
    side_b = [_record(value=90.0 + n) for n in range(10)]
    side_b[0] = _record(value=500.0, invalid=late)
    out = io.StringIO()
    compare.compare(side_a, side_b, BENCH, out)
    rows = out.getvalue().splitlines()
    timing = next(row for row in rows if row.startswith("req_p50_ms"))
    assert "1 invalid runs left out" in timing
    # Nine pairs remain, too few to claim the gain the valid runs show.
    assert "not gated" in timing and " 9/9 " in timing


def test_compare_refuses_wrong_runs_and_mixed_lengths(tmp_path):
    good = [_record() for _ in range(3)]
    wrong = good[:2] + [{"workload": "point", "correct": False}]
    assert "side B: 1 of 3" in compare.refusal(good, wrong)
    assert "side A" in compare.refusal(wrong, good)
    assert "different lengths" in compare.refusal(
        good, [_record(seconds=5.0)]
    )
    assert compare.refusal(good, good) is None
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(good))
    path_b.write_text(json.dumps(wrong))
    assert compare.main([str(path_a), "--", str(path_b)]) == 2


# -- the workloads at toy size -------------------------------------------------


def test_a_wrong_answer_is_caught(ctx):
    rig = workloads.ServingRig(ctx)
    pick = workloads._point_pick(rig)
    op, args = pick(0)
    right = [rig.oracle.answer(op, address) for address in args]
    assert serving.check_replies(rig.oracle, pick, [(0, right)]) == []
    wrong = [not right[0]] if op == "contains" else [None if right[0] else 1]
    assert len(serving.check_replies(rig.oracle, pick, [(0, wrong)])) == 1


def test_a_late_generator_makes_the_run_invalid():
    assert workloads._late_check({"client.late_p99_ms": 1.9}) == []
    assert workloads._late_check({"client.late_p99_ms": 2.1}) == [
        "open-loop generator lateness p99 2.10 ms exceeds 2 ms"
    ]


def _replay(rig, directory, requests):
    return asyncio.run(
        serving.replay(directory, requests, rig.oracle, rig.ctx.tracer)
    )


def test_point_stream_through_every_serving_layer(ctx, tmp_path):
    rig = workloads.ServingRig(ctx)
    directory = tmp_path / "store"
    rig.write_store(directory)
    ensure_serving_index(directory, routing=rig.routing)
    pick = workloads._point_pick(rig)
    requests = [(seq, *pick(seq)) for seq in range(TOY.replay_requests)]
    layers, problems = _replay(rig, directory, requests)
    assert problems == []
    for name in ("wire.codec_us", "wire.bytes_per_lookup", "format.kernel_us"):
        assert layers[f"serve.{name}"] > 0
    names = {span[1] for span in ctx.tracer.spans}
    assert {"replay.engine", "replay.kernel"} <= names


def test_bulk_batches_through_every_serving_layer(ctx, tmp_path):
    rig = workloads.ServingRig(ctx)
    directory = tmp_path / "store"
    rig.write_store(directory)
    ensure_serving_index(directory, routing=rig.routing)
    batches = inputs.bulk_batches(ctx.seed, rig.inputs, count=4, size=256)
    assert [op for op, _ in batches] == list(inputs.BULK_OPS)
    requests = [(seq, *batch) for seq, batch in enumerate(batches)]
    layers, problems = _replay(rig, directory, requests)
    assert problems == []
    assert layers["serve.format.kernel_ns_per_lookup"] > 0


def test_reload_makes_each_commit_visible_with_oracle_records(ctx, tmp_path):
    rig = workloads.ServingRig(ctx, fresh_segments=2)
    directory = tmp_path / "store"
    store, fresh = rig.write_store(directory)
    index = ensure_serving_index(directory, routing=rig.routing)

    async def scenario():
        engine = CoalescingEngine(index)
        reloader = IndexReloader(
            engine, directory, routing=rig.routing, interval=0.05
        )
        table = serving.methods_of(LocalHitlistClient(engine))
        rec = serving.Recorder(ctx.tracer)
        before = await workloads._check_fresh(rig, table, 1, rec)
        store.commit([fresh[0]])
        swapped = await reloader.poll_once()
        after = await workloads._check_fresh(rig, table, 1, rec)
        early = await workloads._check_fresh(rig, table, 2, rec)
        engine.index.close()
        return before, swapped, after, early

    before, swapped, after, early = asyncio.run(scenario())
    assert before and swapped and after == [] and early


def test_collect_runs_whole_at_toy_size(ctx):
    result = workloads.run_collect(ctx)
    assert result.problems == []
    assert result.failed == 0
    assert all(value > 0 for value in result.e2e.values())
    assert result.layers["core.index.reuse_ratio"] == 1.0
    assert result.report["rounds"] >= workloads.MIN_ROUNDS
    assert ctx.tracer.root_coverage(
        ctx.tracer.spans[0][2], max(span[3] for span in ctx.tracer.spans)
    ) > 0.9


def test_collect_refuses_a_corpus_that_differs_from_its_pin(ctx, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_ROUNDS", 1)
    ctx.pins = {str(ctx.seed): "0" * 64}
    result = workloads.run_collect(ctx)
    assert [p for p in result.problems if "pinned" in p] == [
        f"corpus sha256 {result.report['corpus_sha256']} differs from the "
        f"pinned {'0' * 64}"
    ]


def test_run_refuses_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "collect"]) == 2
    assert capsys.readouterr().out == ""


def test_run_length_is_fixed_by_the_benchmark(capsys):
    assert run.main(["--workload", "collect", "--seconds", "5"]) == 2
    assert capsys.readouterr().out == ""
