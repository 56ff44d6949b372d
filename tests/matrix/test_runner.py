"""Tests for repro.matrix.runner — the fault-tolerant sweep scheduler.

Every cell runs in its own process, so chaos here is injected through
the ``REPRO_CHAOS_*`` environment protocol keyed on the **cell index**
(the matrix analogue of a shard index).  The micro world overrides keep
each cell around 50ms so even the retry tests stay fast.
"""

import json

import pytest

from repro.matrix import MATRIX_NAME, MatrixSpec, execute_cell, run_matrix

#: Smallest world that still builds: shrink only the populations and
#: keep the preset's AS counts (vantage placement needs hosting ASes).
MICRO = {
    "n_home_networks": 30,
    "n_cellular_subscribers": 20,
    "n_hosting_networks": 6,
}

FAULTY = "flap=0.3,loss=0.05,seed=9"


def micro_spec(**axes):
    defaults = dict(
        presets=("tiny",),
        overrides=(MICRO,),
        faults=(None, FAULTY),
        weeks=(1,),
        workers=(1,),
        seeds=(0,),
    )
    defaults.update(axes)
    return MatrixSpec(**defaults)


@pytest.fixture()
def cell_chaos(tmp_path, monkeypatch):
    """Arm the chaos hooks against a single matrix cell index."""
    tokens = tmp_path / "chaos-tokens"
    tokens.mkdir()
    monkeypatch.setenv("REPRO_CHAOS_TOKENS", str(tokens))
    monkeypatch.delenv("REPRO_CHAOS_SHARD", raising=False)

    def arm(count, cell_index, mode):
        monkeypatch.setenv("REPRO_CHAOS_MODE", mode)
        monkeypatch.setenv("REPRO_CHAOS_SHARD", str(cell_index))
        for index in range(count):
            (tokens / f"token-{index}").touch()
        return tokens

    return arm


class TestHappyPath:
    def test_sweep_completes_and_matches_direct_execution(self, tmp_path):
        spec = micro_spec()
        result = run_matrix(spec, tmp_path / "sweep")
        assert result.complete
        assert result.counts["ok"] == 2
        assert result.failures == []
        assert (
            result.metrics.counter_value("repro_matrix_cells_ok_total")
            == 2
        )
        # Cell outputs are bit-identical to running the same cell
        # directly in-process: the harness adds no nondeterminism.
        for cell in spec.expand():
            reference_dir = tmp_path / "direct" / cell.cell_id
            execute_cell(cell, reference_dir)
            swept = tmp_path / "sweep" / "cells" / cell.cell_id
            assert (
                (swept / "corpus.bin").read_bytes()
                == (reference_dir / "corpus.bin").read_bytes()
            )
            record = result.manifest.cells[cell.cell_id]
            assert record.status == "ok"
            assert record.attempts == 1
            assert record.records > 0
            assert record.digest

    def test_manifest_persisted_and_loadable(self, tmp_path):
        from repro.matrix import load_manifest

        run_matrix(micro_spec(faults=(None,)), tmp_path)
        loaded = load_manifest(tmp_path)
        assert loaded is not None
        manifest, used_path, skipped = loaded
        assert used_path.name == MATRIX_NAME
        assert skipped == []
        assert manifest.complete
        assert manifest.counts()["ok"] == 1

    def test_sharded_cells_match_their_serial_siblings(self, tmp_path):
        # A workers=2 cell forks its own shard children from inside its
        # forked cell process; its corpus must still equal the workers=1
        # cell's, with faults off and on.
        spec = micro_spec(workers=(1, 2))
        result = run_matrix(spec, tmp_path)
        assert result.counts["ok"] == 4
        digests = {}
        for cell in spec.expand():
            digests.setdefault(cell.faults, {})[cell.workers] = (
                result.manifest.cells[cell.cell_id].digest
            )
        assert sorted(digests, key=str) == sorted([None, FAULTY], key=str)
        for by_workers in digests.values():
            assert by_workers[1] == by_workers[2]
        assert digests[None][1] != digests[FAULTY][1]

    def test_matrix_workers_run_cells_concurrently(self, tmp_path):
        result = run_matrix(
            micro_spec(seeds=(0, 1)), tmp_path, matrix_workers=2
        )
        assert result.counts["ok"] == 4
        assert result.complete


class TestValidationGate:
    def test_infeasible_cells_rejected_before_any_compute(self, tmp_path):
        spec = MatrixSpec(presets=("galactic",), seeds=(0, 1))
        result = run_matrix(spec, tmp_path)
        assert result.counts["rejected"] == 2
        assert result.counts["ok"] == 0
        # No cell directory was ever created: rejection precedes compute.
        assert not (tmp_path / "cells").exists()
        assert (
            result.metrics.counter_value(
                "repro_matrix_cells_rejected_total"
            )
            == 2
        )
        for record in result.manifest.cells.values():
            assert record.status == "rejected"
            assert record.reasons

    def test_mixed_sweep_runs_the_feasible_cells(self, tmp_path):
        spec = micro_spec(faults=(None, "flap=2.0"))
        result = run_matrix(spec, tmp_path)
        assert result.counts["ok"] == 1
        assert result.counts["rejected"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"matrix_workers": 0},
            {"cell_timeout": 0.0},
            {"max_cell_retries": -1},
            {"retry_backoff": -0.5},
            {"retry_backoff_cap": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            run_matrix(micro_spec(), tmp_path, **kwargs)


class TestResume:
    def test_refuses_rerun_without_resume(self, tmp_path):
        run_matrix(micro_spec(faults=(None,)), tmp_path)
        with pytest.raises(ValueError, match="resume"):
            run_matrix(micro_spec(faults=(None,)), tmp_path)

    def test_resume_skips_verified_cells(self, tmp_path):
        spec = micro_spec()
        first = run_matrix(spec, tmp_path)
        digests = {
            cell_id: record.digest
            for cell_id, record in first.manifest.cells.items()
        }
        again = run_matrix(spec, tmp_path, resume=True)
        assert again.counts["ok"] == 2
        assert again.counts["skipped_resume"] == 2
        assert (
            again.metrics.counter_value(
                "repro_matrix_cells_skipped_resume_total"
            )
            == 2
        )
        for cell_id, record in again.manifest.cells.items():
            assert record.skipped_resume
            assert record.digest == digests[cell_id]

    def test_resume_reruns_cell_with_tampered_corpus(self, tmp_path):
        spec = micro_spec()
        first = run_matrix(spec, tmp_path)
        victim = sorted(first.manifest.cells)[0]
        corpus = tmp_path / "cells" / victim / "corpus.bin"
        corpus.write_bytes(b"corrupted")
        again = run_matrix(spec, tmp_path, resume=True)
        assert again.counts["ok"] == 2
        assert again.counts["skipped_resume"] == 1
        assert not again.manifest.cells[victim].skipped_resume
        # The re-run restored the recorded digest.
        assert (
            again.manifest.cells[victim].digest
            == first.manifest.cells[victim].digest
        )

    def test_resume_rejects_different_spec(self, tmp_path):
        run_matrix(micro_spec(faults=(None,)), tmp_path)
        with pytest.raises(ValueError, match="different matrix spec"):
            run_matrix(
                micro_spec(faults=(None,), seeds=(99,)),
                tmp_path,
                resume=True,
            )

    def test_resume_into_empty_directory_starts_fresh(self, tmp_path):
        result = run_matrix(
            micro_spec(faults=(None,)), tmp_path, resume=True
        )
        assert result.counts["ok"] == 1


class TestFailureHandling:
    def test_crashed_cell_is_retried_to_success(
        self, tmp_path, cell_chaos
    ):
        cell_chaos(1, cell_index=0, mode="kill")
        result = run_matrix(
            micro_spec(),
            tmp_path / "sweep",
            max_cell_retries=1,
            retry_backoff=0.0,
        )
        assert result.complete
        assert result.counts["ok"] == 2
        assert [f.action for f in result.failures] == ["retried"]
        assert result.failures[0].kind == "exception"
        assert (
            result.metrics.counter_value(
                "repro_matrix_cell_retries_total"
            )
            == 1
        )

    def test_terminal_failure_does_not_abort_the_sweep(
        self, tmp_path, cell_chaos
    ):
        cell_chaos(1, cell_index=0, mode="raise")
        result = run_matrix(
            micro_spec(),
            tmp_path / "sweep",
            max_cell_retries=0,
            retry_backoff=0.0,
        )
        # "complete" means every cell reached a terminal state —
        # a terminal failure still counts as a finished sweep.
        assert result.complete
        assert result.counts["failed"] == 1
        assert result.counts["ok"] == 1
        assert (
            result.metrics.counter_value(
                "repro_matrix_cells_failed_total"
            )
            == 1
        )
        [failure] = result.failures
        assert failure.action == "failed"
        assert failure.kind == "exception"
        # The child's traceback surfaced into the coordinator's record.
        assert "ChaosInjected" in failure.error
        failed = [
            record
            for record in result.manifest.cells.values()
            if record.status == "failed"
        ]
        assert len(failed) == 1
        assert "ChaosInjected" in failed[0].error

    def test_hung_cell_is_killed_at_its_deadline(
        self, tmp_path, cell_chaos, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "60")
        cell_chaos(1, cell_index=0, mode="hang")
        result = run_matrix(
            micro_spec(),
            tmp_path / "sweep",
            cell_timeout=1.0,
            max_cell_retries=0,
            retry_backoff=0.0,
        )
        assert result.counts["timeout"] == 1
        assert result.counts["ok"] == 1
        assert (
            result.metrics.counter_value(
                "repro_matrix_cells_timeout_total"
            )
            == 1
        )
        [failure] = result.failures
        assert failure.kind == "timeout"
        assert "deadline" in failure.error
        timed_out = [
            record
            for record in result.manifest.cells.values()
            if record.status == "timeout"
        ]
        assert len(timed_out) == 1

    def test_every_terminal_state_lands_in_manifest_and_metrics(
        self, tmp_path, cell_chaos
    ):
        # One rejected, one chaos-failed, one ok — all in a single sweep,
        # each visible in both MATRIX.json and the counters.
        cell_chaos(1, cell_index=0, mode="raise")
        spec = micro_spec(faults=(None, FAULTY, "flap=9.9"))
        result = run_matrix(
            spec,
            tmp_path / "sweep",
            max_cell_retries=0,
            retry_backoff=0.0,
        )
        assert result.counts["rejected"] == 1
        assert result.counts["failed"] == 1
        assert result.counts["ok"] == 1
        doc = json.loads(
            (tmp_path / "sweep" / MATRIX_NAME).read_text()
        )
        statuses = sorted(
            record["status"] for record in doc["cells"].values()
        )
        assert statuses == ["failed", "ok", "rejected"]
        for counter, expected in [
            ("repro_matrix_cells_ok_total", 1),
            ("repro_matrix_cells_failed_total", 1),
            ("repro_matrix_cells_rejected_total", 1),
            ("repro_matrix_cells_timeout_total", 0),
            ("repro_matrix_cells_skipped_resume_total", 0),
        ]:
            assert result.metrics.counter_value(counter) == expected
