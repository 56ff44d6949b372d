"""Tests for repro.cli — the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.core import load_corpus
from repro.core.corpus import AddressCorpus
from repro.core.segments import MANIFEST_NAME, SegmentStore
from repro.core.storage import save_corpus


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.seed == 7
        assert args.weeks == 31
        assert args.scale == "tiny"

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--scale", "galactic"])

    def test_release_args(self):
        args = build_parser().parse_args(
            ["release", "c.bin", "--output", "out.csv"]
        )
        assert args.corpus == "c.bin"
        assert args.output == "out.csv"

    def test_study_campaign_options(self):
        args = build_parser().parse_args(
            ["study", "--workers", "4", "--segment-dir", "seg", "--resume"]
        )
        assert args.workers == 4
        assert args.segment_dir == "seg"
        assert args.resume is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--checkpoint", "c.ckpt"])

    def test_campaign_option_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.workers == 1
        assert args.resume is False
        assert args.faults is None
        assert args.max_shard_retries == 2

    def test_fault_and_retry_options(self):
        args = build_parser().parse_args(
            [
                "report",
                "--faults", "flap=0.2,loss=0.05,seed=9",
                "--max-shard-retries", "5",
            ]
        )
        assert args.faults == "flap=0.2,loss=0.05,seed=9"
        assert args.max_shard_retries == 5

    def test_metrics_and_log_level_options(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "study", "--metrics-out", "m.json"]
        )
        assert args.log_level == "debug"
        assert args.metrics_out == "m.json"

    def test_metrics_out_defaults_off(self):
        args = build_parser().parse_args(["report"])
        assert args.metrics_out is None
        assert args.log_level == "info"

    def test_rejects_unknown_log_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "chatty", "study"])


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    output = tmp_path_factory.mktemp("cli-study")
    code = main(
        [
            "study",
            "--seed", "3",
            "--weeks", "10",
            "--scale", "tiny",
            "--output-dir", str(output),
        ]
    )
    assert code == 0
    return output


class TestStudyCommand:
    def test_saves_three_corpora(self, study_dir):
        names = sorted(path.name for path in study_dir.iterdir())
        assert names == [
            "caida-routed-48.corpus.bin",
            "ipv6-hitlist.corpus.bin",
            "ntp-pool.corpus.bin",
        ]

    def test_saved_corpora_load(self, study_dir):
        corpus = load_corpus(study_dir / "ntp-pool.corpus.bin")
        assert corpus.name == "ntp-pool"
        assert len(corpus) > 0

    def test_prints_table(self, study_dir, capsys):
        # The fixture already ran; re-run quickly to capture output.
        main(
            [
                "study", "--seed", "3", "--weeks", "10",
                "--scale", "tiny", "--output-dir", str(study_dir),
            ]
        )
        out = capsys.readouterr().out
        assert "ntp-pool" in out
        assert "Table 1" in out


class TestParallelStudyCommand:
    def test_sharded_study_matches_serial_bytes(
        self, study_dir, tmp_path
    ):
        # Same seed, sharded across 2 workers: the saved NTP corpus must
        # be byte-identical to the serial run's.
        output = tmp_path / "parallel"
        code = main(
            [
                "study",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output-dir", str(output),
                "--workers", "2",
            ]
        )
        assert code == 0
        serial = (study_dir / "ntp-pool.corpus.bin").read_bytes()
        sharded = (output / "ntp-pool.corpus.bin").read_bytes()
        assert serial == sharded

    def test_resume_without_segment_dir_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --segment-dir" in capsys.readouterr().err

    def test_bad_faults_spec_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--faults", "flap=not-a-number"])
        assert excinfo.value.code == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_bad_max_shard_retries_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--max-shard-retries", "-1"])
        assert excinfo.value.code == 2

    def test_faulty_study_runs_and_differs(self, study_dir, tmp_path):
        # A non-zero plan must complete end-to-end and perturb the NTP
        # corpus (while the active scanners are untouched by it).
        output = tmp_path / "faulty"
        code = main(
            [
                "study",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output-dir", str(output),
                "--faults", "flap=0.3,loss=0.1,corrupt=0.02,seed=9",
            ]
        )
        assert code == 0
        serial = (study_dir / "ntp-pool.corpus.bin").read_bytes()
        faulty = (output / "ntp-pool.corpus.bin").read_bytes()
        assert serial != faulty
        caida_serial = (study_dir / "caida-routed-48.corpus.bin").read_bytes()
        caida_faulty = (output / "caida-routed-48.corpus.bin").read_bytes()
        assert caida_serial == caida_faulty

    def test_zero_fault_spec_is_byte_identical(self, study_dir, tmp_path):
        output = tmp_path / "zero-faults"
        code = main(
            [
                "study",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output-dir", str(output),
                "--faults", "",
            ]
        )
        assert code == 0
        assert (study_dir / "ntp-pool.corpus.bin").read_bytes() == (
            output / "ntp-pool.corpus.bin"
        ).read_bytes()


class TestMetricsExport:
    def test_study_writes_json_snapshot(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "study",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output-dir", str(tmp_path / "out"),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        document = json.loads(metrics_path.read_text())
        assert document["format"] == "repro-metrics-v1"
        assert document["counters"]["repro_campaign_queries_total"] > 0
        assert "ntp-collection" in document["spans"]
        # The CLI's own stages are recorded too.
        assert "table1-comparison" in document["spans"]
        assert "save-corpora" in document["spans"]

    def test_report_writes_prometheus_text(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "report",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output", str(tmp_path / "report.txt"),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_campaign_queries_total counter" in text
        assert "repro_span_analysis_report_seconds_count 1" in text

    def test_log_level_gates_stderr_chatter(self, tmp_path, capsys):
        args = [
            "study",
            "--seed", "3",
            "--weeks", "10",
            "--scale", "tiny",
            "--output-dir", str(tmp_path / "out"),
        ]
        assert main(["--log-level", "error"] + args) == 0
        assert "world:" not in capsys.readouterr().err
        assert main(["--log-level", "info"] + args) == 0
        assert "world:" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_saved_corpus(self, study_dir, capsys):
        code = main(["analyze", str(study_dir / "ntp-pool.corpus.bin")])
        assert code == 0
        out = capsys.readouterr().out
        assert "seen once" in out
        assert "EUI-64" in out


class TestReleaseCommand:
    def test_release_roundtrip(self, study_dir, tmp_path, capsys):
        output = tmp_path / "release.csv"
        code = main(
            [
                "release",
                str(study_dir / "ntp-pool.corpus.bin"),
                "--output", str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "prefix,addresses" in text
        assert "/48," in text

    def test_release_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty.corpus.bin"
        save_corpus(AddressCorpus("empty"), empty)
        output = tmp_path / "release.csv"
        code = main(["release", str(empty), "--output", str(output)])
        assert code == 0
        assert "prefix,addresses" in output.read_text()


class TestFlagUnification:
    """ISSUE 5 satellite: unified flags + argparse round-trip.

    Every subcommand accepts ``--seed`` (same position, same type);
    ``--segment-dir``/``--segment-bytes`` exist wherever campaigns run
    (study and report), and parsing a canonical argv round-trips.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "--seed", "11"],
            ["report", "--seed", "11"],
            ["analyze", "--seed", "11", "c.bin"],
            ["release", "--seed", "11", "c.bin"],
            ["matrix", "--seed", "11", "spec.json", "--dir", "sweep"],
        ],
    )
    def test_every_subcommand_accepts_seed_first(self, argv):
        args = build_parser().parse_args(argv)
        assert args.seed == 11

    @pytest.mark.parametrize("command", ["study", "report"])
    def test_segment_options_on_campaign_commands(self, command):
        args = build_parser().parse_args(
            [
                command,
                "--segment-dir", "segments",
                "--segment-bytes", "8192",
            ]
        )
        assert args.segment_dir == "segments"
        assert args.segment_bytes == 8192

    def test_segment_options_default_off(self):
        args = build_parser().parse_args(["study"])
        assert args.segment_dir is None
        assert args.segment_bytes == 4 * 1024 * 1024

    def test_argparse_round_trip(self):
        """Parse → rebuild argv → reparse: an identical namespace."""
        argv = [
            "study",
            "--seed", "5",
            "--weeks", "12",
            "--scale", "tiny",
            "--output-dir", "out",
            "--workers", "3",
            "--segment-dir", "segments",
            "--segment-bytes", "8192",
            "--faults", "flap=0.1,seed=2",
            "--max-shard-retries", "4",
            "--metrics-out", "m.json",
        ]
        first = build_parser().parse_args(argv)
        rebuilt = [
            "study",
            "--seed", str(first.seed),
            "--weeks", str(first.weeks),
            "--scale", first.scale,
            "--output-dir", first.output_dir,
            "--workers", str(first.workers),
            "--segment-dir", first.segment_dir,
            "--segment-bytes", str(first.segment_bytes),
            "--faults", first.faults,
            "--max-shard-retries", str(first.max_shard_retries),
            "--metrics-out", first.metrics_out,
        ]
        second = build_parser().parse_args(rebuilt)
        assert vars(first) == vars(second)


class TestSegmentedStudyCommand:
    def test_segmented_study_matches_serial_bytes(self, study_dir, tmp_path):
        output = tmp_path / "segmented"
        seg_dir = tmp_path / "segments"
        code = main(
            [
                "study",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output-dir", str(output),
                "--workers", "2",
                "--segment-dir", str(seg_dir),
                "--segment-bytes", "8192",
            ]
        )
        assert code == 0
        serial = (study_dir / "ntp-pool.corpus.bin").read_bytes()
        segmented = (output / "ntp-pool.corpus.bin").read_bytes()
        assert serial == segmented
        assert (seg_dir / "MANIFEST.json").exists()

    def test_analyze_and_release_accept_segment_dir(
        self, study_dir, tmp_path, capsys
    ):
        seg_dir = tmp_path / "segments"
        code = main(
            [
                "study",
                "--seed", "3",
                "--weeks", "10",
                "--scale", "tiny",
                "--output-dir", str(tmp_path / "out"),
                "--segment-dir", str(seg_dir),
            ]
        )
        assert code == 0
        assert main(["analyze", str(seg_dir)]) == 0
        assert "seen once" in capsys.readouterr().out
        release_out = tmp_path / "release.csv"
        code = main(
            ["release", str(seg_dir), "--output", str(release_out)]
        )
        assert code == 0
        assert "prefix,addresses" in release_out.read_text()


    def test_resume_continues_to_uninterrupted_bytes(self, tmp_path):
        """A 10-week store resumed to 12 weeks equals a fresh 12-week run."""
        seg_dir = tmp_path / "segments"
        common = ["study", "--seed", "3", "--scale", "tiny", "--workers", "2"]
        assert main(
            common + [
                "--weeks", "10",
                "--segment-dir", str(seg_dir),
                "--output-dir", str(tmp_path / "first"),
            ]
        ) == 0
        assert main(
            common + [
                "--weeks", "12",
                "--segment-dir", str(seg_dir),
                "--resume",
                "--output-dir", str(tmp_path / "resumed"),
            ]
        ) == 0
        assert main(
            common + ["--weeks", "12", "--output-dir", str(tmp_path / "fresh")]
        ) == 0
        resumed = (tmp_path / "resumed" / "ntp-pool.corpus.bin").read_bytes()
        fresh = (tmp_path / "fresh" / "ntp-pool.corpus.bin").read_bytes()
        assert resumed == fresh


def committed_store(directory, weeks):
    """A segment store whose manifest watermark stands at ``weeks``."""
    corpus = AddressCorpus("ntp-pool")
    corpus.record(0x2001 << 112 | 1, 100.0)
    store = SegmentStore(directory, name="ntp-pool")
    meta = store.write_segment(
        corpus, segment_id="w0", start_day=0, end_day=7 * weeks
    )
    store.commit([meta], completed_weeks=weeks)
    return directory


class TestSegmentStoreRefusals:
    """Refusals of a --segment-dir run are flag errors, not tracebacks."""

    def test_existing_store_without_resume_exits(self, tmp_path, capsys):
        seg_dir = committed_store(tmp_path / "segments", weeks=10)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "study", "--weeks", "10",
                    "--segment-dir", str(seg_dir),
                    "--output-dir", str(tmp_path / "out"),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "already holds a committed manifest" in err
        assert "--resume" in err
        assert not (tmp_path / "out").exists()

    def test_resume_past_weeks_exits(self, tmp_path, capsys):
        seg_dir = committed_store(tmp_path / "segments", weeks=12)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "report", "--weeks", "10",
                    "--segment-dir", str(seg_dir),
                    "--resume",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "covers 12 weeks" in err
        assert "--weeks 10" in err


class TestBadInputExits:
    """A torn manifest or a truncated corpus is bad input: exit 2 with
    one log line naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "--weeks", "10", "--resume", "--segment-dir", "{dir}",
             "--output-dir", "{out}"],
            ["analyze", "{dir}"],
            ["release", "{dir}", "--output", "{out}"],
            ["serve", "{dir}", "--build-only"],
            ["serve", "{dir}"],
            ["serve", "{dir}", "--serve-workers", "2"],
        ],
        ids=lambda argv: " ".join(a for a in argv if "{" not in a),
    )
    def test_a_torn_manifest_exits_2_naming_it(self, tmp_path, capsys, argv):
        seg_dir = committed_store(tmp_path / "segments", weeks=10)
        manifest = seg_dir / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[:-20])
        out = tmp_path / "out"
        code = main(
            [arg.format(dir=seg_dir, out=out) for arg in argv]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unreadable input: unreadable segment manifest" in err
        assert str(manifest) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "release"])
    def test_a_truncated_corpus_exits_2_naming_it(
        self, study_dir, tmp_path, capsys, command
    ):
        whole = (study_dir / "ntp-pool.corpus.bin").read_bytes()
        cut = tmp_path / "ntp-pool.corpus.bin"
        cut.write_bytes(whole[: len(whole) // 2])
        out = tmp_path / "release.csv"
        argv = [command, str(cut)]
        if command == "release":
            argv += ["--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"in {cut}" in err
        assert "at byte offset" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestAtomicOutputs:
    """``--output`` and ``--report`` files are published whole or not
    at all."""

    def test_a_release_write_failing_midway_keeps_the_previous_file(
        self, study_dir, tmp_path, monkeypatch
    ):
        corpus = str(study_dir / "ntp-pool.corpus.bin")
        output = tmp_path / "release.csv"
        assert main(["release", corpus, "--output", str(output)]) == 0
        previous = output.read_bytes()
        assert b"\r\n" not in previous
        output.write_bytes(previous + b"# an earlier release\n")
        previous = output.read_bytes()

        def fail(fd):
            raise OSError("device lost mid-write")

        # The new bytes are in the temp file; the publish never happens.
        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="mid-write"):
            main(["release", corpus, "--output", str(output)])
        assert output.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "release.csv"
        ]


class TestMatrixCommand:
    MICRO = {
        "n_home_networks": 30,
        "n_cellular_subscribers": 20,
        "n_hosting_networks": 6,
    }

    def write_spec(self, tmp_path, **extra):
        doc = {
            "presets": "tiny",
            "overrides": [self.MICRO],
            "faults": [None, "flap=0.3,loss=0.05,seed=9"],
            "weeks": 1,
            "seeds": [0],
        }
        doc.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_matrix_parser_options(self):
        args = build_parser().parse_args(
            [
                "matrix", "spec.json",
                "--dir", "sweep",
                "--resume",
                "--matrix-workers", "3",
                "--cell-timeout", "12.5",
                "--max-cell-retries", "2",
                "--report", "report.txt",
            ]
        )
        assert args.spec == "spec.json"
        assert args.dir == "sweep"
        assert args.resume is True
        assert args.matrix_workers == 3
        assert args.cell_timeout == 12.5
        assert args.max_cell_retries == 2
        assert args.report == "report.txt"

    def test_matrix_sweep_runs_and_reports(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        sweep_dir = tmp_path / "sweep"
        metrics_out = tmp_path / "metrics.json"
        code = main(
            [
                "matrix", str(spec),
                "--dir", str(sweep_dir),
                "--metrics-out", str(metrics_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario matrix report" in out
        assert "records by faults" in out
        manifest = json.loads((sweep_dir / "MATRIX.json").read_text())
        statuses = [
            cell["status"] for cell in manifest["cells"].values()
        ]
        assert statuses == ["ok", "ok"]
        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["repro_matrix_cells_ok_total"] == 2

    def test_matrix_refuses_rerun_without_resume(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, faults=[None], seeds=[0])
        sweep_dir = tmp_path / "sweep"
        assert main(["matrix", str(spec), "--dir", str(sweep_dir)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", str(spec), "--dir", str(sweep_dir)])
        assert excinfo.value.code == 2
        assert "resume" in capsys.readouterr().err

    def test_matrix_resume_skips_completed(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, faults=[None], seeds=[0])
        sweep_dir = tmp_path / "sweep"
        assert main(["matrix", str(spec), "--dir", str(sweep_dir)]) == 0
        capsys.readouterr()
        code = main(
            ["matrix", str(spec), "--dir", str(sweep_dir), "--resume"]
        )
        assert code == 0
        assert "(resumed)" in capsys.readouterr().out

    def test_matrix_bad_spec_exits(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"presets": ["tiny"], "bogus_axis": [1]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", str(bad), "--dir", str(tmp_path / "sweep")])
        assert excinfo.value.code == 2
        assert "bogus_axis" in capsys.readouterr().err

    def test_matrix_report_to_file(self, tmp_path):
        spec = self.write_spec(tmp_path, faults=[None], seeds=[0])
        report = tmp_path / "matrix-report.txt"
        code = main(
            [
                "matrix", str(spec),
                "--dir", str(tmp_path / "sweep"),
                "--report", str(report),
            ]
        )
        assert code == 0
        assert "scenario matrix report" in report.read_text()
