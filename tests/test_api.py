"""Tests for the repro.api facade and the execution-options surface.

Pins the two API promises: ``from repro.api import Study`` round-trips
the README quickstart, and execution options travel only in one
:class:`ExecutionOptions` value — loose execution keywords
(``StudyConfig(start=..., workers=...)``) are a ``TypeError``.
"""

import io

import pytest

from repro.api import Study, open_corpus, release
from repro.core import (
    AddressCorpus,
    ExecutionOptions,
    SegmentStore,
    StudyConfig,
    run_study,
    save_corpus,
)
from repro.core.storage import save_corpus_binary
from repro.obs import MetricsRegistry
from repro.world import CAMPAIGN_EPOCH, WorldConfig, build_world

WORLD_CONFIG = WorldConfig(
    seed=7,
    n_fixed_ases=10,
    n_cellular_ases=4,
    n_hosting_ases=4,
    n_home_networks=120,
    n_cellular_subscribers=80,
    n_hosting_networks=12,
)


@pytest.fixture(scope="module")
def api_world():
    return build_world(WORLD_CONFIG)


@pytest.fixture(scope="module")
def api_results(api_world):
    return Study(seed=7, weeks=10, world=api_world).run()


def corpus_bytes(corpus) -> bytes:
    buffer = io.BytesIO()
    save_corpus_binary(corpus, buffer)
    return buffer.getvalue()


class TestStudyFacade:
    def test_quickstart_round_trip(self, api_results):
        """The README quickstart: Study(seed=...).run() yields corpora."""
        assert len(api_results.ntp) > 0
        assert api_results.corpora()[0] is api_results.ntp

    def test_equals_explicit_config_pipeline(self, api_world, api_results):
        explicit = run_study(
            api_world, StudyConfig(start=CAMPAIGN_EPOCH, weeks=10, seed=7)
        )
        assert corpus_bytes(explicit.ntp) == corpus_bytes(api_results.ntp)

    def test_world_built_from_config_lazily_and_cached(self):
        study = Study(seed=7, weeks=10, world_config=WORLD_CONFIG)
        assert study.world() is study.world()

    def test_execution_options_thread_through(self, api_world, tmp_path):
        results = Study(
            seed=7,
            weeks=10,
            world=api_world,
            execution=ExecutionOptions(
                segment_dir=str(tmp_path / "segments"), segment_bytes=8192
            ),
        ).run()
        assert (tmp_path / "segments" / "MANIFEST.json").exists()
        assert len(results.ntp) > 0

    def test_rejects_world_and_world_config_together(self, api_world):
        with pytest.raises(TypeError, match="not both"):
            Study(world=api_world, world_config=WORLD_CONFIG)

    def test_rejects_wrong_execution_type(self):
        with pytest.raises(TypeError, match="ExecutionOptions"):
            Study(execution={"workers": 2})

    def test_validates_eagerly_at_construction(self):
        with pytest.raises(ValueError, match="at least"):
            Study(weeks=3)


class TestOpenCorpus:
    def test_opens_saved_file(self, tmp_path):
        corpus = AddressCorpus("saved")
        corpus.record(99, 1.0)
        path = tmp_path / "saved.corpus.bin"
        save_corpus(corpus, path)
        loaded = open_corpus(path)
        assert corpus_bytes(loaded) == corpus_bytes(corpus)

    def test_opens_segment_directory_and_manifest_path(self, tmp_path):
        corpus = AddressCorpus("seg")
        for n in range(5):
            corpus.record(1000 + n, float(n))
        store = SegmentStore(tmp_path, name="seg")
        meta = store.write_segment(
            corpus, segment_id="only", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1)
        via_dir = open_corpus(tmp_path)
        via_manifest = open_corpus(tmp_path / "MANIFEST.json")
        assert corpus_bytes(via_dir) == corpus_bytes(corpus)
        assert corpus_bytes(via_manifest) == corpus_bytes(corpus)

    def test_segment_directory_is_folded_from_its_partials(self, tmp_path):
        corpus = AddressCorpus("seg")
        for n in range(5):
            corpus.record(1000 + n, float(n))
        store = SegmentStore(tmp_path, name="seg")
        meta = store.write_segment(
            corpus, segment_id="only", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1)
        store.segment_path(meta).unlink()  # only the .idx partial is left
        registry = MetricsRegistry()
        loaded = open_corpus(tmp_path, metrics=registry)
        assert corpus_bytes(loaded) == corpus_bytes(corpus)
        assert registry.counter_value(
            "repro_index_segments_reused_total"
        ) == 1
        assert loaded.index.addresses == list(corpus.addresses())


class TestRelease:
    def test_release_accepts_corpus_and_path(self, tmp_path):
        corpus = AddressCorpus("rel")
        corpus.record(0x2001 << 112 | 0xABCD, 1.0)
        artifact = release(corpus)
        assert artifact.prefix_count == 1
        path = tmp_path / "rel.corpus.bin"
        save_corpus(corpus, path)
        assert release(path).prefix_counts == artifact.prefix_counts


class TestExecutionSurface:
    def test_study_config_rejects_loose_execution_keywords(self):
        with pytest.raises(TypeError, match="workers"):
            StudyConfig(start=CAMPAIGN_EPOCH, weeks=10, workers=2)

    def test_run_study_rejects_loose_execution_keywords(self, api_world):
        config = StudyConfig(start=CAMPAIGN_EPOCH, weeks=10, seed=7)
        with pytest.raises(TypeError, match="build_index"):
            run_study(api_world, config, build_index=False)

    def test_study_config_has_no_execution_attributes(self):
        config = StudyConfig(
            start=CAMPAIGN_EPOCH,
            weeks=10,
            execution=ExecutionOptions(workers=3),
        )
        assert config.execution.workers == 3
        assert not hasattr(config, "workers")


class TestExecutionOptionsValidation:
    def test_resume_from_segments_needs_segment_dir(self):
        with pytest.raises(ValueError, match="segment_dir"):
            ExecutionOptions(resume_from_segments=True)

    def test_rejects_bad_segment_budget(self):
        with pytest.raises(ValueError, match="byte budget"):
            ExecutionOptions(segment_bytes=0)
