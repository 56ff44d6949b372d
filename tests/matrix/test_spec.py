"""Tests for repro.matrix.spec — expansion and validate-before-run."""

import json

import pytest

from repro.core.study import CAIDA_LAST_WEEK
from repro.matrix import (
    CellSpec,
    MatrixSpec,
    expand_and_validate,
    validate_cell,
)


def cell(**kwargs):
    defaults = dict(
        index=0,
        preset="tiny",
        overrides=(),
        faults=None,
        weeks=1,
        workers=1,
        seed=0,
    )
    defaults.update(kwargs)
    return CellSpec(**defaults)


class TestExpansion:
    def test_cartesian_product_size_and_order(self):
        spec = MatrixSpec(
            presets=("tiny", "small"),
            faults=(None, "flap=0.2"),
            seeds=(0, 1, 2),
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 3
        assert [c.index for c in cells] == list(range(12))
        # Seeds vary fastest, presets slowest (fixed axis order).
        assert [c.seed for c in cells[:3]] == [0, 1, 2]
        assert all(c.preset == "tiny" for c in cells[:6])
        assert all(c.preset == "small" for c in cells[6:])

    def test_expansion_is_deterministic(self):
        spec = MatrixSpec(seeds=(0, 1), faults=(None, "flap=0.1"))
        first = [c.cell_id for c in spec.expand()]
        second = [c.cell_id for c in spec.expand()]
        assert first == second

    def test_cell_ids_distinguish_parameters(self):
        ids = {c.cell_id for c in MatrixSpec(seeds=(0, 1, 2)).expand()}
        assert len(ids) == 3

    def test_overrides_are_canonically_ordered(self):
        a = MatrixSpec(overrides=({"seed": 1, "n_home_networks": 5},))
        b = MatrixSpec(overrides=({"n_home_networks": 5, "seed": 1},))
        assert a.digest() == b.digest()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            MatrixSpec(seeds=())


class TestJson:
    def test_round_trip_preserves_digest(self):
        spec = MatrixSpec(
            presets=("tiny",),
            overrides=({"n_home_networks": 30},),
            faults=(None, "flap=0.2,seed=9"),
            weeks=(1, 2),
            seeds=(0, 1),
        )
        doc = json.loads(json.dumps(spec.to_json()))
        assert MatrixSpec.from_json(doc).digest() == spec.digest()

    def test_scalars_are_wrapped_to_axes(self):
        spec = MatrixSpec.from_json(
            {"presets": "tiny", "weeks": 2, "seeds": 5}
        )
        assert spec.presets == ("tiny",)
        assert spec.weeks == (2,)
        assert spec.seeds == (5,)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            MatrixSpec.from_json({"presets": ["tiny"], "bogus": [1]})

    def test_non_object_spec_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            MatrixSpec.from_json(["tiny"])

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            MatrixSpec.from_file(path)


class TestValidation:
    def test_feasible_cell_passes(self):
        assert validate_cell(cell()) == []

    def test_unknown_preset(self):
        reasons = validate_cell(cell(preset="galactic"))
        assert any("galactic" in reason for reason in reasons)

    def test_zero_weeks(self):
        assert any(
            "weeks" in reason for reason in validate_cell(cell(weeks=0))
        )

    def test_study_pipeline_needs_caida_span(self):
        short = cell(pipeline="study", weeks=CAIDA_LAST_WEEK - 1)
        assert any(
            "study" in reason for reason in validate_cell(short)
        )
        long_enough = cell(pipeline="study", weeks=CAIDA_LAST_WEEK)
        assert validate_cell(long_enough) == []

    def test_unknown_pipeline(self):
        assert any(
            "pipeline" in reason
            for reason in validate_cell(cell(pipeline="dance"))
        )

    def test_zero_workers(self):
        assert any(
            "workers" in reason
            for reason in validate_cell(cell(workers=0))
        )

    def test_unknown_override_field(self):
        bad = cell(overrides=(("warp_factor", 9),))
        assert any(
            "warp_factor" in reason for reason in validate_cell(bad)
        )

    def test_unbuildable_world_config(self):
        # Too few fixed ASes: WorldConfig's own validation must surface
        # as a rejection reason, not an exception.
        bad = cell(overrides=(("n_fixed_ases", 1),))
        reasons = validate_cell(bad)
        assert any("world config rejected" in reason for reason in reasons)

    @pytest.mark.parametrize(
        "spec", ["flap=2.0", "bogus=1", "flap=0.2,flap=0.3"]
    )
    def test_bad_fault_spec(self, spec):
        reasons = validate_cell(cell(faults=spec))
        assert any("fault spec" in reason for reason in reasons)

    def test_all_reasons_collected(self):
        bad = cell(preset="galactic", weeks=0, faults="flap=2.0")
        assert len(validate_cell(bad)) >= 3


class TestExpandAndValidate:
    def test_partition(self):
        spec = MatrixSpec(
            presets=("tiny", "galactic"), faults=(None, "flap=2.0")
        )
        runnable, rejected = expand_and_validate(spec)
        assert len(runnable) == 1
        assert len(rejected) == 3
        assert runnable[0].preset == "tiny"
        assert runnable[0].faults is None
        for rejection in rejected:
            assert rejection.reasons
            assert rejection.params

    def test_rejection_indices_match_expansion(self):
        spec = MatrixSpec(presets=("galactic",), seeds=(0, 1))
        _, rejected = expand_and_validate(spec)
        assert [r.index for r in rejected] == [0, 1]
