import json
import os

import pytest

from voxaug.augment import AugmentSpec
from voxaug.cli import main
from voxaug.config import (
    DEFAULT_CHANNEL_SUFFIXES,
    DEFAULT_PATCH_SHAPE,
    PipelineConfig,
    load_config,
    save_config,
)

_SPECS = (
    AugmentSpec(kind="flip"),
    AugmentSpec(kind="rotation", max_deg=30.0),
    AugmentSpec(kind="scale", max_frac=0.10),
    AugmentSpec(kind="brightness"),
    AugmentSpec(kind="elastic", sigma=2.0),
)


def test_defaults():
    cfg = PipelineConfig(seed=7)
    assert cfg.patch_shape == DEFAULT_PATCH_SHAPE
    assert cfg.channel_suffixes == DEFAULT_CHANNEL_SUFFIXES
    assert cfg.label_suffix == "_seg"
    assert cfg.pipeline == ()
    assert len(cfg.to_pipeline()) == 0


def test_dict_round_trip():
    cfg = PipelineConfig(
        seed=42,
        pipeline=_SPECS,
        patch_shape=(32, 32, 32),
        input_dir="in",
        output_dir="out",
    )
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_save_load_round_trip(tmp_path):
    cfg = PipelineConfig(seed=11, pipeline=_SPECS, patch_shape=(48, 48, 40))
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # stable serialization: keys sorted, trailing newline
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["seed"] == 11


def _failing_replace(src, dst):
    raise OSError("disk gone")


def test_failed_save_leaves_previous_config_intact(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=1), path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        save_config(PipelineConfig(seed=2, pipeline=_SPECS), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown config fields.*gamma"):
        PipelineConfig.from_dict({"seed": 1, "gamma": 2.0})


def test_missing_seed_rejected():
    with pytest.raises(ValueError, match="missing required field 'seed'"):
        PipelineConfig.from_dict({"pipeline": []})


def test_seed_must_be_integer():
    with pytest.raises(ValueError, match="seed must be an integer"):
        PipelineConfig(seed="7")
    with pytest.raises(ValueError, match="seed must be an integer"):
        PipelineConfig(seed=True)


def test_patch_shape_validation():
    with pytest.raises(ValueError, match="patch_shape"):
        PipelineConfig(seed=0, patch_shape=(32, 32))
    with pytest.raises(ValueError, match="patch_shape"):
        PipelineConfig(seed=0, patch_shape=(32, 0, 32))


def test_patch_shape_whole_floats_accepted():
    assert PipelineConfig(seed=0, patch_shape=(32.0, 16, 8)).patch_shape == (32, 16, 8)


_PATCH = "patch_shape must be three whole numbers >= 1"
_GRID = "elastic grid_size must be a whole number"


def _elastic(grid_size):
    return {"pipeline": [{"kind": "elastic", "sigma": 2.0, "grid_size": grid_size}]}


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"patch_shape": [128.5, 64.9, 32]}, _PATCH),
        ({"patch_shape": [True, True, True]}, _PATCH),
        (_elastic(4.7), _GRID),
        (_elastic(True), _GRID),
    ],
)
def test_non_integral_sizes_rejected_not_truncated(tmp_path, capsys, fields, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 0, **fields}))
    with pytest.raises(ValueError, match=f"cfg.json: {message}"):
        load_config(path)
    out = tmp_path / "o"
    code = main(["augment", "--config", str(path), "--in", str(tmp_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_suffix_validation():
    with pytest.raises(ValueError, match="channel_suffixes"):
        PipelineConfig(seed=0, channel_suffixes=())
    with pytest.raises(ValueError, match="channel_suffixes"):
        PipelineConfig(seed=0, channel_suffixes=("_t1", "_t1"))
    with pytest.raises(ValueError, match="label_suffix"):
        PipelineConfig(seed=0, channel_suffixes=("_t1",), label_suffix="_t1")


def test_load_invalid_json_names_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="broken.json: invalid JSON"):
        load_config(path)


def test_load_non_object_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_config(path)


def test_load_bad_spec_propagates_with_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "pipeline": [{"kind": "warp"}]}))
    with pytest.raises(ValueError, match="cfg.json"):
        load_config(path)


def test_pipeline_entries_must_be_specs():
    with pytest.raises(ValueError, match="AugmentSpec"):
        PipelineConfig(seed=0, pipeline=({"kind": "flip"},))
