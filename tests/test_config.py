import json
import os

import numpy as np
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
from voxaug.nifti import write_volume
from voxaug.volume import LabelMap, Volume

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


_WRONG_TYPES = {
    "max_deg-string": (
        {"pipeline": [{"kind": "rotation", "max_deg": "30"}]},
        "rotation max_deg must be one of (15.0, 30.0, 60.0, 90.0), got '30'",
    ),
    "max_frac-string": (
        {"pipeline": [{"kind": "scale", "max_frac": "0.1"}]},
        "scale max_frac must be one of (0.1, 0.2), got '0.1'",
    ),
    "sigma-string": (
        {"pipeline": [{"kind": "elastic", "sigma": "2"}]},
        "elastic sigma must be one of (2.0, 5.0, 8.0, 10.0), got '2'",
    ),
    "channel_suffixes-ints": (
        {"channel_suffixes": [1, 2]},
        "channel_suffixes must be unique strings, got [1, 2]",
    ),
    "channel_suffixes-string": (
        {"channel_suffixes": "_t1"},
        "channel_suffixes must be unique strings, got '_t1'",
    ),
    "label_suffix-int": ({"label_suffix": 5}, "label_suffix must be a nonempty string, got 5"),
    "probability-string": (
        {"pipeline": [{"kind": "flip", "probability": "0.5"}]},
        "probability must be a number in [0, 1], got '0.5'",
    ),
    "probability-null": (
        {"pipeline": [{"kind": "flip", "probability": None}]},
        "probability must be a number in [0, 1], got None",
    ),
    "input_dir-int": ({"input_dir": 5}, "input_dir must be a string or null, got 5"),
    "output_dir-list": ({"output_dir": ["a"]}, "output_dir must be a string or null, got ['a']"),
    "patch_shape-int": ({"patch_shape": 5}, "patch_shape must be three whole numbers >= 1, got 5"),
    "pipeline-null": ({"pipeline": None}, "pipeline must be a list of AugmentSpec objects, got None"),
    "pipeline-int-entry": ({"pipeline": [5]}, "pipeline must be a list of AugmentSpec objects, got [5]"),
    "pipeline-string": ({"pipeline": "ab"}, "pipeline must be a list of AugmentSpec objects, got 'ab'"),
    "pipeline-object": (
        {"pipeline": {"kind": "flip"}},
        "pipeline must be a list of AugmentSpec objects, got {'kind': 'flip'}",
    ),
    "spec-without-kind": (
        {"pipeline": [{"probability": 0.5}]},
        "augmentation spec is missing required field 'kind'",
    ),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_wrong_json_type_rejected_not_coerced(tmp_path, case):
    fields, message = _WRONG_TYPES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 0, **fields}))
    with pytest.raises(ValueError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_wrong_json_type_is_one_error_line(tmp_path, capsys, case):
    fields, message = _WRONG_TYPES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 0, **fields}))
    out = tmp_path / "o"
    code = main(["augment", "--config", str(path), "--in", str(tmp_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


_TAILS = "channel_suffixes and label_suffix must be nonempty and none a string tail of another"
_SHARED_TAILS = {
    "channel-empty": ({"channel_suffixes": [""]}, f"{_TAILS}, got '', a tail of '_seg'"),
    "channel-tail-of-channel": (
        {"channel_suffixes": ["1", "_t1"]},
        f"{_TAILS}, got '1', a tail of '_t1'",
    ),
    "channel-tail-of-label": (
        {"channel_suffixes": ["eg"], "label_suffix": "_seg"},
        f"{_TAILS}, got 'eg', a tail of '_seg'",
    ),
}


@pytest.mark.parametrize("case", sorted(_SHARED_TAILS))
def test_suffix_that_is_a_tail_of_another_rejected(tmp_path, case):
    """A suffix that ends another lets one file name belong to two subjects
    (``s`` + ``_seg`` and ``s_seg`` + ``""``), so two subjects could write
    one output file."""
    fields, message = _SHARED_TAILS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 0, **fields}))
    with pytest.raises(ValueError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_empty_channel_suffix_fails_before_two_subjects_write_one_file(tmp_path, capsys):
    """With ``channel_suffixes: [""]`` the label file ``s_seg`` would also
    be a subject, and both subjects would write ``s_seg.nii.gz``; the config
    is refused with one ``error:`` line and nothing is written."""
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    write_volume(Volume(np.ones((6, 6, 6), np.float32)), cohort / "s.nii.gz")
    write_volume(LabelMap(np.zeros((6, 6, 6), np.uint8)), cohort / "s_seg.nii.gz")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 0, "patch_shape": [4, 4, 4], "channel_suffixes": [""]}))
    out = tmp_path / "o"
    code = main(["augment", "--config", str(path), "--in", str(cohort), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {_SHARED_TAILS['channel-empty'][1]}\n"
    assert not out.exists()


def test_numbers_of_either_json_type_still_accepted():
    """A menu value written as an int is stored as the float it equals, so
    existing configs load, save and record provenance as before."""
    spec = AugmentSpec.from_dict({"kind": "rotation", "max_deg": 30, "probability": 1})
    assert spec.max_deg == 30.0 and isinstance(spec.max_deg, float)
    assert spec.to_dict() == {"kind": "rotation", "probability": 1.0, "max_deg": 30.0}
    cfg = PipelineConfig.from_dict({"seed": 0, "channel_suffixes": ("_a", "_b")})
    assert cfg.channel_suffixes == ("_a", "_b")


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
