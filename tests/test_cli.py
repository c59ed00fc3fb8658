"""End-to-end command-line tests, run in-process through cli.main."""

import contextlib
import gzip
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

import voxaug.cli
from voxaug import interp, nifti, volume
from voxaug.augment import AugmentSpec
from voxaug.cli import _thread_count, main
from voxaug.config import PipelineConfig, save_config
from voxaug.nifti import _build_header, read_volume, write_volume
from voxaug.rng import RandomStream
from voxaug.tables import read_metrics
from voxaug.volume import LabelMap, make_phantom


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def phantom_dir(tmp_path, capsys):
    d = tmp_path / "subjects"
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "2", "--shape", "24,24,24", "--out", str(d)
    )
    assert code == 0, err
    return d


@pytest.fixture()
def config_path(tmp_path):
    cfg = PipelineConfig(
        seed=3,
        pipeline=(
            AugmentSpec(kind="flip", probability=1.0),
            AugmentSpec(kind="brightness", probability=1.0),
        ),
        patch_shape=(16, 16, 16),
    )
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    return path


# --- phantom ----------------------------------------------------------------

def test_phantom_writes_five_files_per_subject(phantom_dir):
    names = sorted(p.name for p in phantom_dir.iterdir())
    expected = sorted(
        f"phantom{i:03d}{suffix}.nii.gz"
        for i in (0, 1)
        for suffix in ("_t1", "_t1ce", "_t2", "_flair", "_seg")
    )
    assert names == expected


def test_phantom_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, _, _ = run(capsys, "phantom", "--seed", "9", "--out", str(d), "--shape", "16,16,16")
        assert code == 0
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_phantom_files_keep_their_digest(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    out = tmp_path / "p"
    code, _, err = run(
        capsys, "phantom", "--seed", "9", "--count", "2", "--shape", "24,22,20", "--out", str(out)
    )
    assert code == 0, err
    digest = hashlib.sha256()
    for p in sorted(out.iterdir(), key=lambda p: p.name):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == "8ffc6992c170027a2933671a08469907ff0764ee016c0ffa07d3e2247b913184"


# The pin above hashes .nii.gz bytes written by zlib 1.2.13
# (zlib.ZLIB_RUNTIME_VERSION); another deflate implementation, such as
# zlib-ng, encodes the same voxels in other bytes. This pin hashes what
# voxaug computes: each decoded file, its 352-byte header and its voxels.
@pytest.mark.parametrize("strategy", [None, "default"], ids=["rle", "default-strategy"])
def test_phantom_files_keep_their_decoded_digest(tmp_path, capsys, monkeypatch, strategy):
    if strategy is not None:  # another deflate encoding of the same content
        monkeypatch.setattr(nifti, "_DEFLATE", nifti._DEFLATE[:4] + (zlib.Z_DEFAULT_STRATEGY,))
    out = tmp_path / "p"
    code, _, err = run(
        capsys, "phantom", "--seed", "9", "--count", "2", "--shape", "24,22,20", "--out", str(out)
    )
    assert code == 0, err
    digest, decoded = hashlib.sha256(), hashlib.sha256()
    for p in sorted(out.iterdir(), key=lambda p: p.name):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
        decoded.update(p.name.encode() + b"\0" + gzip.decompress(p.read_bytes()))
    assert decoded.hexdigest() == "3dc60bdec92643ef57a04db0749f4e272f6e7d28b44d359952fbdb8f2349fff8"
    pin = "8ffc6992c170027a2933671a08469907ff0764ee016c0ffa07d3e2247b913184"
    assert (digest.hexdigest() == pin) == (strategy is None)


def test_phantom_rejects_small_shape(tmp_path, capsys):
    code, _, err = run(capsys, "phantom", "--seed", "1", "--shape", "8,8,8", "--out", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error:") and ">= 16" in err


def test_phantom_rejects_a_shape_above_the_nifti_limit_before_building(tmp_path, capsys):
    """NIfTI-1 stores each axis length in an int16: a longer axis is refused
    up front, in one line that names the limit, not after the subject is
    built."""
    out = tmp_path / "x"
    code, _, err = run(capsys, "phantom", "--seed", "1", "--shape", "32768,16,16", "--out", str(out))
    assert code == 1
    assert err.startswith("error: --shape") and "<= 32767" in err and err.count("\n") == 1
    assert not out.exists()


# 16^3 and 17x23x29 are one slab each; 64x64x20 is three slabs of 8, 8 and 4
# z-planes; a 200x180 plane is more than a slab's voxels, so each slab is one
_PHANTOM_SHAPES = [(16, 16, 16), (17, 23, 29), (64, 64, 20), (200, 180, 17)]


def test_phantom_shapes_cover_partial_and_single_plane_slabs():
    assert 20 % (volume._PHANTOM_SLAB // (64 * 64)) != 0
    assert 200 * 180 > volume._PHANTOM_SLAB


@pytest.mark.parametrize("shape", _PHANTOM_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_phantom_files_are_write_volume_of_make_phantom(tmp_path, capsys, shape):
    """``voxaug phantom`` writes its subjects from NIfTI-ordered arrays with
    no transposing copy; its files are byte for byte those that
    ``write_volume`` writes from ``make_phantom``'s x-first arrays."""
    out = tmp_path / "cli"
    code, _, err = run(capsys, "phantom", "--seed", "4", "--count", "2",
                       "--shape", ",".join(map(str, shape)), "--out", str(out))
    assert code == 0, err
    batch = RandomStream(4, ("phantom-batch",))
    for index in range(2):
        subject = f"phantom{index:03d}"
        sample = make_phantom(batch.substream(index).derived_seed(), shape, subject)
        arrays = [(f"_{ch.name}", ch) for ch in sample.channels] + [("_seg", sample.labels)]
        for suffix, array in arrays:
            path = tmp_path / f"{subject}{suffix}.nii.gz"
            write_volume(array, path)
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_phantom_holds_one_subject_in_nifti_order(tmp_path, capsys, monkeypatch):
    """One 96x96x64 subject on one thread peaks (tracemalloc) within 28 B per
    voxel: its four float32 channels and labels (17 B/voxel), slab
    temporaries and a write's deflate output. It peaks at about 21; built
    on full float64 grids and transposed to write, it peaked at 65.1."""
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    argv = ["phantom", "--seed", "2", "--count", "1", "--shape", "96,96,64"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "warm"))
    assert code == 0, err
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert code == 0, err
    voxels = 96 * 96 * 64
    assert peak / voxels <= 28.0, f"{peak / voxels:.1f} B/voxel"


def test_phantom_rejects_malformed_shape(tmp_path, capsys):
    code, _, err = run(capsys, "phantom", "--seed", "1", "--shape", "a,b,c", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "must be X,Y,Z integers" in err


def test_phantom_rejects_zero_count(tmp_path, capsys):
    code, _, err = run(capsys, "phantom", "--seed", "1", "--count", "0", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "--count" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_failed_phantom_write_names_its_subject(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    write_volume = voxaug.cli.write_volume

    def failing(obj, path):
        if path.name.startswith("phantom001"):
            raise OSError("disk full")
        write_volume(obj, path)

    monkeypatch.setattr(voxaug.cli, "write_volume", failing)
    code, _, err = run(capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "16,16,16",
                       "--out", str(tmp_path / "x"))
    assert (code, err) == (1, "error: subject phantom001: disk full\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_failed_phantom_subject_leaves_none_of_its_files(tmp_path, capsys, monkeypatch, threads):
    """The third file of phantom001 fails to write: none of that subject's
    files is left, and the other subjects' are those of a clean run."""
    argv = ("phantom", "--seed", "5", "--count", "3", "--shape", "16,18,20", "--out")
    assert run(capsys, *argv, str(tmp_path / "clean"))[0] == 0
    clean = {p.name: p.read_bytes() for p in (tmp_path / "clean").iterdir()}
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    write_volume, written = voxaug.cli.write_volume, []

    def failing(obj, path):
        if path.name == "phantom001_t2.nii.gz":
            raise OSError("disk full")
        write_volume(obj, path)
        written.append(path.name)

    monkeypatch.setattr(voxaug.cli, "write_volume", failing)
    code, _, err = run(capsys, *argv, str(tmp_path / "x"))
    assert (code, err) == (1, "error: subject phantom001: disk full\n")
    assert {"phantom001_t1.nii.gz", "phantom001_t1ce.nii.gz"} <= set(written)
    left = {p.name: p.read_bytes() for p in (tmp_path / "x").iterdir()}
    assert left == {name: data for name, data in clean.items() if not name.startswith("phantom001")}
    assert len(left) == 10


# --- augment ----------------------------------------------------------------

def test_augment_outputs_and_provenance(phantom_dir, config_path, tmp_path, capsys):
    out = tmp_path / "aug"
    code, stdout, err = run(
        capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir), "--out", str(out)
    )
    assert code == 0, err
    assert "augmented 2 subjects" in stdout
    for subject in ("phantom000", "phantom001"):
        for suffix in ("_t1", "_t1ce", "_t2", "_flair", "_seg"):
            assert (out / f"{subject}{suffix}.nii.gz").exists()
        prov = json.loads((out / f"{subject}_provenance.json").read_text())
        assert prov["subject_id"] == subject
        kinds = [r["kind"] for r in prov["records"]]
        assert kinds == ["flip", "brightness"]
        assert all(r["fired"] for r in prov["records"])  # probability 1.0
        assert prov["records"][0]["params"]["axis"] in (0, 1, 2)
        assert 0.8 <= prov["records"][1]["params"]["gain"] <= 1.2


def test_augment_deterministic_across_runs(phantom_dir, config_path, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir), "--out", str(out)
        )
        assert code == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_augment_without_labels(phantom_dir, config_path, tmp_path, capsys):
    src = tmp_path / "nolabels"
    src.mkdir()
    for p in phantom_dir.iterdir():
        if "_seg" not in p.name:
            shutil.copy(p, src / p.name)
    out = tmp_path / "aug"
    code, _, err = run(
        capsys, "augment", "--config", str(config_path), "--in", str(src), "--out", str(out)
    )
    assert code == 0, err
    assert not list(out.glob("*_seg*"))
    assert (out / "phantom000_t1.nii.gz").exists()


@pytest.mark.parametrize("extra", ["nii-beside-nii-gz", "leftover-temp"])
def test_augment_reads_one_file_per_subject_and_suffix(phantom_dir, config_path, tmp_path, capsys, extra):
    """A ``.nii`` file beside a subject's ``.nii.gz`` one, holding other
    voxels, is not read: the ``.nii.gz`` one is. A killed run's temp file,
    named after a channel file, is not a subject."""
    clean = tmp_path / "clean"
    code, _, err = run(capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir),
                       "--out", str(clean))
    assert code == 0, err
    t1 = phantom_dir / "phantom000_t1.nii.gz"
    if extra == "nii-beside-nii-gz":  # the _t1 voxels under the _t2 name
        (phantom_dir / "phantom000_t2.nii").write_bytes(gzip.decompress(t1.read_bytes()))
    else:
        shutil.copy(t1, phantom_dir / "tmp.phantom009_t1.nii.gz.tmp")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir),
                            "--out", str(out))
    assert code == 0, err
    assert stdout == f"augmented 2 subjects -> {out}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in clean.iterdir()
    }


def test_augment_missing_channel_file(phantom_dir, config_path, tmp_path, capsys):
    (phantom_dir / "phantom001_t2.nii.gz").unlink()
    code, _, err = run(
        capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir),
        "--out", str(tmp_path / "aug"),
    )
    assert code == 1
    assert "error: subject phantom001: missing channel file" in err


def test_failed_batch_leaves_the_same_files_at_any_thread_count(tmp_path, capsys, monkeypatch):
    subjects = tmp_path / "subjects"
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "16,16,16",
        "--out", str(subjects),
    )
    assert code == 0, err
    (subjects / "phantom001_t2.nii.gz").unlink()
    cfg = tmp_path / "flip.json"
    flip = AugmentSpec(kind="flip", probability=1.0)
    save_config(PipelineConfig(seed=3, pipeline=(flip,), patch_shape=(16, 16, 16)), cfg)
    left = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("VOXAUG_THREADS", threads)
        out = tmp_path / f"aug{threads}"
        code, _, err = run(
            capsys, "augment", "--config", str(cfg), "--in", str(subjects), "--out", str(out)
        )
        assert code == 1
        assert "error: subject phantom001: missing channel file" in err
        left[threads] = sorted(p.name for p in out.iterdir())
    assert left["1"] == left["2"]


def test_failed_subjects_are_all_reported_in_subject_order(tmp_path, capsys, monkeypatch):
    subjects = tmp_path / "subjects"
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "16,16,16",
        "--out", str(subjects),
    )
    assert code == 0, err
    (subjects / "phantom000_t2.nii.gz").unlink()
    (subjects / "phantom002_t1ce.nii.gz").unlink()
    cfg = tmp_path / "flip.json"
    flip = AugmentSpec(kind="flip", probability=1.0)
    save_config(PipelineConfig(seed=3, pipeline=(flip,), patch_shape=(16, 16, 16)), cfg)
    for threads in ("1", "2"):
        monkeypatch.setenv("VOXAUG_THREADS", threads)
        code, _, err = run(
            capsys, "augment", "--config", str(cfg), "--in", str(subjects),
            "--out", str(tmp_path / f"aug{threads}"),
        )
        assert code == 1
        assert err == (
            "error: 2 of 3 subjects failed: "
            "subject phantom000: missing channel file phantom000_t2.nii(.gz); "
            "subject phantom002: missing channel file phantom002_t1ce.nii(.gz)\n"
        )


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("dangling", [("phantom001",), ("phantom000", "phantom002")],
                         ids=["one-subject", "two-subjects"])
def test_an_unreadable_file_is_reported_with_its_subject(tmp_path, capsys, monkeypatch,
                                                          threads, dangling):
    """A subject whose ``_t2`` file is a dangling link fails with the
    ``OSError`` of that read, named by the subject as a missing channel is:
    one subject gives one error line, two are both named in the batch line.
    A failed subject leaves no file; the others are written."""
    subjects = tmp_path / "subjects"
    code, _, err = run(capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "16,16,16",
                       "--out", str(subjects))
    assert code == 0, err
    messages = []
    for subject in dangling:
        path = subjects / f"{subject}_t2.nii.gz"
        path.unlink()
        path.symlink_to(subjects / "gone.nii.gz")
        messages.append(f"subject {subject}: [Errno 2] No such file or directory: {str(path)!r}")
    cfg = tmp_path / "flip.json"
    flip = AugmentSpec(kind="flip", probability=1.0)
    save_config(PipelineConfig(seed=3, pipeline=(flip,), patch_shape=(16, 16, 16)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    out = tmp_path / "out"
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(subjects),
                       "--out", str(out))
    assert code == 1
    if len(messages) == 1:
        assert err == f"error: {messages[0]}\n"
    else:
        assert err == f"error: {len(messages)} of 3 subjects failed: {'; '.join(messages)}\n"
    written = {p.name.split("_")[0] for p in out.iterdir()}
    assert written == {f"phantom{i:03d}" for i in range(3)} - set(dangling)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("broken", [("phantom002",), ("phantom001", "phantom002")],
                         ids=["one-subject", "two-subjects"])
def test_every_subject_fault_names_its_subject(tmp_path, capsys, monkeypatch, threads, broken):
    """A fault raised anywhere in a subject's run gets the one prefix
    ``subject <id>: ``: here a channel grid mismatch (phantom001's _t1ce
    has 18 planes) and brightness on a negative intensity (phantom002's
    _t1), which names the output file being made. One failure is its own
    line; two are both named in subject order."""
    subjects = tmp_path / "subjects"
    code, _, err = run(capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "24,22,20",
                       "--out", str(subjects))
    assert code == 0, err
    t1 = subjects / "phantom002_t1.nii.gz"
    data = read_volume(t1).data.copy()
    data[10, 9, 8] = -1.0  # inside the window x 6..17, y 6..15, z 6..13
    _write_unchecked(t1, data)
    out = tmp_path / "out"
    messages = [f"subject phantom002: {out / 'phantom002_t1.nii.gz'}: "
                "brightness requires nonnegative intensities - normalize first"]
    if "phantom001" in broken:
        _write_unchecked(subjects / "phantom001_t1ce.nii.gz", np.zeros((24, 22, 18), np.float32))
        messages.insert(0, "subject phantom001: channel grid mismatch: "
                           "(24, 22, 18)/(1.0, 1.0, 1.0) vs (24, 22, 20)/(1.0, 1.0, 1.0)")
    cfg = tmp_path / "cfg.json"
    pipeline = (AugmentSpec(kind="flip", probability=1.0), AugmentSpec(kind="brightness", probability=1.0))
    save_config(PipelineConfig(seed=3, pipeline=pipeline, patch_shape=(12, 10, 8)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(subjects), "--out", str(out))
    assert code == 1
    if len(messages) == 1:
        assert err == f"error: {messages[0]}\n"
    else:
        assert err == f"error: 2 of 3 subjects failed: {'; '.join(messages)}\n"
    assert {p.name.split("_")[0] for p in out.iterdir()} == {"phantom000", "phantom001"} - set(broken)


def test_one_slab_count_drives_every_stream(tmp_path, capsys, monkeypatch):
    """``volume.SLAB_PLANES`` is the one z-slab count: patched to 3, every
    file ``voxaug phantom`` writes (whole arrays of 16 planes) and every
    file ``voxaug augment`` writes (8-plane patches) is compressed in
    3-plane steps after its 352-byte header, each augment read inflates
    into a 3-plane buffer, and the positions come in 3-plane slabs."""
    monkeypatch.setattr(volume, "SLAB_PLANES", 3)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    compressobj, steps = zlib.compressobj, []  # per compressor, the bytes of each step

    class Recording:
        def __init__(self, *args):
            self.deflate = compressobj(*args)
            steps.append([])

        def compress(self, data):
            steps[-1].append(memoryview(data).nbytes)
            return self.deflate.compress(data)

        def flush(self):
            return self.deflate.flush()

    monkeypatch.setattr(nifti.zlib, "compressobj", Recording)
    code, _, err = run(capsys, "phantom", "--seed", "5", "--count", "1", "--shape", "20,18,16",
                       "--out", str(tmp_path / "in"))
    assert code == 0, err

    def expected(plane, depths):  # 4 float32 channels, then the uint8 label map
        return [[352] + [d * plane * size for d in depths] for size in (4, 4, 4, 4, 1)]

    assert steps == expected(20 * 18, [3, 3, 3, 3, 3, 1])

    read_planes, buffers = nifti._planes, []
    monkeypatch.setattr(nifti, "_planes", lambda f, slab, *args: buffers.append(slab.shape)
                        or read_planes(f, slab, *args))
    sample, positions = interp.map_coordinates, []
    monkeypatch.setattr(interp, "map_coordinates", lambda data, coords, **kw: positions.append(
        coords.shape) or sample(data, coords, **kw))
    cfg = tmp_path / "cfg.json"
    pipeline = (AugmentSpec(kind="rotation", probability=1.0, max_deg=30.0),
                AugmentSpec(kind="brightness", probability=1.0))
    save_config(PipelineConfig(seed=3, pipeline=pipeline, patch_shape=(12, 10, 8)), cfg)
    steps.clear()
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(tmp_path / "in"),
                       "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert steps == expected(12 * 10, [3, 3, 2])
    assert buffers == [(3, 18, 20)] * 5  # (z, y, x): 3 planes of the 20x18 grid
    assert positions == [(3, 12, 10, k) for _ in range(5) for k in (3, 3, 2)]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_subject_leaves_no_file(tmp_path, capsys, monkeypatch, threads):
    subjects = tmp_path / "subjects"
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "16,16,16",
        "--out", str(subjects),
    )
    assert code == 0, err
    cfg = tmp_path / "flip.json"
    flip = AugmentSpec(kind="flip", probability=1.0)
    save_config(PipelineConfig(seed=3, pipeline=(flip,), patch_shape=(16, 16, 16)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    clean = tmp_path / "clean"
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(subjects), "--out", str(clean))
    assert code == 0, err

    volume_writer = voxaug.cli.volume_writer
    lock, calls = threading.Lock(), []

    def third_write_fails(path, like):
        if path.name.startswith("phantom001"):
            with lock:
                calls.append(path.name)
                if len(calls) == 3:
                    raise OSError("disk full")
        return volume_writer(path, like)

    monkeypatch.setattr(voxaug.cli, "volume_writer", third_write_fails)
    out = tmp_path / "out"
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(subjects), "--out", str(out))
    assert code == 1
    assert err == "error: subject phantom001: disk full\n"
    assert len(calls) == 3
    left = sorted(p.name for p in out.iterdir())
    assert left == sorted(p.name for p in clean.iterdir() if not p.name.startswith("phantom001"))
    for name in left:
        assert (out / name).read_bytes() == (clean / name).read_bytes()


_ALL_FIVE = (
    AugmentSpec(kind="flip", probability=1.0),
    AugmentSpec(kind="rotation", probability=1.0, max_deg=30.0),
    AugmentSpec(kind="scale", probability=1.0, max_frac=0.1),
    AugmentSpec(kind="brightness", probability=1.0),
    AugmentSpec(kind="elastic", probability=1.0, sigma=2.0),
)


def _write_unchecked(path, data):
    """``data`` (float32 or uint8) as a .nii.gz file, written without the
    checks of ``Volume``/``LabelMap``, so that it may hold any value."""
    datatype, bitpix = (2, 8) if data.dtype == np.uint8 else (16, 32)
    blob = _build_header(data.shape, (1.0, 1.0, 1.0), datatype, bitpix) + b"\0" * 4
    path.write_bytes(gzip.compress(blob + data.ravel(order="F").tobytes(), mtime=0))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("suffix", ["_flair", "_seg"])
def test_fault_after_earlier_arrays_were_written_leaves_nothing_behind(
    tmp_path, capsys, monkeypatch, threads, suffix
):
    """A bad voxel in a subject's last channel or its label map is met after
    its other arrays were read, resampled and streamed to their temp files.
    A pipeline that resamples writes every array slab by slab through
    volume_writer, so no whole array goes through write_volume. The subject
    still gets its one error line and leaves no file behind."""
    subjects = tmp_path / "subjects"
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "24,22,20",
        "--out", str(subjects),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE, patch_shape=(12, 10, 8)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    clean = tmp_path / "clean"
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(subjects), "--out", str(clean))
    assert code == 0, err

    where = (10, 9, 8)  # inside the window x 6..17, y 6..15, z 6..13
    path = subjects / f"phantom001{suffix}.nii.gz"
    data = read_volume(path, as_labels=suffix == "_seg").data.copy()
    if suffix == "_seg":
        data[where] = 3
        message = f"label value 3 at voxel {where} not in raw alphabet (0, 1, 2, 4)"
    else:
        data[where] = np.nan
        message = f"non-finite voxel at index {where}"
    _write_unchecked(path, data)

    write_volume = voxaug.cli.write_volume
    lock, written = threading.Lock(), []

    def recording(obj, out_path):
        if out_path.name.startswith("phantom001"):
            with lock:
                written.append(out_path.name)
        write_volume(obj, out_path)

    monkeypatch.setattr(voxaug.cli, "write_volume", recording)
    out = tmp_path / "out"
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(subjects), "--out", str(out))
    assert code == 1
    assert err == f"error: subject phantom001: {path}: {message}\n"
    assert written == []
    assert list(out.glob("tmp*.tmp")) == []
    left = sorted(p.name for p in out.iterdir())
    assert left == sorted(p.name for p in clean.iterdir() if not p.name.startswith("phantom001"))
    for name in left:
        assert (out / name).read_bytes() == (clean / name).read_bytes()


def test_augment_holds_about_one_channel_in_and_one_out(tmp_path, capsys, monkeypatch):
    """One subject under flip + brightness, at a 96^3 patch and one thread,
    peaks (tracemalloc) within three channels' bytes: the channel read and
    its output, plus the slabs of the read, of brightness (1 MB of float64)
    and of the write (1 MB, and what deflate returns for it), which are at
    most about one channel at this size. Holding the whole patch and every
    output, as augment did before, took about 15.5."""
    code, _, err = run(
        capsys, "phantom", "--seed", "2", "--count", "1", "--shape", "100,100,100",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE[:1] + _ALL_FIVE[3:4],
                               patch_shape=(96, 96, 96)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    argv = ["augment", "--config", str(cfg), "--in", str(tmp_path / "in")]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "warm"))
    assert code == 0, err
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert code == 0, err
    channel = 96**3 * 4
    assert peak <= 3 * channel, f"peak {peak / channel:.2f} channels"


@pytest.mark.parametrize("kinds", [(0,), (3,), (0, 3)], ids=["flip", "brightness", "both"])
def test_augment_without_resampling_holds_one_window_and_a_few_slabs(
    tmp_path, capsys, monkeypatch, kinds
):
    """One subject under flip, brightness, or both, at a 96^3 patch and one
    thread, peaks (tracemalloc) within 1.85 channels: the read window plus
    z-slabs of the output (``volume.SLAB_PLANES`` z-planes, 0.3 MB in
    float64 under brightness) and of the write. It peaks at about 1.2-1.3
    channels (1.5 with 32-plane read slabs, 1.5-1.7 before that); an
    augment that made each output whole before writing it peaked at 2.0
    (flip) and 2.3 (with brightness)."""
    code, _, err = run(
        capsys, "phantom", "--seed", "2", "--count", "1", "--shape", "100,100,100",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    pipeline = tuple(_ALL_FIVE[k] for k in kinds)
    save_config(PipelineConfig(seed=3, pipeline=pipeline, patch_shape=(96, 96, 96)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    argv = ["augment", "--config", str(cfg), "--in", str(tmp_path / "in")]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "warm"))
    assert code == 0, err
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert code == 0, err
    channel = 96**3 * 4
    assert peak <= 1.85 * channel, f"peak {peak / channel:.2f} channels"


def test_resampling_augment_holds_one_window_and_a_few_slabs(tmp_path, capsys, monkeypatch):
    """One subject under all five ops, at a 96^3 patch and one thread, peaks
    (tracemalloc) within one read window (a channel's, 3.5 MB) plus eight
    slabs' worth of sampling positions (``volume.SLAB_PLANES`` z-planes of
    96^2; at 4 planes 0.88 MB each): each array is read, resampled and
    written one z-slab at a time, and dropped before the next is read, only
    its positions rebuilt. At 4-plane slabs it peaks at about a window +
    5.43 slabs. With 8-plane slabs (1.7 MB each) it peaked at about a window
    + 4.5 slabs; holding all five windows, to resample every array at one
    slab before the next, took about a window + 10.9 slabs (five windows +
    6.4); building whole positions and holding every output took five
    windows + 15.6."""
    code, _, err = run(
        capsys, "phantom", "--seed", "2", "--count", "1", "--shape", "100,100,100",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE, patch_shape=(96, 96, 96)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    argv = ["augment", "--config", str(cfg), "--in", str(tmp_path / "in")]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "warm"))
    assert code == 0, err
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert code == 0, err
    window = 96**3 * 4
    slab = 3 * 96 * 96 * volume.SLAB_PLANES * 8
    assert peak <= window + 8 * slab, f"peak window + {(peak - window) / slab:.2f} slabs"


def test_first_bad_output_voxel_in_xyz_order_across_slabs(tmp_path, capsys, monkeypatch):
    """A resampled channel is checked slab by slab, and its error names the
    first bad voxel in (x, y, z) order over the whole patch: here the NaN of
    the later slab, whose x is smaller, by its patch index. It is raised
    after the channel's last slab, before the next window is read."""
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "1", "--shape", "24,22,20",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE, patch_shape=(12, 10, 16)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    read_volume = voxaug.cli.read_volume
    windows = []

    def recording(path, **kwargs):
        windows.append(path.name)
        return read_volume(path, **kwargs)

    monkeypatch.setattr(voxaug.cli, "read_volume", recording)
    sample = interp.map_coordinates
    channel_reads = []
    planes = volume.SLAB_PLANES
    assert 2 // planes != 9 // planes  # the two NaNs lie in different slabs

    def nan_in_two_slabs(data, coords, **kwargs):
        out = sample(data, coords, **kwargs)
        if out.dtype == np.float32:
            z = len(channel_reads) * planes
            channel_reads.append(len(channel_reads))
            for x, y, nan_z in ((7, 3, 2), (2, 5, 9)):  # of _t1 in the patch
                if z <= nan_z < z + out.shape[2]:
                    out[x, y, nan_z - z] = np.nan
        return out

    monkeypatch.setattr(interp, "map_coordinates", nan_in_two_slabs)
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(tmp_path / "in"),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    out_t1 = tmp_path / "out" / "phantom000_t1.nii.gz"
    assert err == f"error: subject phantom000: {out_t1}: non-finite voxel at index (2, 5, 9)\n"
    assert len(channel_reads) == -(-16 // planes)  # _t1 at each of its slabs
    assert windows == ["phantom000_t1.nii.gz"]
    assert list((tmp_path / "out").iterdir()) == []


def test_augment_sets_up_once_and_rebuilds_only_the_slabs_per_array(tmp_path, capsys, monkeypatch):
    """A subject's plan is set up by one interp.warp call (matrices folded
    and inverted, x/y spline passes run, every step checked) before its
    first window is read. Then each array in turn, the channels in order
    and the label map last, is read and resampled through a fresh pass over
    the slab source, so only the position slabs are rebuilt per array."""
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "1", "--shape", "24,22,20",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE, patch_shape=(12, 10, 16)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    events = []
    warp = interp.warp

    def recorded_warp(shape, steps):
        events.append("warp")
        slabs = warp(shape, steps)
        return lambda: events.append("slabs") or slabs()

    monkeypatch.setattr(interp, "warp", recorded_warp)
    for name in ("read_volume", "read_labels"):
        read = getattr(voxaug.cli, name)
        monkeypatch.setattr(voxaug.cli, name, lambda path, read=read, **kw: events.append(
            path.name.removesuffix(".nii.gz")) or read(path, **kw))
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(tmp_path / "in"),
                       "--out", str(tmp_path / "out"))
    assert code == 0, err
    suffixes = ("_t1", "_t1ce", "_t2", "_flair", "_seg")
    assert events == ["warp"] + [e for s in suffixes for e in (f"phantom000{s}", "slabs")]


def test_several_faults_report_the_first_met_in_array_order(tmp_path, capsys, monkeypatch):
    """A subject with several faults reports the first one met in array
    order, the channels in order and the label map last: a bad output voxel
    of _t1 comes before a bad input voxel of _flair, whose window is never
    read. (When every window was read before any array was resampled, the
    _flair voxel was reported.) The subject leaves no file behind."""
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "1", "--shape", "24,22,20",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE, patch_shape=(12, 10, 8)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    flair = tmp_path / "in" / "phantom000_flair.nii.gz"
    data = read_volume(flair).data.copy()
    data[10, 9, 8] = np.nan  # inside the window x 6..17, y 6..15, z 6..13
    _write_unchecked(flair, data)
    read = voxaug.cli.read_volume
    windows = []
    monkeypatch.setattr(voxaug.cli, "read_volume",
                        lambda path, **kw: windows.append(path.name) or read(path, **kw))
    sample = interp.map_coordinates
    channel_reads = []
    planes = volume.SLAB_PLANES

    def nan_in_t1(data, coords, **kwargs):
        out = sample(data, coords, **kwargs)
        if out.dtype == np.float32:
            z = len(channel_reads) * planes
            channel_reads.append(len(channel_reads))
            if z <= 5 < z + out.shape[2]:  # _t1's slab holding plane 5
                out[3, 4, 5 - z] = np.nan
        return out

    monkeypatch.setattr(interp, "map_coordinates", nan_in_t1)
    code, _, err = run(capsys, "augment", "--config", str(cfg), "--in", str(tmp_path / "in"),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    out_t1 = tmp_path / "out" / "phantom000_t1.nii.gz"
    assert err == f"error: subject phantom000: {out_t1}: non-finite voxel at index (3, 4, 5)\n"
    assert windows == ["phantom000_t1.nii.gz"]
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fault_in_a_streamed_write_leaves_nothing_behind(tmp_path, capsys, monkeypatch, threads):
    """A write that fails at the third of the label map's four slabs, after
    the subject's four channels went whole to their temp files, slab by
    slab, gives the subject one error line and leaves none of its files,
    nor any temp file; the other subjects' files are those of a clean
    run."""
    code, _, err = run(
        capsys, "phantom", "--seed", "5", "--count", "3", "--shape", "24,22,20",
        "--out", str(tmp_path / "in"),
    )
    assert code == 0, err
    cfg = tmp_path / "cfg.json"
    save_config(PipelineConfig(seed=3, pipeline=_ALL_FIVE, patch_shape=(12, 10, 16)), cfg)
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    monkeypatch.setattr(volume, "SLAB_PLANES", 4)  # four slabs per file
    argv = ["augment", "--config", str(cfg), "--in", str(tmp_path / "in")]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "clean"))
    assert code == 0, err

    volume_writer = voxaug.cli.volume_writer
    lock, slabs = threading.Lock(), []

    @contextlib.contextmanager
    def failing(path, *args):
        with volume_writer(path, *args) as write:
            def counted(planes):
                if path.name.startswith("phantom001"):
                    with lock:
                        slabs.append(path.name)
                        if path.name.endswith("_seg.nii.gz") and slabs.count(path.name) == 3:
                            raise OSError("disk full")
                write(planes)
            yield counted

    monkeypatch.setattr(voxaug.cli, "volume_writer", failing)
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err == "error: subject phantom001: disk full\n"
    suffixes = ("_t1", "_t1ce", "_t2", "_flair", "_seg")
    # one array after another: every channel's four slabs, then the label map's first three
    assert slabs == [f"phantom001{s}.nii.gz" for s in suffixes for _ in range(3 if s == "_seg" else 4)]
    assert list(out.glob("tmp*.tmp")) == []
    left = sorted(p.name for p in out.iterdir())
    clean = tmp_path / "clean"
    assert left == sorted(p.name for p in clean.iterdir() if not p.name.startswith("phantom001"))
    for name in left:
        assert (out / name).read_bytes() == (clean / name).read_bytes()


@pytest.mark.parametrize("earlier_seed", [None, 8], ids=["empty-dir", "over-another-seed"])
def test_a_failed_rename_leaves_a_subject_complete_exactly_when_its_marker_exists(
    tmp_path, capsys, monkeypatch, earlier_seed
):
    """A subject's six files (four channels, the label map, and the
    provenance JSON last, its commit marker) are renamed into place one by
    one. Whichever rename fails, into an empty directory or over an earlier
    run of another seed, a subject with a marker has every file of a clean
    run of the marker's seed, and one without a marker has none of this
    run's files."""
    code, _, err = run(capsys, "phantom", "--seed", "5", "--count", "1", "--shape", "20,18,16",
                       "--out", str(tmp_path / "in"))
    assert code == 0, err
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    pipeline = (AugmentSpec(kind="rotation", probability=1.0, max_deg=30.0),
                AugmentSpec(kind="brightness", probability=1.0))

    seeds = (3, earlier_seed) if earlier_seed else (3,)
    for seed in seeds:  # saved before os.replace is made to fail
        cfg = PipelineConfig(seed=seed, pipeline=pipeline, patch_shape=(12, 12, 12))
        save_config(cfg, tmp_path / f"seed{seed}.json")

    def augment(seed, out):
        return run(capsys, "augment", "--config", str(tmp_path / f"seed{seed}.json"),
                   "--in", str(tmp_path / "in"), "--out", str(out))

    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    clean = {}
    for seed in seeds:
        assert augment(seed, tmp_path / f"clean{seed}")[0] == 0
        clean[seed] = files(tmp_path / f"clean{seed}")
    assert len(clean[3]) == 6
    if earlier_seed:  # no file of the earlier run passes for one of this run
        assert all(clean[earlier_seed][name] != data for name, data in clean[3].items())
    marker = "phantom000_provenance.json"

    replace = os.replace
    for fail_at in range(1, 7):
        out = tmp_path / f"out{fail_at}"
        if earlier_seed is not None:
            shutil.copytree(tmp_path / f"clean{earlier_seed}", out)
        calls = []

        def failing_replace(src, dst, fail_at=fail_at):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError("rename failed")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _, err = augment(3, out)
        monkeypatch.setattr(os, "replace", replace)
        assert (code, err) == (1, "error: subject phantom000: rename failed\n"), fail_at
        left = files(out)
        assert not any(name.startswith("tmp") for name in left), fail_at
        if marker in left:
            [seed] = [s for s, c in clean.items() if c[marker] == left[marker]]
            assert left == clean[seed], fail_at
        else:
            assert all(data != clean[3][name] for name, data in left.items()), fail_at


# runs `voxaug augment` and SIGKILLs the process on its KILL_AT-th os.replace
_KILL_ON_REPLACE = """
import os, signal, sys
from voxaug.cli import main
replace, calls = os.replace, []
def killing_replace(src, dst):
    calls.append(dst)
    if len(calls) == int(os.environ["KILL_AT"]):
        os.kill(os.getpid(), signal.SIGKILL)
    return replace(src, dst)
os.replace = killing_replace
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("earlier_seed", [None, 8], ids=["empty-dir", "over-another-seed"])
def test_a_killed_augment_keeps_the_marker_rule_and_a_rerun_takes_back_its_leftovers(
    tmp_path, capsys, monkeypatch, earlier_seed
):
    """``voxaug augment`` is killed, so that no clean-up runs, on each of a
    subject's six renames in turn, into an empty directory or over an
    earlier run of another seed. Where the subject's provenance JSON (its
    commit marker) is left, every file beside it is that of a clean run of
    the marker's seed. A rerun of the same config then leaves exactly the
    clean run's files: it takes back the killed run's temp files."""
    code, _, err = run(capsys, "phantom", "--seed", "5", "--count", "1", "--shape", "20,18,16",
                       "--out", str(tmp_path / "in"))
    assert code == 0, err
    monkeypatch.setenv("VOXAUG_THREADS", "1")
    pipeline = (AugmentSpec(kind="rotation", probability=1.0, max_deg=30.0),
                AugmentSpec(kind="brightness", probability=1.0))
    seeds = (3, earlier_seed) if earlier_seed else (3,)
    for seed in seeds:
        cfg = PipelineConfig(seed=seed, pipeline=pipeline, patch_shape=(12, 12, 12))
        save_config(cfg, tmp_path / f"seed{seed}.json")

    def argv(seed, out):
        return ("augment", "--config", str(tmp_path / f"seed{seed}.json"),
                "--in", str(tmp_path / "in"), "--out", str(out))

    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    clean = {}
    for seed in seeds:
        assert run(capsys, *argv(seed, tmp_path / f"clean{seed}"))[0] == 0
        clean[seed] = files(tmp_path / f"clean{seed}")
    assert len(clean[3]) == 6
    marker = "phantom000_provenance.json"

    for kill_at in range(1, 7):
        out = tmp_path / f"out{kill_at}"
        if earlier_seed is not None:
            shutil.copytree(tmp_path / f"clean{earlier_seed}", out)
        killed = subprocess.run([sys.executable, "-c", _KILL_ON_REPLACE, *argv(3, out)],
                                env={**os.environ, "KILL_AT": str(kill_at)}, capture_output=True)
        assert killed.returncode == -signal.SIGKILL, (kill_at, killed.stderr)
        left = {name: data for name, data in files(out).items() if not name.endswith(".tmp")}
        if marker in left:
            [seed] = [s for s, c in clean.items() if c[marker] == left[marker]]
            assert left == clean[seed], kill_at
        code, _, err = run(capsys, *argv(3, out))
        assert code == 0, err
        assert files(out) == clean[3], kill_at


def test_augment_requires_input_dir(config_path, tmp_path, capsys):
    code, _, err = run(capsys, "augment", "--config", str(config_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "input directory required" in err


@pytest.mark.parametrize("alias", ["same", "dotdot", "symlink"])
def test_augment_refuses_its_input_directory_as_output(phantom_dir, config_path, tmp_path, capsys, alias):
    """An output directory that resolves to the input directory is refused
    before anything is read or written, so the inputs keep their bytes."""
    out = {"same": phantom_dir, "dotdot": phantom_dir / ".." / phantom_dir.name,
           "symlink": tmp_path / "link"}[alias]
    if alias == "symlink":
        out.symlink_to(phantom_dir)
    before = {p.name: p.read_bytes() for p in phantom_dir.iterdir()}
    code, stdout, err = run(capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir),
                            "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: output directory {out} is the input directory {phantom_dir}\n"
    assert {p.name: p.read_bytes() for p in phantom_dir.iterdir()} == before


# --- evaluate ----------------------------------------------------------------

def test_evaluate_self_is_perfect(phantom_dir, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code, stdout, err = run(
        capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
        "--model-id", "self", "--out", str(out),
    )
    assert code == 0, err
    assert "evaluated 2 subjects (6 rows)" in stdout
    records = read_metrics(out)
    assert len(records) == 6
    assert all(r.dice == 1.0 and r.hd95_mm == 0.0 for r in records)
    assert {r.region for r in records} == {"ET", "TC", "WT"}


def test_evaluate_append_second_model(phantom_dir, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    run(capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
        "--model-id", "A", "--out", str(out))
    code, _, err = run(
        capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
        "--model-id", "B", "--out", str(out), "--append",
    )
    assert code == 0, err
    records = read_metrics(out)
    assert len(records) == 12
    assert {r.model_id for r in records} == {"A", "B"}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_evaluate_names_each_failing_subject(tmp_path, capsys, monkeypatch, threads):
    pred, truth = tmp_path / "pred", tmp_path / "truth"
    pred.mkdir()
    truth.mkdir()
    labels = np.zeros((20, 20, 16), dtype=np.uint8)
    labels[8:12, 8:12, 6:10] = 4
    for subject in ("s0", "s1", "s2"):
        write_volume(LabelMap(labels), truth / f"{subject}_seg.nii.gz")
    write_volume(LabelMap(labels), pred / "s0_seg.nii.gz")
    write_volume(LabelMap(np.zeros((20, 20, 18), dtype=np.uint8)), pred / "s1_seg.nii.gz")
    write_volume(LabelMap(labels, spacing=(1.0, 1.0, 2.0)), pred / "s2_seg.nii.gz")
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    out = tmp_path / "m.csv"
    code, stdout, err = run(
        capsys, "evaluate", "--pred", str(pred), "--truth", str(truth),
        "--model-id", "A", "--out", str(out),
    )
    assert code == 1
    assert stdout == ""
    assert err == (
        "error: 2 of 3 subjects failed: "
        "subject s1: shape mismatch: pred (20, 20, 18) vs truth (20, 20, 16); "
        "subject s2: spacing mismatch: pred (1.0, 1.0, 2.0) vs truth (1.0, 1.0, 1.0)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("dangling", [("phantom001",), ("phantom000", "phantom001")],
                         ids=["one-subject", "two-subjects"])
def test_evaluate_names_a_subject_whose_file_cannot_be_read(phantom_dir, tmp_path, capsys, monkeypatch,
                                                            threads, dangling):
    pred = tmp_path / "pred"
    shutil.copytree(phantom_dir, pred)
    messages = []
    for subject in dangling:
        path = pred / f"{subject}_seg.nii.gz"
        path.unlink()
        path.symlink_to(pred / "gone.nii.gz")
        messages.append(f"subject {subject}: [Errno 2] No such file or directory: {str(path)!r}")
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    out = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "evaluate", "--pred", str(pred), "--truth", str(phantom_dir),
                            "--model-id", "A", "--out", str(out))
    assert (code, stdout) == (1, "")
    if len(messages) == 1:
        assert err == f"error: {messages[0]}\n"
    else:
        assert err == f"error: 2 of 2 subjects failed: {'; '.join(messages)}\n"
    assert not out.exists()


def test_evaluate_append_rejects_rows_already_in_the_table(phantom_dir, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    argv = ("evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
            "--model-id", "A", "--out", str(out), "--append")
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    before = out.read_bytes()
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err == (
        "error: duplicate metric rows for "
        "[('phantom000', 'A', 'ET'), ('phantom000', 'A', 'TC'), ('phantom000', 'A', 'WT'), "
        "('phantom001', 'A', 'ET'), ('phantom001', 'A', 'TC'), ('phantom001', 'A', 'WT')]\n"
    )
    assert out.read_bytes() == before
    code, stdout, err = run(capsys, "rank", "--metrics", str(out), "--out", str(tmp_path / "r.csv"))
    assert code == 0, err
    assert stdout == "A=1.0\n"


@pytest.mark.parametrize("rows, message", [
    ("s9,m,WT,0.5\n", "{out}:2: expected 5 fields, got 4"),
    ("s9,m,WT,0.5,1.0\ns9,m,WT,0.25,2.0\n", "duplicate metric rows for [('s9', 'm', 'WT')]"),
], ids=["short-row", "repeated-key"])
def test_evaluate_append_refuses_a_table_that_rank_would_refuse(phantom_dir, tmp_path, capsys,
                                                                rows, message):
    """The table appended to is read as ``rank`` and ``compare`` read it, so
    a table they would refuse is refused, with their message, before
    anything is written, and it keeps its bytes."""
    out = tmp_path / "m2.csv"
    out.write_text("subject_id,model_id,region,dice,hd95_mm\n" + rows)
    before = out.read_bytes()
    code, _, rank_err = run(capsys, "rank", "--metrics", str(out), "--out", str(tmp_path / "r.csv"))
    assert (code, rank_err) == (1, f"error: {message.format(out=out)}\n")
    code, stdout, err = run(capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
                            "--model-id", "A", "--out", str(out), "--append")
    assert (code, stdout, err) == (1, "", rank_err)
    assert out.read_bytes() == before


def test_evaluate_subject_mismatch(phantom_dir, tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    shutil.copy(phantom_dir / "phantom000_seg.nii.gz", pred / "phantom000_seg.nii.gz")
    code, _, err = run(
        capsys, "evaluate", "--pred", str(pred), "--truth", str(phantom_dir),
        "--model-id", "A", "--out", str(tmp_path / "m.csv"),
    )
    assert code == 1
    assert "subject mismatch" in err and "phantom001" in err


def test_evaluate_reads_the_nii_gz_file_of_a_subject_with_both(phantom_dir, tmp_path, capsys):
    pred = tmp_path / "pred"
    shutil.copytree(phantom_dir, pred)
    # phantom001's labels, uncompressed, under phantom000's name
    (pred / "phantom000_seg.nii").write_bytes(
        gzip.decompress((phantom_dir / "phantom001_seg.nii.gz").read_bytes())
    )
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, "evaluate", "--pred", str(pred), "--truth", str(phantom_dir),
                       "--model-id", "A", "--out", str(out))
    assert code == 0, err
    assert [r.dice for r in read_metrics(out)] == [1.0] * 6


# --- compare and rank -----------------------------------------------------------

@pytest.fixture()
def two_model_table(phantom_dir, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    for model in ("A", "B"):
        code, _, err = run(
            capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
            "--model-id", model, "--out", str(out), "--append",
        )
        assert code == 0, err
    return out


def test_compare_identical_models(two_model_table, capsys):
    code, stdout, err = run(
        capsys, "compare", "--metrics", str(two_model_table), "--model-a", "A",
        "--model-b", "B", "--metric", "dice", "--region", "WT", "--flips", "200",
    )
    assert code == 0, err
    assert "p_raw=1.0" in stdout
    assert "n_subjects=2" in stdout
    assert "n_flips=200" in stdout


def test_compare_exhaustive(two_model_table, capsys):
    code, stdout, _ = run(
        capsys, "compare", "--metrics", str(two_model_table), "--model-a", "A",
        "--model-b", "B", "--metric", "hd95", "--region", "ET", "--exhaustive",
    )
    assert code == 0
    assert "n_flips=4" in stdout  # 2 subjects -> 2^2 sign vectors
    assert "seed=None" in stdout


def test_compare_bonferroni_flag(two_model_table, capsys):
    code, stdout, _ = run(
        capsys, "compare", "--metrics", str(two_model_table), "--model-a", "A",
        "--model-b", "B", "--metric", "dice", "--region", "TC", "--flips", "100",
        "--bonferroni", "36",
    )
    assert code == 0
    assert "p_adjusted=1.0" in stdout and "m=36" in stdout


def test_compare_unknown_model(two_model_table, capsys):
    code, _, err = run(
        capsys, "compare", "--metrics", str(two_model_table), "--model-a", "A",
        "--model-b", "nosuch", "--metric", "dice", "--region", "WT",
    )
    assert code == 1
    assert "has no WT rows" in err


def test_compare_rejects_duplicate_rows(two_model_table, capsys):
    # evaluate --append refuses to write such a table, so repeat B's rows by hand
    text = two_model_table.read_text()
    repeated = [line for line in text.splitlines() if line.split(",")[1] == "B"]
    two_model_table.write_text(text + "\n".join(repeated) + "\n")
    code, stdout, err = run(
        capsys, "compare", "--metrics", str(two_model_table), "--model-a", "A",
        "--model-b", "B", "--metric", "dice", "--region", "WT", "--exhaustive",
    )
    assert code == 1
    assert stdout == ""
    assert err == (
        "error: duplicate metric rows for "
        "[('phantom000', 'B', 'WT'), ('phantom001', 'B', 'WT')]\n"
    )


def test_compare_refuses_the_same_model_on_both_sides(tmp_path, capsys):
    # refused before the table is read: this one does not exist
    code, stdout, err = run(
        capsys, "compare", "--metrics", str(tmp_path / "nosuch.csv"), "--model-a", "A",
        "--model-b", "A", "--metric", "dice", "--region", "WT", "--exhaustive",
    )
    assert (code, stdout, err) == (1, "", "error: --model-a and --model-b are the same model 'A'\n")


def test_rank_tied_models(two_model_table, tmp_path, capsys):
    out = tmp_path / "ranks.csv"
    code, stdout, err = run(capsys, "rank", "--metrics", str(two_model_table), "--out", str(out))
    assert code == 0, err
    assert stdout.splitlines() == ["A=1.5", "B=1.5"]
    assert out.read_text() == "model_id,rank_score\nA,1.5\nB,1.5\n"


def test_rank_normalize(two_model_table, tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "rank", "--metrics", str(two_model_table), "--out",
        str(tmp_path / "r.csv"), "--normalize",
    )
    assert code == 0
    assert stdout.splitlines() == ["A=0.75", "B=0.75"]


def test_rank_and_evaluate_create_the_directory_of_their_out_file(
    phantom_dir, two_model_table, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "no" / "such" / "ranks.csv"
    code, _, err = run(capsys, "rank", "--metrics", str(two_model_table), "--out", str(out))
    assert code == 0, err
    assert out.read_text() == "model_id,rank_score\nA,1.5\nB,1.5\n"
    out = tmp_path / "new" / "dir" / "metrics.csv"
    code, _, err = run(capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
                       "--model-id", "A", "--out", str(out))
    assert code == 0, err
    assert len(read_metrics(out)) == 6
    monkeypatch.chdir(tmp_path)  # an --out in the working directory has the parent "."
    assert run(capsys, "rank", "--metrics", str(two_model_table), "--out", "r.csv")[0] == 0
    assert (tmp_path / "r.csv").read_text() == "model_id,rank_score\nA,1.5\nB,1.5\n"
    assert run(capsys, "evaluate", "--pred", str(phantom_dir), "--truth", str(phantom_dir),
               "--model-id", "A", "--out", "m.csv")[0] == 0
    assert len(read_metrics(tmp_path / "m.csv")) == 6


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, 2**128])
def test_an_out_of_range_seed_is_one_line_before_any_subject(
    phantom_dir, two_model_table, tmp_path, capsys, seed
):
    line = f"error: seed must be in [-2**127, 2**127), got {seed}\n"
    out = tmp_path / "p"
    code, stdout, err = run(capsys, "phantom", "--seed", str(seed), "--count", "2",
                            "--shape", "16,16,16", "--out", str(out))
    assert (code, stdout, err) == (1, "", line)
    assert not out.exists()
    code, stdout, err = run(capsys, "compare", "--metrics", str(two_model_table), "--model-a", "A",
                            "--model-b", "B", "--metric", "dice", "--region", "WT",
                            "--seed", str(seed))
    assert (code, stdout, err) == (1, "", line)
    cfg = tmp_path / "seed.json"
    save_config(PipelineConfig(seed=seed, pipeline=(AugmentSpec(kind="flip", probability=1.0),),
                               patch_shape=(16, 16, 16)), cfg)
    out = tmp_path / "aug"
    code, stdout, err = run(capsys, "augment", "--config", str(cfg), "--in", str(phantom_dir),
                            "--out", str(out))
    assert (code, stdout, err) == (1, "", line)
    assert not out.exists()


# --- plumbing ----------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--pred", "x"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_thread_env_validation(phantom_dir, config_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VOXAUG_THREADS", "zero")
    code, _, err = run(
        capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir),
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "VOXAUG_THREADS must be an integer" in err

    monkeypatch.setenv("VOXAUG_THREADS", "0")
    code, _, err = run(
        capsys, "augment", "--config", str(config_path), "--in", str(phantom_dir),
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "VOXAUG_THREADS must be >= 1" in err


def test_map_subjects_names_failures_and_passes_other_base_exceptions(monkeypatch):
    """Each ``Exception`` of a subject becomes ``subject <id>: <message>``;
    one is raised alone, chained to the original. A ``BaseException``
    that is not an ``Exception`` propagates as it was raised."""
    monkeypatch.setenv("VOXAUG_THREADS", "2")
    error, interrupt = KeyError("x"), KeyboardInterrupt()

    def fn(subject):
        if subject == "b":
            raise error
        if subject == "c":
            raise interrupt
        return subject.upper()

    assert voxaug.cli._map_subjects(fn, ["a", "d"]) == ["A", "D"]
    with pytest.raises(ValueError) as excinfo:
        voxaug.cli._map_subjects(fn, ["a", "b"])
    assert str(excinfo.value) == "subject b: 'x'" and excinfo.value.__cause__ is error
    with pytest.raises(KeyboardInterrupt) as excinfo:
        voxaug.cli._map_subjects(fn, ["b", "c"])
    assert excinfo.value is interrupt


def test_default_thread_count_follows_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("VOXAUG_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _thread_count() == 1
