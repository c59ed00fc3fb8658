"""`voxaug augment` crops while reading: each channel and label map is read
only inside the centered patch window, so no full-size array is held. These
tests pin what must not change with that: the output bytes, and the one-line
error a bad subject gets, wherever in the grid its fault lies."""

import gzip
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from voxaug import nifti, volume
from voxaug.cli import main
from voxaug.volume import make_phantom

SHAPE = (24, 22, 20)
PATCH = (12, 10, 8)  # the window is x 6..17, y 6..15, z 6..13
INSIDE, OUTSIDE = (10, 9, 8), (3, 4, 17)
CHANNELS = ("_t1", "_t1ce", "_t2", "_flair")
FLIP = {"kind": "flip", "probability": 1.0}


@pytest.fixture(params=[None, 1, 3], ids=["default-slabs", "1-plane-slabs", "3-plane-slabs"])
def slab_planes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(volume, "SLAB_PLANES", request.param)
    return request.param


def _arrays(seed=4):
    sample = make_phantom(seed, shape=SHAPE, subject_id="s")
    arrays = {suffix: ch.data.copy() for suffix, ch in zip(CHANNELS, sample.channels)}
    arrays["_seg"] = sample.labels.data.copy()
    return arrays


def _write_nifti(path, data, spacing=(1.0, 1.0, 1.0), slope=1.0):
    """``data`` as a NIfTI file whose datatype follows its dtype (float32 or
    uint8), written without the reader's checks, so it may hold any value."""
    datatype, bitpix = (2, 8) if data.dtype == np.uint8 else (16, 32)
    header = bytearray(nifti._build_header(data.shape, spacing, datatype, bitpix))
    struct.pack_into("<f", header, 112, slope)
    blob = bytes(header) + b"\0" * 4 + data.ravel(order="F").tobytes()
    path.write_bytes(gzip.compress(blob, mtime=0) if path.name.endswith(".gz") else blob)


def _subject_dir(root, arrays, ext=".nii.gz", spacings=None, slopes=None):
    d = root / "in"
    d.mkdir(parents=True)
    for suffix, data in arrays.items():
        _write_nifti(d / f"s{suffix}{ext}", data, (spacings or {}).get(suffix, (1.0, 1.0, 1.0)),
                     (slopes or {}).get(suffix, 1.0))
    return d


def _augment(capsys, root, in_dir, patch=PATCH, pipeline=(FLIP,), out="out"):
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "pipeline": list(pipeline), "patch_shape": list(patch)}))
    code = main(["augment", "--config", str(cfg), "--in", str(in_dir), "--out", str(root / out)])
    return code, capsys.readouterr().err


def _digest(directory):
    digest = hashlib.sha256()
    for p in sorted(directory.iterdir(), key=lambda p: p.name):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


# --- bad voxels, inside and outside the window ------------------------------------

@pytest.mark.parametrize("ext", [".nii.gz", ".nii"])
@pytest.mark.parametrize("labels", [True, False], ids=["labels", "no-labels"])
@pytest.mark.parametrize("where", [INSIDE, OUTSIDE], ids=["inside", "outside"])
def test_non_finite_voxel(tmp_path, capsys, slab_planes, where, labels, ext):
    arrays = _arrays()
    arrays["_t2"][where] = np.nan
    if not labels:
        del arrays["_seg"]
    in_dir = _subject_dir(tmp_path, arrays, ext)
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == f"error: subject s: {in_dir / f's_t2{ext}'}: non-finite voxel at index {where}\n"


def test_first_non_finite_voxel_in_xyz_order_from_a_later_slab(tmp_path, capsys, slab_planes):
    arrays = _arrays()
    for index in ((9, 8, 2), INSIDE, (5, 3, 18), (5, 3, 19)):
        arrays["_t1"][index] = np.inf
    in_dir = _subject_dir(tmp_path, arrays)
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == f"error: subject s: {in_dir / 's_t1.nii.gz'}: non-finite voxel at index (5, 3, 18)\n"


def test_finite_stored_voxel_that_scaling_makes_non_finite(tmp_path, capsys, slab_planes):
    arrays = _arrays()
    arrays["_flair"][OUTSIDE] = 3e38  # finite on disk, beyond float32 once scaled by 10
    in_dir = _subject_dir(tmp_path, arrays, slopes={"_flair": 10.0})
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == f"error: subject s: {in_dir / 's_flair.nii.gz'}: non-finite voxel at index {OUTSIDE}\n"


@pytest.mark.parametrize("ext", [".nii.gz", ".nii"])
@pytest.mark.parametrize("where", [INSIDE, OUTSIDE], ids=["inside", "outside"])
def test_label_outside_the_alphabet(tmp_path, capsys, slab_planes, where, ext):
    arrays = _arrays()
    arrays["_seg"][where] = 3
    in_dir = _subject_dir(tmp_path, arrays, ext)
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == (
        f"error: subject s: {in_dir / f's_seg{ext}'}: label value 3 at voxel {where} "
        "not in raw alphabet (0, 1, 2, 4)\n"
    )


# --- grids, compared on the full-grid headers ----------------------------------------

def test_channel_grid_mismatch(tmp_path, capsys):
    arrays = _arrays()
    arrays["_t2"] = np.zeros((24, 22, 21), np.float32)
    code, err = _augment(capsys, tmp_path, _subject_dir(tmp_path, arrays))
    assert code == 1
    assert err == (
        "error: subject s: channel grid mismatch: (24, 22, 21)/(1.0, 1.0, 1.0) vs (24, 22, 20)/(1.0, 1.0, 1.0)\n"
    )


def test_channel_spacing_mismatch(tmp_path, capsys):
    in_dir = _subject_dir(tmp_path, _arrays(), spacings={"_t1ce": (1.0, 1.0, 2.0)})
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == (
        "error: subject s: channel grid mismatch: (24, 22, 20)/(1.0, 1.0, 2.0) vs (24, 22, 20)/(1.0, 1.0, 1.0)\n"
    )


@pytest.mark.parametrize("change", ["shape", "spacing"])
def test_label_map_grid_mismatch(tmp_path, capsys, change):
    arrays = _arrays()
    spacings = None
    if change == "shape":
        arrays["_seg"] = np.zeros((25, 22, 20), np.uint8)
    else:
        spacings = {"_seg": (1.0, 0.5, 1.0)}
    code, err = _augment(capsys, tmp_path, _subject_dir(tmp_path, arrays, spacings=spacings))
    assert code == 1
    assert err == "error: subject s: label map grid does not match channels\n"


def test_patch_larger_than_the_volume(tmp_path, capsys):
    code, err = _augment(capsys, tmp_path, _subject_dir(tmp_path, _arrays()), patch=(25, 10, 8))
    assert code == 1
    assert err == "error: subject s: patch exceeds volume: patch (25, 10, 8) > shape (24, 22, 20)\n"


# --- gzip faults after the window's last plane ----------------------------------------

def _decoded_length(blob):
    d = zlib.decompressobj(31)
    try:
        return len(d.decompress(blob))
    except zlib.error:
        return None


def test_truncated_gzip_after_the_window(tmp_path, capsys, slab_planes):
    in_dir = _subject_dir(tmp_path, _arrays())
    path = in_dir / "s_t1.nii.gz"
    blob = path.read_bytes()[:-12]  # the trailer and the stream's last bytes
    window_end = nifti.VOX_OFFSET + 4 * SHAPE[0] * SHAPE[1] * 14  # through plane z = 13
    assert _decoded_length(blob) >= window_end
    path.write_bytes(blob)
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == (
        f"error: subject s: {path}: corrupt gzip "
        "(Compressed file ended before the end-of-stream marker was reached)\n"
    )


def test_bad_gzip_crc(tmp_path, capsys, slab_planes):
    in_dir = _subject_dir(tmp_path, _arrays())
    path = in_dir / "s_seg.nii.gz"
    blob = path.read_bytes()
    path.write_bytes(blob[:-8] + bytes([blob[-8] ^ 0xFF]) + blob[-7:])
    with pytest.raises(gzip.BadGzipFile) as excinfo:
        with gzip.open(path) as f:
            f.read()
    code, err = _augment(capsys, tmp_path, in_dir)
    assert code == 1
    assert err == f"error: subject s: {path}: corrupt gzip ({excinfo.value})\n"


# --- the same bytes -------------------------------------------------------------------

def test_plain_and_scaled_inputs_give_the_same_outputs(tmp_path, capsys, slab_planes):
    """A .nii subject, and one whose channel is stored scaled, augment to the
    bytes of the .nii.gz subject that holds the decoded values."""
    arrays = _arrays()
    stored = (arrays["_t1"] * 1000).astype(np.float32)
    slope = float(np.float32(0.001))  # as the header holds it
    decoded = dict(arrays, _t1=(stored.astype(np.float64) * slope + 0.0).astype(np.float32))
    runs = {
        "ref": _subject_dir(tmp_path / "ref", decoded),
        "plain": _subject_dir(tmp_path / "plain", decoded, ".nii"),
        "scaled": _subject_dir(tmp_path / "scaled", dict(arrays, _t1=stored), slopes={"_t1": slope}),
    }
    for name, in_dir in runs.items():
        code, err = _augment(capsys, tmp_path, in_dir, out=f"{name}_out")
        assert code == 0, err
    digests = {name: _digest(tmp_path / f"{name}_out") for name in runs}
    assert digests["plain"] == digests["scaled"] == digests["ref"]


ALL_FIRE = (
    FLIP,
    {"kind": "rotation", "probability": 1.0, "max_deg": 30.0},
    {"kind": "scale", "probability": 1.0, "max_frac": 0.1},
    {"kind": "brightness", "probability": 1.0},
    {"kind": "elastic", "probability": 1.0, "sigma": 2.0, "grid_size": 4},
)
IO = (FLIP, {"kind": "brightness", "probability": 1.0})
# (pipeline, patch, digest): the outputs of the version that read whole grids
# and cropped afterwards; seed 3 puts the window off center by an odd offset
PINNED = {
    "all-five-ops": (ALL_FIRE, (24, 20, 17),
                     "a2edc460016ee9df5d09010711a211c1252f78fbafdc5b2fa3e2dec3c091fbd0"),
    "flip-brightness": (IO, (24, 20, 17),
                        "9fc716a293f18bed7803f7a69b37864b900567533bcffc0c78cd4b15ea15deca"),
    "whole-grid": (IO, (41, 37, 33),
                   "1a4437f94adb0c6dcbbcb2f8b2ca417bdbb9b8adf89abea82e858fae37f47702"),
}


# PINNED hashes .nii.gz bytes written by zlib 1.2.13 (zlib.ZLIB_RUNTIME_VERSION);
# another deflate implementation, such as zlib-ng, encodes the same voxels in
# other bytes. DECODED pins what voxaug computes for the same cases: each
# .nii.gz file decoded (its 352-byte header and its voxels), and the
# provenance JSON as it is.
DECODED = {
    "all-five-ops": "3e1fd6ab29afedd6c2697cf74f56ec38ebff1875fba515bf6e3a66a72cf3e01d",
    "flip-brightness": "26faa6feab8d2cd8184ff81f2a2e063940b4c2527880c24fa9acf524e9d8f66d",
    "whole-grid": "6626518a8ea376bc202b53773c4b4277968b3eb473fade3d50ca8bd872b039fe",
}


def _decoded_digest(directory):
    digest = hashlib.sha256()
    for p in sorted(directory.iterdir(), key=lambda p: p.name):
        data = p.read_bytes()
        digest.update(p.name.encode() + b"\0" + (gzip.decompress(data) if p.suffix == ".gz" else data))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["phantom", "--seed", "9", "--count", "3", "--shape", "41,37,33",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", sorted(PINNED))
@pytest.mark.parametrize(
    "threads, planes", [("1", None), ("2", None), ("2", 1), ("2", 7)],
    ids=["1-thread", "2-threads", "1-plane-slabs", "ragged-slabs"],
)
def test_augment_bytes_are_pinned(cohort, tmp_path, capsys, monkeypatch, case, threads, planes):
    monkeypatch.setenv("VOXAUG_THREADS", threads)
    if planes is not None:  # 33 planes: 33 slabs of 1, or 4 of 7 and one of 5
        monkeypatch.setattr(volume, "SLAB_PLANES", planes)
    pipeline, patch, digest = PINNED[case]
    code, err = _augment(capsys, tmp_path, cohort, patch=patch, pipeline=pipeline)
    assert code == 0, err
    assert _digest(tmp_path / "out") == digest


@pytest.mark.parametrize("case", sorted(DECODED))
@pytest.mark.parametrize("strategy", [None, "default"], ids=["rle", "default-strategy"])
def test_augment_decoded_bytes_are_pinned(cohort, tmp_path, capsys, monkeypatch, case, strategy):
    """The decoded pins hold whatever deflate encodes the files: here zlib's
    default strategy in place of run-length matching, which writes other
    .nii.gz bytes."""
    monkeypatch.setenv("VOXAUG_THREADS", "2")
    if strategy is not None:
        monkeypatch.setattr(nifti, "_DEFLATE", nifti._DEFLATE[:4] + (zlib.Z_DEFAULT_STRATEGY,))
    pipeline, patch, digest = PINNED[case]
    code, err = _augment(capsys, tmp_path, cohort, patch=patch, pipeline=pipeline)
    assert code == 0, err
    assert _decoded_digest(tmp_path / "out") == DECODED[case]
    assert (_digest(tmp_path / "out") == digest) == (strategy is None)


@pytest.mark.parametrize("planes", [1, 8, 5], ids=["1-plane", "8-planes", "ragged"])
def test_resampled_bytes_do_not_depend_on_the_position_slab_size(cohort, tmp_path, capsys,
                                                                 monkeypatch, planes):
    """All five ops resample each subject z-slab by z-slab (17 planes: 17
    slabs of 1, 2 of 8 and one of 1, or 3 of 5 and one of 2), straight into
    the writers; the bytes are the pinned ones."""
    monkeypatch.setenv("VOXAUG_THREADS", "2")
    monkeypatch.setattr(volume, "SLAB_PLANES", planes)
    pipeline, patch, digest = PINNED["all-five-ops"]
    code, err = _augment(capsys, tmp_path, cohort, patch=patch, pipeline=pipeline)
    assert code == 0, err
    assert _digest(tmp_path / "out") == digest
