import gzip
import os
import re
import stat
import struct
import zlib

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxaug import nifti, volume
from voxaug.augment import rotate_by
from voxaug.nifti import (
    _parse_header,
    atomic_write_bytes,
    read_grid,
    read_labels,
    read_volume,
    write_volume,
)
from voxaug.volume import LabelMap, Volume, center_box, make_phantom


def _fabricate(
    shape=(2, 3, 4),
    spacing=(1.0, 1.0, 1.0),
    datatype=16,
    bitpix=32,
    sizeof_hdr=348,
    dim0=3,
    magic=b"n+1\x00",
    vox_offset=352.0,
    slope=1.0,
    inter=0.0,
    payload=b"",
):
    """Build file bytes with struct only - independent of the writer under test."""
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, sizeof_hdr)
    struct.pack_into("<8h", hdr, 40, dim0, *shape, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, vox_offset)
    struct.pack_into("<f", hdr, 112, slope)
    struct.pack_into("<f", hdr, 116, inter)
    hdr[344:348] = magic
    return bytes(hdr) + b"\x00\x00\x00\x00" + payload


# --- round trips ---------------------------------------------------------------

@pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
def test_volume_round_trip_bitwise(tmp_path, ext):
    rng = np.random.default_rng(11)
    vol = Volume(
        data=rng.normal(size=(7, 5, 9)).astype(np.float32),
        spacing=(1.0, 1.0, 2.5),
        name="orig",
    )
    path = tmp_path / f"vol{ext}"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.data.dtype == np.float32
    np.testing.assert_array_equal(back.data, vol.data)
    assert back.spacing == (1.0, 1.0, 2.5)
    assert back.name == "vol"


@pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
def test_labels_round_trip_bitwise(tmp_path, ext):
    rng = np.random.default_rng(12)
    data = rng.choice([0, 1, 2, 4], size=(6, 6, 5)).astype(np.uint8)
    lab = LabelMap(data=data, spacing=(0.7, 1.3, 2.0), convention="raw")
    path = tmp_path / f"seg{ext}"
    write_volume(lab, path)
    back = read_labels(path)
    assert isinstance(back, LabelMap)
    assert back.convention == "raw"
    assert back.data.dtype == np.uint8
    np.testing.assert_array_equal(back.data, data)
    assert back.spacing == pytest.approx((0.7, 1.3, 2.0))


def test_rewrite_is_byte_identical(tmp_path):
    vol = Volume(data=np.arange(60, dtype=np.float32).reshape(3, 4, 5), spacing=(1, 1, 1))
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_volume(vol, a)
    write_volume(vol, b)
    assert a.read_bytes() == b.read_bytes()


def test_full_size_zero_volume_round_trip(tmp_path):
    vol = Volume(data=np.zeros((240, 240, 155), dtype=np.float32), spacing=(1.0, 1.0, 1.0))
    path = tmp_path / "big.nii.gz"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.data.shape == (240, 240, 155)
    assert back.spacing == (1.0, 1.0, 1.0)
    assert not back.data.any()


# --- dual-route checks -----------------------------------------------------------

def test_written_header_fields_via_struct(tmp_path):
    """Parse the writer's output with struct alone and check every field."""
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    vol = Volume(data=data, spacing=(2.0, 0.5, 1.25))
    path = tmp_path / "v.nii"
    write_volume(vol, path)
    blob = path.read_bytes()

    assert struct.unpack_from("<i", blob, 0)[0] == 348
    assert struct.unpack_from("<8h", blob, 40) == (3, 2, 3, 4, 1, 1, 1, 1)
    assert struct.unpack_from("<h", blob, 70)[0] == 16  # float32
    assert struct.unpack_from("<h", blob, 72)[0] == 32
    pixdim = struct.unpack_from("<8f", blob, 76)
    assert pixdim[1:4] == (2.0, 0.5, 1.25)
    assert struct.unpack_from("<f", blob, 108)[0] == 352.0
    assert struct.unpack_from("<2f", blob, 112) == (1.0, 0.0)
    assert blob[344:348] == b"n+1\x00"
    # x varies fastest on disk
    assert blob[352:] == data.ravel(order="F").astype("<f4").tobytes()


def test_gzip_member_is_deterministic(tmp_path):
    lab = LabelMap(np.ones((4, 4, 4), dtype=np.uint8), convention="raw")
    path = tmp_path / "l.nii.gz"
    write_volume(lab, path)
    blob = path.read_bytes()
    assert blob[:2] == b"\x1f\x8b"
    assert blob[3] == 0  # FLG: no FNAME, FEXTRA or FCOMMENT field
    assert blob[4:8] == b"\x00\x00\x00\x00"  # gzip MTIME field zeroed
    member = zlib.decompressobj(31)
    member.decompress(blob)
    assert member.eof and member.unused_data == b""  # a single member


def _level9(tmp_path, obj, name):
    """``obj`` as the gzip.compress level-9 file every earlier version wrote."""
    plain = tmp_path / f"{name}.nii"
    write_volume(obj, plain)
    path = tmp_path / f"{name}-level9.nii.gz"
    path.write_bytes(gzip.compress(plain.read_bytes(), 9, mtime=0))
    return path


@pytest.mark.parametrize("rotated", [False, True], ids=["phantom", "rotated"])
def test_files_decode_like_level9_files_and_are_no_larger(tmp_path, rotated):
    sample = make_phantom(1, shape=(64, 64, 64), subject_id="p")
    if rotated:
        sample = rotate_by(sample, (0.0, 0.0, 17.0))
    size, size9 = 0, 0
    for i, obj in enumerate((*sample.channels, sample.labels)):
        path = tmp_path / f"v{i}.nii.gz"
        write_volume(obj, path)
        legacy = _level9(tmp_path, obj, f"v{i}")
        reader = read_labels if isinstance(obj, LabelMap) else read_volume
        np.testing.assert_array_equal(reader(path).data, reader(legacy).data)
        np.testing.assert_array_equal(reader(path).data, obj.data)
        size += path.stat().st_size
        size9 += legacy.stat().st_size
    assert size <= size9


@pytest.mark.parametrize("planes", [1, None], ids=["1-plane-slabs", "default-slabs"])
def test_written_bytes_are_one_shot_deflate_of_the_payload(tmp_path, monkeypatch, planes):
    """Compressed in 80 steps of one z-plane or in the default steps, the
    file is one deflate of the whole payload."""
    if planes is not None:
        monkeypatch.setattr(volume, "SLAB_PLANES", planes)
    rng = np.random.default_rng(3)
    vol = Volume(rng.normal(size=(64, 64, 80)).round(1).astype(np.float32), spacing=(1, 1, 2))
    write_volume(vol, tmp_path / "v.nii")
    write_volume(vol, tmp_path / "v.nii.gz")
    deflate = zlib.compressobj(9, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
    one_shot = deflate.compress((tmp_path / "v.nii").read_bytes()) + deflate.flush()
    assert (tmp_path / "v.nii.gz").read_bytes() == one_shot


def _two_members(tmp_path, obj, name):
    plain = tmp_path / f"{name}.nii"
    write_volume(obj, plain)
    blob = plain.read_bytes()
    path = tmp_path / f"{name}-two.nii.gz"
    path.write_bytes(gzip.compress(blob[:500], mtime=0) + gzip.compress(blob[500:], mtime=0))
    return path


@pytest.mark.parametrize("legacy", [_level9, _two_members], ids=["level9", "two-members"])
def test_reads_earlier_gzip_files(tmp_path, legacy):
    vol = Volume(np.arange(6 * 7 * 8, dtype=np.float32).reshape(6, 7, 8), spacing=(1, 2, 3))
    back = read_volume(legacy(tmp_path, vol, "v"))
    np.testing.assert_array_equal(back.data, vol.data)
    assert back.spacing == (1.0, 2.0, 3.0)


def test_reads_foreign_int16_file_with_scaling(tmp_path):
    """A file our writer never produces: int16 voxels with scl_slope/inter."""
    arr = np.arange(24).reshape(2, 3, 4)
    payload = arr.ravel(order="F").astype("<i2").tobytes()
    blob = _fabricate(
        shape=(2, 3, 4),
        spacing=(2.0, 0.5, 1.25),
        datatype=4,
        bitpix=16,
        slope=2.5,
        inter=-1.0,
        payload=payload,
    )
    path = tmp_path / "foreign.nii"
    path.write_bytes(blob)
    vol = read_volume(path)
    np.testing.assert_allclose(vol.data, (arr * 2.5 - 1.0).astype(np.float32))
    assert vol.spacing == pytest.approx((2.0, 0.5, 1.25))


@pytest.mark.parametrize(
    "datatype, bitpix, dtype, slope, inter",
    [(16, 32, "<f4", 1.0, 0.0), (4, 16, "<i2", 1.0, 0.0), (16, 32, "<f4", 2.5, -1.0)],
    ids=["float32", "int16", "scaled"],
)
def test_read_volume_returns_c_contiguous_float32(tmp_path, datatype, bitpix, dtype, slope, inter):
    arr = np.arange(24).reshape(2, 3, 4)
    payload = arr.ravel(order="F").astype(dtype).tobytes()
    blob = _fabricate(datatype=datatype, bitpix=bitpix, slope=slope, inter=inter, payload=payload)
    path = tmp_path / "c.nii"
    path.write_bytes(blob)
    vol = read_volume(path)
    assert vol.data.dtype == np.float32
    assert vol.data.flags.c_contiguous
    np.testing.assert_array_equal(vol.data, (arr * slope + inter).astype(np.float32))


def test_reads_foreign_gzipped_file(tmp_path):
    payload = np.zeros(8, dtype="<f8").tobytes()
    blob = _fabricate(shape=(2, 2, 2), datatype=64, bitpix=64, payload=payload)
    path = tmp_path / "foreign.nii.gz"
    path.write_bytes(gzip.compress(blob))
    vol = read_volume(path)
    assert vol.data.shape == (2, 2, 2)
    assert vol.data.dtype == np.float32


# --- error reporting -------------------------------------------------------------

def _write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def test_truncated_header(tmp_path):
    path = _write(tmp_path, "t.nii", b"x" * 100)
    with pytest.raises(ValueError, match="truncated header"):
        read_volume(path)


def test_truncated_data(tmp_path):
    blob = _fabricate(shape=(4, 4, 4), payload=b"\x00" * 16)  # needs 256 bytes
    path = _write(tmp_path, "t.nii", blob)
    with pytest.raises(ValueError, match="truncated data"):
        read_volume(path)


def test_bad_magic_reports_offset(tmp_path):
    path = _write(tmp_path, "m.nii", _fabricate(magic=b"ni1\x00"))
    with pytest.raises(ValueError, match="offset 344"):
        read_volume(path)


def test_big_endian_rejected_at_offset_zero(tmp_path):
    byteswapped = struct.unpack("<i", struct.pack(">i", 348))[0]
    path = _write(tmp_path, "be.nii", _fabricate(sizeof_hdr=byteswapped))
    with pytest.raises(ValueError, match="offset 0.*big-endian"):
        read_volume(path)


def test_four_dimensional_rejected(tmp_path):
    blob = _fabricate(dim0=4, payload=b"\x00" * 96)
    path = _write(tmp_path, "4d.nii", blob)
    with pytest.raises(ValueError, match=r"expected 3-D volume, got dim\[0\]=4"):
        read_volume(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_vox_offset_names_the_path(tmp_path, bad):
    path = _write(tmp_path, "vo.nii", _fabricate(vox_offset=float(bad), payload=b"\x00" * 96))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad vox_offset {bad} at offset 108")):
        read_volume(path)


def _with_voxel(dtype, index, value):
    data = np.zeros(24, dtype=dtype)
    data[index] = value
    return data.tobytes()


@pytest.mark.parametrize(
    "datatype, bitpix, payload, reader, message",
    [
        (2, 8, _with_voxel("u1", 23, 3), read_labels,
         "label value 3 at voxel (1, 2, 3) not in raw alphabet (0, 1, 2, 4)"),
        (16, 32, _with_voxel("<f4", 5, np.nan), read_volume, "non-finite voxel at index (1, 2, 0)"),
    ],
    ids=["label-outside-alphabet", "nonfinite-float"],
)
def test_rejected_voxel_payload_names_the_path(tmp_path, datatype, bitpix, payload, reader, message):
    path = _write(tmp_path, "v.nii", _fabricate(datatype=datatype, bitpix=bitpix, payload=payload))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        reader(path)


def test_unsupported_datatype_code(tmp_path):
    blob = _fabricate(datatype=512, payload=b"\x00" * 96)
    path = _write(tmp_path, "dt.nii", blob)
    with pytest.raises(ValueError, match="unsupported datatype code 512"):
        read_volume(path)


def test_float_file_rejected_as_labels(tmp_path):
    vol = Volume(np.zeros((3, 3, 3), dtype=np.float32))
    path = tmp_path / "f.nii"
    write_volume(vol, path)
    with pytest.raises(ValueError, match="integer voxel type required"):
        read_labels(path)


def test_scaled_file_rejected_as_labels(tmp_path):
    payload = np.zeros(24, dtype="u1").tobytes()
    blob = _fabricate(datatype=2, bitpix=8, slope=3.0, payload=payload)
    path = _write(tmp_path, "s.nii", blob)
    with pytest.raises(ValueError, match="cannot be labels"):
        read_labels(path)


def test_gz_extension_without_gzip_magic(tmp_path):
    path = _write(tmp_path, "fake.nii.gz", _fabricate(payload=b"\x00" * 96))
    with pytest.raises(ValueError, match="no gzip magic"):
        read_volume(path)


def test_write_rejects_plain_arrays(tmp_path):
    with pytest.raises(TypeError, match="expected Volume or LabelMap"):
        write_volume(np.zeros((2, 2, 2)), tmp_path / "x.nii")


@pytest.mark.parametrize("make", [Volume, LabelMap], ids=["volume", "labels"])
@pytest.mark.parametrize("shape", [(32768, 1, 1), (1, 1, 40000)])
def test_axis_above_the_int16_dim_limit_is_refused_before_a_file_is_opened(tmp_path, make, shape):
    """NIfTI-1 stores each axis length in an int16, so a longer axis cannot
    be written: it is refused in one line that names the limit, and no file
    (not even a temp file) is left."""
    with pytest.raises(ValueError, match="limit of 32767") as caught:
        write_volume(make(np.zeros(shape, np.uint8)), tmp_path / "big.nii.gz")
    assert "\n" not in str(caught.value)
    assert list(tmp_path.iterdir()) == []


def test_axis_at_the_int16_dim_limit_round_trips(tmp_path):
    data = np.arange(32767, dtype=np.float32).reshape(32767, 1, 1)
    write_volume(Volume(data), tmp_path / "long.nii.gz")
    np.testing.assert_array_equal(read_volume(tmp_path / "long.nii.gz").data, data)


@pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
def test_canonical_label_map_is_refused_and_no_file_is_left(tmp_path, ext):
    """A label file holds raw BraTS labels: a canonical map (class 3 for
    enhancing tumor) would be read back as an unknown raw label, so it is
    refused in one line that names the conversion, and nothing is written."""
    labels = LabelMap(np.array([[[0, 1], [2, 3]]], np.uint8), convention="canonical")
    with pytest.raises(ValueError, match="canonical_to_raw_labels") as caught:
        write_volume(labels, tmp_path / f"seg{ext}")
    assert "\n" not in str(caught.value)
    assert list(tmp_path.iterdir()) == []


def test_nonpositive_pixdim_rejected(tmp_path):
    blob = _fabricate(spacing=(1.0, 0.0, 1.0), payload=b"\x00" * 96)
    path = _write(tmp_path, "p.nii", blob)
    with pytest.raises(ValueError, match="offset 76"):
        read_volume(path)


def _truncated(gz):
    return gz[: len(gz) // 2]


def _bad_block_type(gz):
    # byte 10 opens the deflate stream; BTYPE bits 11 are reserved
    return gz[:10] + bytes([gz[10] | 0b110]) + gz[11:]


def _bad_crc(gz):
    return gz[:-8] + bytes([gz[-8] ^ 0xFF]) + gz[-7:]


@pytest.mark.parametrize(
    "corrupt, cause",
    [(_truncated, EOFError), (_bad_block_type, zlib.error), (_bad_crc, gzip.BadGzipFile)],
    ids=["truncated", "flipped-byte", "bad-crc"],
)
def test_corrupt_gzip_names_the_path(tmp_path, corrupt, cause):
    gz = gzip.compress(_fabricate(payload=b"\x00" * 96), mtime=0)
    path = _write(tmp_path, "c.nii.gz", corrupt(gz))
    with pytest.raises(ValueError, match=re.escape(f"{path}: corrupt gzip (")) as excinfo:
        read_volume(path)
    assert isinstance(excinfo.value.__cause__, cause)


# --- fuzzed files ----------------------------------------------------------------

def _valid_file(shape, datatype, spacing=(1.0, 1.0, 1.0)):
    dtype = nifti._DTYPES[datatype]
    payload = np.arange(int(np.prod(shape))).astype(dtype).tobytes()
    return _fabricate(shape=shape, spacing=spacing, datatype=datatype,
                      bitpix=8 * dtype.itemsize, payload=payload)


def _assert_rejected_by_name(tmp_path, name, blob):
    path = _write(tmp_path, name, blob)
    with pytest.raises(ValueError) as excinfo:
        read_volume(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1  # named once, at the front


_shapes = st.tuples(*[st.integers(1, 6)] * 3)
_datatypes = st.sampled_from(sorted(nifti._DTYPES))
_exts = st.sampled_from([".nii", ".nii.gz"])


def _encode(blob, ext):
    return gzip.compress(blob, mtime=0) if ext == ".nii.gz" else blob


@settings(max_examples=100)
@given(shape=_shapes, datatype=_datatypes, ext=_exts, data=st.data())
def test_fuzz_truncation_at_any_length(tmp_path_factory, shape, datatype, ext, data):
    blob = _encode(_valid_file(shape, datatype), ext)
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    _assert_rejected_by_name(tmp_path_factory.mktemp("cut"), f"t{ext}", blob[:cut])


@given(blob=st.binary(max_size=400), data=st.data())
def test_fuzz_parse_header_raises_only_named_value_errors(tmp_path_factory, blob, data):
    # random bytes, and a valid header with random bytes written over it,
    # each read from a file, as a header's error takes its path from the read
    header = bytearray(_valid_file((2, 3, 4), 16)[: nifti.VOX_OFFSET])
    start = data.draw(st.integers(0, len(header)), label="start")
    header[start : start + len(blob)] = blob
    tmp = tmp_path_factory.mktemp("hdr")
    for i, candidate in enumerate((blob, bytes(header[: nifti.VOX_OFFSET]))):
        path = _write(tmp, f"fuzz{i}.nii", candidate)
        try:
            grid = read_grid(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            hdr = _parse_header(candidate)
            assert (hdr["shape"], hdr["spacing"]) == grid
            assert hdr["datatype"] in nifti._DTYPES
            assert all(v >= 1 for v in hdr["shape"])
            assert hdr["vox_offset"] >= nifti.HEADER_SIZE


@given(
    field=st.sampled_from(["magic", "dims", "dim0", "datatype"]),
    ext=_exts,
    value=st.integers(-(2**15), 2**15 - 1),
)
def test_fuzz_bad_header_fields(tmp_path_factory, field, ext, value):
    if field == "magic":
        blob = _fabricate(magic=value.to_bytes(4, "little", signed=True), payload=b"\x00" * 96)
    elif field == "dims":
        blob = _fabricate(shape=(2, min(value, 0), 4), payload=b"\x00" * 96)
    elif field == "dim0":
        blob = _fabricate(dim0=value if value != 3 else 4, payload=b"\x00" * 96)
    else:
        code = value if value not in nifti._DTYPES else 0
        blob = _fabricate(datatype=code, payload=b"\x00" * 96)
    _assert_rejected_by_name(tmp_path_factory.mktemp("field"), f"f{ext}", _encode(blob, ext))


@given(shape=_shapes, datatype=_datatypes, data=st.data())
def test_fuzz_corrupt_gzip(tmp_path_factory, shape, datatype, data):
    blob = bytearray(gzip.compress(_valid_file(shape, datatype), mtime=0))
    at = data.draw(st.integers(2, len(blob) - 1), label="at")
    blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = _write(tmp_path_factory.mktemp("gz"), "c.nii.gz", bytes(blob))
    try:
        vol = read_volume(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:  # a flip the gzip checks cannot see decodes to some valid volume
        assert vol.data.dtype == np.float32


@settings(max_examples=20)
@given(
    shape=st.tuples(*[st.integers(1000, 2**15 - 1)] * 3),
    datatype=_datatypes,
    ext=_exts,
    body=st.integers(0, 4096),
)
def test_fuzz_huge_dims_over_a_small_body_never_allocate(tmp_path_factory, shape, datatype, ext, body):
    blob = _encode(_fabricate(shape=shape, datatype=datatype, payload=b"\x00" * body), ext)
    path = _write(tmp_path_factory.mktemp("huge"), f"h{ext}", blob)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated data")):
            read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- windowed reads --------------------------------------------------------------

_BOXES = [
    None,
    (slice(0, 7), slice(0, 5), slice(0, 9)),
    (slice(2, 5), slice(1, 4), slice(3, 8)),
    (slice(6, 7), slice(4, 5), slice(8, 9)),
    (slice(0, 1), slice(None), slice(-4, None)),
]


@pytest.fixture(params=[1, 2, None, 32],
                ids=["1-plane-slabs", "ragged-slabs", "default-slabs", "one-slab"])
def slab_planes(request, monkeypatch):
    """Read slabs of the 9 planes: 1 plane each, 2 (four slabs and a ragged
    one), the default (4: two slabs and a ragged one), or one slab of all."""
    if request.param is not None:
        monkeypatch.setattr(volume, "SLAB_PLANES", request.param)
    return request.param


@pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
@pytest.mark.parametrize(
    "datatype, slope, inter",
    [(16, 1.0, 0.0), (4, 1.0, 0.0), (64, 1.0, 0.0), (16, 2.5, -1.0)],
    ids=["float32", "int16", "float64", "scaled"],
)
def test_windowed_read_is_the_window_of_the_full_grid(tmp_path, slab_planes, datatype, slope, inter, ext):
    dtype = nifti._DTYPES[datatype]
    stored = (np.random.default_rng(5).normal(size=(7, 5, 9)) * 100).astype(dtype)
    blob = _fabricate(shape=(7, 5, 9), datatype=datatype, bitpix=8 * dtype.itemsize,
                      slope=slope, inter=inter, payload=stored.ravel(order="F").tobytes())
    path = _write(tmp_path, f"v{ext}", _encode(blob, ext))
    expected = (stored.astype(np.float64) * slope + inter).astype(np.float32)
    for box in _BOXES:
        vol = read_volume(path, box=box)
        assert vol.data.dtype == np.float32 and vol.data.flags.c_contiguous
        assert vol.spacing == (1.0, 1.0, 1.0) and vol.name == "v"
        np.testing.assert_array_equal(vol.data, expected[box or ...])


@pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
@pytest.mark.parametrize("datatype", [2, 4], ids=["uint8", "int16"])
def test_windowed_label_read_is_the_window_of_the_full_grid(tmp_path, slab_planes, datatype, ext):
    dtype = nifti._DTYPES[datatype]
    stored = np.random.default_rng(6).choice([0, 1, 2, 4], size=(7, 5, 9)).astype(dtype)
    blob = _fabricate(shape=(7, 5, 9), datatype=datatype, bitpix=8 * dtype.itemsize,
                      payload=stored.ravel(order="F").tobytes())
    path = _write(tmp_path, f"s{ext}", _encode(blob, ext))
    for box in _BOXES:
        lab = read_labels(path, box=box)
        assert lab.data.dtype == np.uint8 and lab.data.flags.c_contiguous
        np.testing.assert_array_equal(lab.data, stored[box or ...])


@pytest.mark.parametrize("box", _BOXES[:4], ids=["full", "whole-box", "inner", "one-voxel"])
def test_windowed_read_names_the_first_bad_voxel_of_the_full_grid(tmp_path, slab_planes, box):
    """Bad voxels in several slabs, inside and outside the box: the error names
    the first of them in (x, y, z) order, which lies in the last slab."""
    data = np.zeros((7, 5, 9), np.float32)
    data[6, 0, 0], data[3, 2, 4], data[2, 4, 8] = np.inf, np.nan, -np.inf
    path = _write(tmp_path, "v.nii.gz", _encode(
        _fabricate(shape=(7, 5, 9), payload=data.ravel(order="F").tobytes()), ".nii.gz"))
    first = tuple(int(v) for v in np.argwhere(~np.isfinite(data))[0])
    assert first == (2, 4, 8)
    with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite voxel at index {first}")):
        read_volume(path, box=box)

    labels = np.zeros((7, 5, 9), np.int16)
    labels[6, 0, 0], labels[4, 1, 8], labels[4, 3, 0] = 7, -1, 3
    path = _write(tmp_path, "s.nii.gz", _encode(
        _fabricate(shape=(7, 5, 9), datatype=4, bitpix=16,
                   payload=labels.ravel(order="F").tobytes()), ".nii.gz"))
    message = "label value -1 at voxel (4, 1, 8) not in raw alphabet (0, 1, 2, 4)"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_labels(path, box=box)


@pytest.mark.parametrize("datatype, big", [(16, 3e38), (64, 1e308)], ids=["float32", "float64"])
def test_values_that_overflow_after_scaling_are_non_finite_without_a_warning(
    tmp_path, slab_planes, datatype, big
):
    dtype = nifti._DTYPES[datatype]
    stored = np.ones((7, 5, 9), dtype)
    stored[1, 2, 3] = big  # finite on disk; times 10, beyond float32 (or float64)
    path = _write(tmp_path, "v.nii", _fabricate(shape=(7, 5, 9), datatype=datatype,
                                                bitpix=8 * dtype.itemsize, slope=10.0,
                                                payload=stored.ravel(order="F").tobytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second stderr line
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite voxel at index (1, 2, 3)")):
            read_volume(path, box=(slice(4, 6), slice(0, 2), slice(5, 7)))


@pytest.mark.parametrize(
    "box", [(slice(0, 2), slice(0, 0), slice(None)), (slice(0, 2, 2), slice(None), slice(None)),
            (slice(None), slice(None))],
    ids=["empty", "strided", "two-slices"],
)
def test_bad_box_is_rejected_by_name(tmp_path, box):
    path = _write(tmp_path, "v.nii", _fabricate(payload=b"\x00" * 96))
    with pytest.raises(ValueError, match=re.escape(f"{path}: box ")):
        read_volume(path, box=box)


@pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
def test_read_grid_reads_the_header_only(tmp_path, ext):
    blob = _fabricate(shape=(4, 5, 6), spacing=(0.5, 1.0, 3.0), payload=b"\x00" * 16)  # truncated data
    path = _write(tmp_path, f"g{ext}", _encode(blob, ext))
    assert read_grid(path) == ((4, 5, 6), (0.5, 1.0, 3.0))


@pytest.fixture(scope="module")
def full_size_files(tmp_path_factory):
    """A BraTS-sized float32 channel and label map, 240x240x155."""
    root = tmp_path_factory.mktemp("full")
    sample = make_phantom(2, shape=(240, 240, 155), subject_id="big")
    write_volume(sample.channels[0], root / "t1.nii.gz")
    write_volume(sample.labels, root / "seg.nii.gz")
    return root


def _peak(fn):
    fn()  # first-use allocations are not the call's
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# what a .nii.gz stream holds whatever its slab size: gzip's read buffers
# and zlib's window on a read (0.46 MB measured), zlib's compressor state
# on a write (0.3 MB)
_STREAM_BUFFERS = 1 << 19


@pytest.mark.parametrize("name, reader", [("t1", read_volume), ("seg", read_labels)])
def test_read_peak_memory_is_bounded(full_size_files, name, reader):
    """A full-grid read holds its array, one slab and the stream's buffers
    (1.04x for a float32 channel, 1.08x for a label map; 2.25x and 2.00x
    before reads streamed); a windowed read its patch, one slab and the
    stream's buffers, never the full grid. With 32-plane read slabs the
    window's bound was 23.1 MB (float32) and 5.79 MB (labels); at 4 planes
    it is 10.8 MB and 3.08 MB, and the reads peak at 9.77 MB and 2.79 MB."""
    path = full_size_files / f"{name}.nii.gz"
    full, peak = _peak(lambda: reader(path))
    assert full.shape == (240, 240, 155)
    assert peak <= 1.3 * full.data.nbytes
    slab = volume.SLAB_PLANES * 240 * 240 * full.data.itemsize
    box = center_box(full.shape, (128, 128, 128))
    patch, peak = _peak(lambda: reader(path, box=box))
    np.testing.assert_array_equal(patch.data, full.data[box])
    assert peak <= patch.data.nbytes + 2 * slab + _STREAM_BUFFERS
    assert peak < 0.5 * full.data.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_write_peak_memory_is_a_few_slabs_beyond_the_input(tmp_path, order):
    """Writing a 128^3 float32 volume holds, beyond its input, the
    compressor's state, one slab in disk order (a copy of C-ordered data,
    a view of Fortran-ordered data) and that slab's deflate output, about
    twice its size while zlib joins its blocks: 1.15 MB (C) and 0.88 MB
    (F) at 4-plane slabs. Compressing 1 MiB at a time held 3.68 MB and
    2.64 MB."""
    data = np.random.default_rng(8).random((128, 128, 128), dtype=np.float32)
    vol = Volume(np.asarray(data, order=order), checked=True)
    _, peak = _peak(lambda: write_volume(vol, tmp_path / "v.nii.gz"))
    slab = volume.SLAB_PLANES * 128 * 128 * 4
    assert peak <= _STREAM_BUFFERS + 4 * slab, f"{(peak - _STREAM_BUFFERS) / slab:.2f} slabs"
    np.testing.assert_array_equal(read_volume(tmp_path / "v.nii.gz").data, data)


# --- atomic writes ---------------------------------------------------------------

def test_atomic_write_gets_the_umask_default_mode(tmp_path):
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain.bin", "wb") as f:
            f.write(b"x")
        atomic_write_bytes(tmp_path / "atomic.bin", b"x")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "atomic.bin").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.bin").stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.bin", "plain.bin"]


def test_atomic_group_renames_together_or_not_at_all(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    with nifti.atomic_group():
        atomic_write_bytes(tmp_path / "a.json", b"{}")
        write_volume(vol, tmp_path / "v.nii.gz")
        assert not (tmp_path / "a.json").exists() and not (tmp_path / "v.nii.gz").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "v.nii.gz"]
    with pytest.raises(OSError, match="disk full"):
        with nifti.atomic_group():
            atomic_write_bytes(tmp_path / "b.json", b"{}")
            write_volume(vol, tmp_path / "a.json")
            raise OSError("disk full")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "v.nii.gz"]
    assert (tmp_path / "a.json").read_bytes() == b"{}"
