import gzip
import os
import re
import stat
import struct
import zlib

import numpy as np
import pytest

from voxaug.nifti import atomic_write_bytes, read_labels, read_volume, write_volume
from voxaug.volume import LabelMap, Volume


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
    assert blob[4:8] == b"\x00\x00\x00\x00"  # gzip MTIME field zeroed


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
