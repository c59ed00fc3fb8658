"""Minimal single-file NIfTI-1 reader/writer (.nii and .nii.gz).

Only the subset this toolkit needs: 3-D scalar volumes, little-endian,
348-byte header + 4-byte extension flag, data at byte offset 352. Images are
written as float32 (datatype 16), label maps as uint8 (datatype 2). Voxel
spacing travels in pixdim[1..3].

On disk the x index varies fastest (Fortran voxel order, as in the NIfTI
standard); in memory arrays are C-contiguous with ``data[i, j, k]`` at
(x=i, y=j, z=k), so (de)serialization uses ``order="F"`` raveling.

Writes are deterministic byte-for-byte: gzip members carry mtime 0 and no
filename field. Files are written to a temp name and atomically renamed.
"""

import gzip
import os
import secrets
import struct
import zlib
from pathlib import Path

import numpy as np

from .volume import LabelMap, Volume

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_OFFSET = 344
MAGIC = b"n+1\x00"

DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16
DT_FLOAT64 = 64

_DTYPES = {
    DT_UINT8: np.dtype("u1"),
    DT_INT16: np.dtype("<i2"),
    DT_INT32: np.dtype("<i4"),
    DT_FLOAT32: np.dtype("<f4"),
    DT_FLOAT64: np.dtype("<f8"),
}


def _build_header(shape, spacing, datatype: int, bitpix: int) -> bytes:
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)  # sizeof_hdr
    dim = (3, shape[0], shape[1], shape[2], 1, 1, 1, 1)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, bitpix)
    pixdim = (1.0, spacing[0], spacing[1], spacing[2], 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))  # vox_offset
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    hdr[123] = 2  # xyzt_units: millimeters
    descrip = b"voxaug"
    hdr[148 : 148 + len(descrip)] = descrip
    hdr[MAGIC_OFFSET : MAGIC_OFFSET + 4] = MAGIC
    return bytes(hdr)


def _is_gzip_path(path) -> bool:
    return str(path).endswith(".gz")


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to a temp file beside ``path``, then rename it over
    ``path``; on any failure the temp file is removed and ``path`` is untouched.

    The temp file is created with mode 0o666, so the written file gets the
    umask's default mode, as with a plain ``open(path, "wb")``."""
    path = Path(path)
    tmp = path.parent / f"tmp{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_volume(obj: Volume | LabelMap, path) -> None:
    """Write a Volume (float32) or LabelMap (uint8) as single-file NIfTI-1."""
    if isinstance(obj, Volume):
        datatype, bitpix = DT_FLOAT32, 32
        raw = np.ascontiguousarray(obj.data, dtype="<f4")
    elif isinstance(obj, LabelMap):
        datatype, bitpix = DT_UINT8, 8
        raw = np.ascontiguousarray(obj.data, dtype="u1")
    else:
        raise TypeError(f"expected Volume or LabelMap, got {type(obj).__name__}")
    header = _build_header(raw.shape, obj.spacing, datatype, bitpix)
    body = header + b"\x00\x00\x00\x00" + raw.ravel(order="F").tobytes()
    if _is_gzip_path(path):
        body = gzip.compress(body, mtime=0)
    atomic_write_bytes(path, body)


def _read_raw(path) -> bytes:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: corrupt gzip ({exc})") from exc
    elif _is_gzip_path(path):
        raise ValueError(f"{path}: .gz extension but no gzip magic at offset 0")
    return blob


def _parse_header(blob: bytes, path="<bytes>") -> dict:
    if len(blob) < VOX_OFFSET:
        raise ValueError(
            f"{path}: truncated header, got {len(blob)} bytes, need at least {VOX_OFFSET}"
        )
    (sizeof_hdr,) = struct.unpack_from("<i", blob, 0)
    if sizeof_hdr != HEADER_SIZE:
        raise ValueError(
            f"{path}: bad sizeof_hdr {sizeof_hdr} at offset 0 (expected {HEADER_SIZE}; "
            "big-endian files are not supported)"
        )
    magic = blob[MAGIC_OFFSET : MAGIC_OFFSET + 4]
    if magic != MAGIC:
        raise ValueError(
            f"{path}: bad magic {magic!r} at offset {MAGIC_OFFSET} (expected {MAGIC!r})"
        )
    dim = struct.unpack_from("<8h", blob, 40)
    if dim[0] != 3:
        raise ValueError(f"{path}: expected 3-D volume, got dim[0]={dim[0]}")
    shape = tuple(int(v) for v in dim[1:4])
    if any(v < 1 for v in shape):
        raise ValueError(f"{path}: bad dimensions {shape} at offset 40")
    (datatype,) = struct.unpack_from("<h", blob, 70)
    if datatype not in _DTYPES:
        raise ValueError(f"{path}: unsupported datatype code {datatype} at offset 70")
    pixdim = struct.unpack_from("<8f", blob, 76)
    spacing = tuple(float(v) for v in pixdim[1:4])
    if any(not np.isfinite(v) or v <= 0 for v in spacing):
        raise ValueError(f"{path}: nonpositive pixdim {spacing} at offset 76")
    (vox_offset,) = struct.unpack_from("<f", blob, 108)
    vox_offset = int(vox_offset)
    if vox_offset < HEADER_SIZE:
        raise ValueError(f"{path}: bad vox_offset {vox_offset} at offset 108")
    slope, inter = struct.unpack_from("<2f", blob, 112)
    return {
        "shape": shape,
        "spacing": spacing,
        "datatype": datatype,
        "vox_offset": vox_offset,
        "scl_slope": float(slope),
        "scl_inter": float(inter),
    }


def _volume_name(path) -> str:
    name = Path(path).name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def read_volume(path, as_labels: bool = False) -> Volume | LabelMap:
    """Read a 3-D NIfTI-1 file; ``as_labels=True`` returns a raw LabelMap."""
    blob = _read_raw(path)
    hdr = _parse_header(blob, path=path)
    dtype = _DTYPES[hdr["datatype"]]
    shape = hdr["shape"]
    nbytes = int(np.prod(shape)) * dtype.itemsize
    start = hdr["vox_offset"]
    if len(blob) < start + nbytes:
        raise ValueError(
            f"{path}: truncated data, expected {nbytes} bytes at offset {start}, "
            f"got {len(blob) - start}"
        )
    flat = np.frombuffer(blob, dtype=dtype, count=int(np.prod(shape)), offset=start)
    data = np.ascontiguousarray(flat.reshape(shape, order="F"))
    slope, inter = hdr["scl_slope"], hdr["scl_inter"]
    scaled = slope not in (0.0, 1.0) or inter != 0.0
    if as_labels:
        if dtype.kind != "u" and dtype.kind != "i":
            raise ValueError(
                f"{path}: cannot load datatype code {hdr['datatype']} as labels "
                "(integer voxel type required)"
            )
        if scaled:
            raise ValueError(f"{path}: scaled data (scl_slope/scl_inter) cannot be labels")
        return LabelMap(data=data, spacing=hdr["spacing"], convention="raw")
    fdata = data.astype(np.float64)
    if scaled:
        fdata = fdata * slope + inter
    return Volume(data=fdata.astype(np.float32), spacing=hdr["spacing"], name=_volume_name(path))


def read_labels(path) -> LabelMap:
    return read_volume(path, as_labels=True)
