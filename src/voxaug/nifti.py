"""Minimal single-file NIfTI-1 reader/writer (.nii and .nii.gz).

Only the subset this toolkit needs: 3-D scalar volumes, little-endian,
348-byte header + 4-byte extension flag, data at byte offset 352. Images are
written as float32 (datatype 16), label maps as uint8 (datatype 2). Voxel
spacing travels in pixdim[1..3].

On disk the x index varies fastest (Fortran voxel order, as in the NIfTI
standard); in memory arrays are C-contiguous with ``data[i, j, k]`` at
(x=i, y=j, z=k), so both directions transpose slabs of whole z-planes.

A ``.nii.gz`` file is written as one gzip member with mtime 0 and no
filename field, whose deflate stream uses zlib's run-length strategy
(``Z_RLE``); any gzip reader decodes it. Writes are deterministic
byte-for-byte: :func:`volume_writer` opens the file, writes the header and
then takes the voxels in runs of whole z-planes, as a caller produces them,
through one compressor whose output does not depend on how the planes were
split. :func:`write_volume` is that writer fed a whole array, so there is
one deflate path. Files are written to a temp name and atomically renamed;
:func:`atomic_group` renames several files together.

Reads accept any gzip file, multi-member ones included, and never allocate
more voxels than the file can hold. They stream too: the header first, then
z-planes inflated into one reused slab buffer. Each slab is checked voxel by
voxel (non-finite values, or labels outside the raw alphabet), and its part
of the requested box is copied into a C-ordered array in (x, z) tiles. The
box is the whole grid by default; ``augment`` asks for its patch window, so
it never holds a full-size array. Every voxel is still decoded and checked,
the stream is read to its end (so a gzip CRC is checked), and an error
names the first bad voxel in (x, y, z) order by its full-grid index.
"""

import contextlib
import contextvars
import gzip
import os
import secrets
import struct
import zlib
from pathlib import Path

import numpy as np

from .volume import RAW_LABELS, LabelMap, Volume, bad_voxel_error, earlier_bad_voxel

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_OFFSET = 344
MAGIC = b"n+1\x00"
NIFTI_EXTS = (".nii.gz", ".nii")

DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16
DT_FLOAT64 = 64

_GZIP_MAGIC = b"\x1f\x8b"
# compressobj arguments: level 9, deflate, gzip container, default memLevel,
# run-length matching (several times faster than the default strategy, and
# no larger in total on these volumes)
_DEFLATE = (zlib.Z_BEST_COMPRESSION, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
# deflate expands at most 1032:1, which bounds what a gzip file can hold
_MAX_DEFLATE_RATIO = 1032
_CHUNK = 1 << 20  # bytes per slab written
_READ = 1 << 17  # bytes per read; gzip returns each read as a new bytes object
# a read inflates this many z-planes at a time, and at most _SLAB_BYTES unless
# one plane is more: thinner slabs make the copy to C order slower
_SLAB_PLANES = 32
_SLAB_BYTES = 8 << 20
_TILE = 16  # x-rows per tile of that copy

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


# temp files of the innermost active atomic_group, as (temp, target) pairs
_GROUP = contextvars.ContextVar("nifti_atomic_group", default=None)


@contextlib.contextmanager
def _atomic_file(path):
    """Yield a binary file that becomes ``path`` when the block ends: it is a
    temp file beside ``path``, renamed over it (or, inside :func:`atomic_group`,
    at the group's end). If the block raises, the temp file is removed and
    ``path`` is untouched.

    The temp file is created with mode 0o666, so the written file gets the
    umask's default mode, as with a plain ``open(path, "wb")``."""
    path = Path(path)
    tmp = path.parent / f"tmp{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        group = _GROUP.get()
        if group is None:
            os.replace(tmp, path)
        else:
            group.append((tmp, path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def atomic_group():
    """Make the files this module writes inside the block appear together.

    Each one stays under its temp name until the block ends, and then all are
    renamed over their targets. If the block raises, every temp file it wrote
    is removed and no target is touched. The group belongs to the thread (or
    asyncio task) that opened it."""
    group = []
    token = _GROUP.set(group)
    try:
        yield
        for tmp, path in group:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in group:  # those not yet renamed
            tmp.unlink(missing_ok=True)
        raise
    finally:
        _GROUP.reset(token)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (see :func:`_atomic_file`)."""
    with _atomic_file(path) as f:
        f.write(payload)


def _slabs(data: np.ndarray, dtype: np.dtype):
    """``data`` in on-disk (Fortran) voxel order as C-contiguous ``dtype``
    slabs of whole z-planes, about ``_CHUNK`` bytes each."""
    planes = data.T  # planes[z] is the (y, x) plane, x fastest in C order
    step = max(1, _CHUNK // (planes[0].size * dtype.itemsize))
    for k in range(0, len(planes), step):
        yield np.ascontiguousarray(planes[k : k + step], dtype=dtype)


@contextlib.contextmanager
def volume_writer(path, like: Volume | LabelMap):
    """Yield ``write(planes)``, which appends z-planes to the single-file
    NIfTI-1 file at ``path`` of ``like``'s grid and spacing: float32 for a
    Volume, uint8 for a LabelMap. ``planes`` holds the next (nx, ny, k)
    planes in memory order, and they are compressed as they come.

    The file is written atomically (see :func:`_atomic_file`) when the block
    ends with every z-plane written; if it raises, or ends early, no file is
    left."""
    if isinstance(like, Volume):
        datatype, bitpix, dtype = DT_FLOAT32, 32, np.dtype("<f4")
    elif isinstance(like, LabelMap):
        datatype, bitpix, dtype = DT_UINT8, 8, np.dtype("u1")
    else:
        raise TypeError(f"expected Volume or LabelMap, got {type(like).__name__}")
    shape = like.shape
    deflate = zlib.compressobj(*_DEFLATE) if _is_gzip_path(path) else None
    written = 0
    with _atomic_file(path) as f:

        def put(chunk):
            f.write(deflate.compress(chunk) if deflate else chunk)

        def write(planes: np.ndarray) -> None:
            nonlocal written
            if planes.shape[:2] != shape[:2] or written + planes.shape[2] > shape[2]:
                raise ValueError(f"{path}: planes {planes.shape} do not fit grid {shape}")
            for chunk in _slabs(planes, dtype):
                put(chunk)
            written += planes.shape[2]

        put(_build_header(shape, like.spacing, datatype, bitpix) + b"\x00\x00\x00\x00")
        yield write
        if written != shape[2]:
            raise ValueError(f"{path}: {written} of {shape[2]} z-planes written")
        if deflate:
            f.write(deflate.flush())


def write_volume(obj: Volume | LabelMap, path) -> None:
    """Write a Volume (float32) or LabelMap (uint8) as single-file NIfTI-1."""
    with volume_writer(path, obj) as write:
        write(obj.data)


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
    if not np.isfinite(vox_offset) or int(vox_offset) < HEADER_SIZE:
        raise ValueError(f"{path}: bad vox_offset {vox_offset:g} at offset 108")
    vox_offset = int(vox_offset)
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
    for suffix in NIFTI_EXTS:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


@contextlib.contextmanager
def _voxel_stream(path):
    """Yield ``(f, limit)``: the decoded bytes of the NIfTI file ``path`` and
    the most bytes they can hold. A gzip error inside the block becomes a
    ``ValueError`` that names the path."""
    with open(path, "rb") as raw:
        is_gzip = raw.read(2) == _GZIP_MAGIC
        if not is_gzip and _is_gzip_path(path):
            raise ValueError(f"{path}: .gz extension but no gzip magic at offset 0")
        raw.seek(0)
        size = os.fstat(raw.fileno()).st_size
        try:
            if is_gzip:
                with gzip.open(raw) as f:
                    yield f, size * _MAX_DEFLATE_RATIO
            else:
                yield raw, size
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: corrupt gzip ({exc})") from exc


def read_grid(path) -> tuple[tuple[int, int, int], tuple[float, float, float]]:
    """``(shape, spacing)`` from the header of a NIfTI-1 file; no voxel is read."""
    with _voxel_stream(path) as (f, _):
        hdr = _parse_header(f.read(VOX_OFFSET), path=path)
    return hdr["shape"], hdr["spacing"]


def _box_bounds(box, shape, path) -> list[tuple[int, int]]:
    """``[(start, stop)] * 3`` of ``box``, three slices cut from ``shape`` as
    numpy cuts them, or of the whole grid when ``box`` is None."""
    if box is None:
        return [(0, n) for n in shape]
    ranges = [range(n)[s] for s, n in zip(box, shape)]
    if len(box) != 3 or any(r.step != 1 or not r for r in ranges):
        raise ValueError(f"{path}: box {box} is not a nonempty window of shape {shape}")
    return [(r.start, r.stop) for r in ranges]


def _planes(f, slab: np.ndarray, nz: int, start: int, path):
    """Yield ``(z, planes)`` for consecutive slabs of whole z-planes read from
    ``f`` into the reused ``slab`` buffer, then read ``f`` to its end, so that
    a gzip stream's CRC and length are checked."""
    view = memoryview(slab).cast("B")
    plane_bytes = view.nbytes // len(slab)
    nbytes = nz * plane_bytes
    got = 0
    for z in range(0, nz, len(slab)):
        n = min(len(slab), nz - z)
        want, filled = n * plane_bytes, 0
        while filled < want and (k := f.readinto(view[filled : min(want, filled + _READ)])):
            filled += k
        got += filled
        if filled < want:
            raise ValueError(
                f"{path}: truncated data, expected {nbytes} bytes at offset {start}, got {got}"
            )
        yield z, slab[:n]
    while f.read(_READ):
        pass


def read_volume(path, as_labels: bool = False, box=None) -> Volume | LabelMap:
    """Read a 3-D NIfTI-1 file; ``as_labels=True`` returns a raw LabelMap.

    ``box``, three slices in (x, y, z) order, keeps only that window of the
    grid; by default the whole grid is kept. Either way every voxel is
    decoded and checked, and an error names the first bad voxel by its
    full-grid index.
    """
    with _voxel_stream(path) as (f, limit):
        hdr = _parse_header(f.read(VOX_OFFSET), path=path)
        dtype = _DTYPES[hdr["datatype"]]
        slope, inter = hdr["scl_slope"], hdr["scl_inter"]
        scaled = slope not in (0.0, 1.0) or inter != 0.0
        if as_labels and dtype.kind not in "ui":
            raise ValueError(
                f"{path}: cannot load datatype code {hdr['datatype']} as labels "
                "(integer voxel type required)"
            )
        if as_labels and scaled:
            raise ValueError(f"{path}: scaled data (scl_slope/scl_inter) cannot be labels")
        shape = hdr["shape"]
        (x0, x1), (y0, y1), (z0, z1) = _box_bounds(box, shape, path)
        plane_bytes = shape[0] * shape[1] * dtype.itemsize
        nbytes = plane_bytes * shape[2]
        start = hdr["vox_offset"]
        if start + nbytes > limit:
            raise ValueError(
                f"{path}: truncated data, expected {nbytes} bytes at offset {start}, "
                f"got at most {max(0, limit - start)}"
            )
        f.seek(start)
        alphabet = RAW_LABELS if as_labels else None
        out = np.empty((x1 - x0, y1 - y0, z1 - z0), np.uint8 if as_labels else np.float32)
        depth = max(1, min(_SLAB_PLANES, _SLAB_BYTES // plane_bytes, shape[2]))
        slab = np.empty((depth, shape[1], shape[0]), dtype)  # z-planes, x fastest
        first = None  # (index, value) of the first bad voxel in full-grid order
        for z, planes in _planes(f, slab, shape[2], start, path):
            values = planes
            # a value that overflows becomes inf, which the check reports
            # in the one error line; numpy's warning would be a second line
            with np.errstate(over="ignore"):
                if scaled:  # as float64, then float32, as a whole-grid read would
                    values = values.astype(np.float64)
                    values *= slope
                    values += inter
                if not as_labels:
                    values = values.astype(np.float32, copy=False)
            first = earlier_bad_voxel(first, values.T, z, alphabet)
            lo, hi = max(z, z0), min(z + len(planes), z1)
            if lo < hi:  # copy the window's part to C order in (x, z) tiles
                src = values[lo - z : hi - z, y0:y1, x0:x1]
                dst = out[:, :, lo - z0 : hi - z0]
                for x in range(0, x1 - x0, _TILE):
                    dst[x : x + _TILE] = src[:, :, x : x + _TILE].T
    if first is not None:
        raise ValueError(f"{path}: {bad_voxel_error(*first, alphabet)}")
    if as_labels:
        return LabelMap(out, spacing=hdr["spacing"], convention="raw", checked=True)
    return Volume(out, spacing=hdr["spacing"], name=_volume_name(path), checked=True)


def read_labels(path, box=None) -> LabelMap:
    return read_volume(path, as_labels=True, box=box)
