"""Geometric resampling: :func:`warp` sets up the moved sampling positions
of any list of affine and elastic steps once and hands them out in z-slabs,
and :func:`sample_channel` and :func:`sample_labels` resample one array of a
sample at one slab.

Conventions:

* Backward mapping: the output voxel at x is read from the input at the
  inverse-transformed position, so no holes appear.
* Transforms act about the volume's geometric center c = (shape - 1) / 2
  in voxel coordinates; the output grid equals the input grid.
* A positive rotation angle about an axis rotates the next axis toward the
  one after it (x toward y for a z rotation; right-handed).
* :func:`warp` is the one resampler. Its steps are
  :class:`AffineTransform` objects and control grids; a grid's
  :func:`bspline_upsample` field f of voxel offsets warps as
  out(x) = in(x + f(x)). The steps compose into one set of sampling
  positions, shared by every constituent, so a pipeline interpolates once
  however many of its geometric steps fire, and a list of one step is that
  step's own resampling. Image channels are read trilinearly, the label map
  nearest-neighbor, so constituents stay co-registered and no label value
  is invented.
* Positions exist only in z-slabs of ``_SLAB_PLANES`` planes, each built by
  the same operations in the same order per voxel as a whole grid would be,
  so the slab size never changes a value. :func:`warp` does the set-up and
  returns a function that starts a pass over the slabs, building them
  afresh from the set-up on each call, so a caller may resample every
  array at one slab before the next (``apply_steps``) or pass over the
  slabs once per array (``voxaug augment``); either way no whole position
  array is held. Each slab's positions are a new array, the caller's to
  keep.
* Reads outside the grid always return 0 (pad label 0 for labels), blended
  in by trilinear weights at the boundary for channels.

This module is numpy code only, and so is voxaug: elastic fields come from
:func:`bspline_upsample`, and :func:`map_coordinates` repeats the arithmetic
of ``scipy.ndimage.map_coordinates``, so it gives scipy's bytes for the
reads voxaug makes, with no scipy installed. It takes only ``order`` and
``mode``: every read is into its input's dtype, and 0 beyond the grid.
"""

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .volume import Shape3


# exact (cos, sin) at quadrant angles so axis-aligned rotations are lossless
_QUADRANTS = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}


def _floats(values, what: str) -> list[float]:
    """``values`` as floats; a bool is not a number here."""
    values = list(values)
    if any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError(f"{what} must be numbers, got {values!r}")
    return [float(v) for v in values]


def _cos_sin_deg(deg: float) -> tuple[float, float]:
    if not math.isfinite(deg):  # math.cos(inf) would raise "math domain error"
        raise ValueError("non-finite transform")
    exact = _QUADRANTS.get(deg % 360.0)
    if exact is not None:
        return exact
    return math.cos(math.radians(deg)), math.sin(math.radians(deg))


@dataclass(frozen=True)
class AffineTransform:
    """3x3 linear map applied about the volume center in voxel coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"affine matrix must be 3x3, got {m.shape}")
        if not np.isfinite(m).all():  # a NaN determinant would pass the check below
            raise ValueError("non-finite transform")
        if abs(np.linalg.det(m)) <= 1e-9:
            raise ValueError("non-invertible transform")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(3))

    @classmethod
    def rotation_xyz(cls, angles_deg) -> "AffineTransform":
        """Compose elementary rotations in fixed order Rx . Ry . Rz."""
        (cx, sx), (cy, sy), (cz, sz) = map(_cos_sin_deg, _floats(angles_deg, "rotation angles"))
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
        rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        return cls(rx @ ry @ rz)

    @classmethod
    def scaling(cls, factors) -> "AffineTransform":
        return cls(np.diag(_floats(factors, "scale factors")))

    @classmethod
    def flip(cls, axis: int) -> "AffineTransform":
        """Mirror about the center along one axis, so x -> n - 1 - x exactly.
        The axis is an integer 0, 1 or 2; 1.0 and True are not axes."""
        if type(axis) is bool or not isinstance(axis, (int, np.integer)) or axis not in (0, 1, 2):
            raise ValueError(f"flip axis must be 0, 1 or 2, got {axis!r}")
        return cls(np.diag([-1.0 if a == axis else 1.0 for a in range(3)]))

    def inverse(self) -> "AffineTransform":
        return AffineTransform(np.linalg.inv(self.matrix))


# points read at a time: one chunk's temporaries stay near 2.5 MiB
_CHUNK = 1 << 14

# (order, mode, dtype) of the reads voxaug makes, each into its input's
# dtype: channels, label maps, and a dense field's components in _by_field
_FORMS = {(1, "grid-constant", "float32"), (0, "grid-constant", "uint8"), (1, "nearest", "float64")}


def _trilinear(flat: np.ndarray, axes, pts: np.ndarray, out: np.ndarray, clamp: bool) -> None:
    """``out`` = the C-ordered ``flat`` array, of (length, stride) ``axes``,
    read trilinearly at the (3, k) positions ``pts``, in ``scipy.ndimage``'s
    arithmetic.

    Per axis the corner below c is f = floor(c), with weights w0 = 1 - (c -
    f) and w1 = 1 - w0 (not c - f). With ``clamp`` a corner index is held
    to the grid, the weights still those of the unclamped position
    ("nearest"); otherwise a corner beyond the grid adds 0
    ("grid-constant"), here by a zero weight on an edge voxel, which equals
    scipy's for finite voxels. The 8 terms ((v * wx) * wy) * wz are added in
    float64 to +0.0, the x corner slowest and the z corner fastest."""
    corners = []  # per axis: the two (flat offset, weight) corners
    for c, (n, stride) in zip(pts, axes):
        low = np.floor(c)
        w0 = np.subtract(1.0, c - low)
        w1 = np.subtract(1.0, w0)
        i0 = np.clip(low, -2, n, out=low).astype(np.intp)
        i1 = i0 + 1
        for i, w in ((i0, w0), (i1, w1)):
            if not clamp:
                np.copyto(w, 0.0, where=i.view(np.uintp) >= n)
            np.clip(i, 0, n - 1, out=i)
            i *= stride
        corners.append(((i0, w0), (i1, w1)))
    (xs, ys, zs), k = corners, len(out)
    total, term = np.zeros(k), np.empty(k)
    xy, index, value = np.empty(k, np.intp), np.empty(k, np.intp), np.empty(k, flat.dtype)
    for ix, wx in xs:
        for iy, wy in ys:
            np.add(ix, iy, out=xy)
            for iz, wz in zs:
                np.add(xy, iz, out=index)
                # the indices are in range; "clip" only spares "raise"'s buffered out
                np.take(flat, index, out=value, mode="clip")
                np.multiply(value, wx, out=term)
                term *= wy
                term *= wz
                total += term
    out[...] = total


def _nearest(flat: np.ndarray, axes, pts: np.ndarray, out: np.ndarray) -> None:
    """``out`` = the C-ordered ``flat`` array, of (length, stride) ``axes``,
    read at the voxel floor(c + 0.5) per axis of the (3, k) positions
    ``pts``, 0 beyond the grid, as ``scipy.ndimage`` reads order 0."""
    index, outside = np.zeros(len(out), np.intp), np.zeros(len(out), bool)
    for c, (n, stride) in zip(pts, axes):
        i = np.floor(c + 0.5)
        i = np.clip(i, -1, n, out=i).astype(np.intp)
        outside |= i.view(np.uintp) >= n
        np.clip(i, 0, n - 1, out=i)
        i *= stride
        index += i
    np.take(flat, index, out=out, mode="clip")
    out[outside] = 0


def map_coordinates(input, coordinates, *, order: int, mode: str) -> np.ndarray:
    """The 3-D ``input`` read at the (3, ...) ``coordinates`` into an array
    of its dtype, with the bytes of ``scipy.ndimage.map_coordinates`` (its
    default ``output`` and ``cval``) for the reads voxaug makes: float32 at
    order 1 and uint8 at order 0, both ``mode="grid-constant"``, so 0
    beyond the grid; float64 at order 1 with ``mode="nearest"``. Any other
    form raises ValueError. The voxels are finite, as
    :class:`~voxaug.volume.Volume` and the dense fields check.

    Every value comes from single, individually rounded numpy operations
    (see :func:`_trilinear`), in chunks of ``_CHUNK`` points, so a call
    holds its output and a few MiB. The readers and :func:`warp`'s slabs
    look this name up on the module at every call, so replacing the module
    attribute intercepts every sampling call."""
    data, pts = np.asarray(input), np.asarray(coordinates, dtype=np.float64)
    form = (order, mode, data.dtype.name)
    if form not in _FORMS or data.ndim != 3 or len(pts) != 3:
        raise ValueError(f"unsupported sampling: {form}, input {data.shape}, "
                         f"coordinates {pts.shape}")
    out = np.empty(pts.shape[1:], data.dtype)
    flat, pts, dest = data.ravel(), pts.reshape(3, -1), out.reshape(-1)
    _, ny, nz = data.shape
    axes = tuple(zip(data.shape, (ny * nz, nz, 1)))
    for start in range(0, dest.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        if order == 0:
            _nearest(flat, axes, pts[:, chunk], dest[chunk])
        else:
            _trilinear(flat, axes, pts[:, chunk], dest[chunk], clamp=mode == "nearest")
    return out


def _spline_weights(n: int, g: int) -> np.ndarray:
    """The natural cubic spline through ``g`` knots spaced evenly over the
    points 0 .. n - 1 of an axis, as a (g, n) array of weights: row j is
    the spline through the j-th unit knot vector, so the spline through knot
    values y is the sum over j, in order, of row j times y[j].

    The knots' moments (second derivatives times h^2 / 6, h the knot
    spacing) solve m[i-1] + 4 m[i] + m[i+1] = y[i-1] - 2 y[i] + y[i+1] at
    the inner knots and are 0 at the ends. They are solved in Python floats,
    by one forward and one backward sweep, and the weights built from them
    by elementwise numpy operations, so no BLAS or LAPACK kernel is used. At
    a knot a weight is exactly 1 or 0."""
    ratios = []  # the forward sweep's pivots, the same for every unit vector
    for _ in range(g - 2):
        ratios.append(1.0 / (4.0 - (ratios[-1] if ratios else 0.0)))
    moments = np.zeros((g, g))  # moments[i, j]: at knot i, of unit vector j
    for j in range(g):
        sweep = []
        for i in range(1, g - 1):
            rhs = (i - 1 == j) - 2.0 * (i == j) + (i + 1 == j)
            sweep.append((rhs - (sweep[-1] if sweep else 0.0)) * ratios[i - 1])
        m = 0.0
        for i in range(g - 2, 0, -1):
            m = sweep[i - 1] - ratios[i - 1] * m
            moments[i, j] = m
    s = np.arange(n, dtype=np.float64) * (g - 1) / (n - 1)  # in knot spacings
    knot = np.minimum(s.astype(np.intp), g - 2)  # the knot interval's start
    u = s - knot
    v = 1.0 - u
    weights = np.empty((g, n))
    for j in range(g):
        weights[j] = (v * (knot == j) + u * (knot + 1 == j)) + (
            (v * v * v - v) * moments[knot, j] + (u * u * u - u) * moments[knot + 1, j]
        )
    return weights


def _knot_sum(a, b, out: np.ndarray) -> np.ndarray:
    """``out`` = a[0] * b[0] + a[1] * b[1] + ..., summed in that order, each
    product and each sum rounded on its own (broadcasting), the one
    arithmetic of the spline passes. A sum past float64's range gives inf or
    NaN without a warning: the callers check the field for non-finite
    values and raise."""
    term = np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a[0], b[0], out=out)
        for a_j, b_j in zip(a[1:], b[1:]):
            np.multiply(a_j, b_j, out=term)
            out += term
    return out


def _add_along_z(grid: np.ndarray, weights: np.ndarray, coords: np.ndarray, z: int) -> None:
    """Add the field at z-planes z, z + 1, ... to the positions ``coords``
    (3, nx, ny, k) of those planes, one component at a time, from the
    x/y-passed ``grid`` (3, G, nx, ny) and the z ``weights``; a component
    with a non-finite value raises before it is added."""
    planes = coords.shape[-1]
    w = weights[:, z : z + planes, None, None]
    shift = np.empty((planes, *coords.shape[1:3]))
    for position, component in zip(coords, grid):
        _knot_sum(w, component, shift)
        if not np.isfinite(shift).all():
            raise ValueError("non-finite displacement")
        position += np.moveaxis(shift, 0, -1)


def _spline_adder(coarse: np.ndarray, target_shape: Shape3):
    """The control grid ``coarse`` checked and its x and y spline passes run
    for a ``target_shape`` field: returns ``f(coords, z)``, which adds the
    field at planes z, z + 1, ... to those planes' (3, nx, ny, k) positions
    in place, each component's sum the same whatever the planes."""
    coarse = np.asarray(coarse, dtype=np.float64)
    if coarse.ndim != 4 or coarse.shape[-1] != 3:
        raise ValueError(f"control grid must be (G, G, G, 3), got {coarse.shape}")
    if any(g < 2 for g in coarse.shape[:3]):
        raise ValueError(f"control grid needs >= 2 points per axis, got {coarse.shape[:3]}")
    if not np.isfinite(coarse).all():
        raise ValueError("non-finite control displacement")
    target_shape = tuple(int(n) for n in target_shape)
    if any(n < 2 for n in target_shape):
        raise ValueError(f"dense field needs >= 2 points per axis, got {target_shape}")
    (_, gy, gz), (nx, ny, _) = coarse.shape[:3], target_shape
    wx, wy, wz = map(_spline_weights, target_shape, coarse.shape[:3])
    along_x = _knot_sum(coarse.transpose(0, 3, 2, 1)[..., None], wx, np.empty((3, gz, gy, nx)))
    grid = _knot_sum(along_x.transpose(2, 0, 1, 3)[..., None], wy, np.empty((3, gz, nx, ny)))
    return partial(_add_along_z, grid, wz)


# z-planes of sampling positions built, and resampled, at a time
_SLAB_PLANES = 4


def bspline_upsample(coarse: np.ndarray, target_shape: Shape3) -> np.ndarray:
    """Upsample a coarse control grid of 3-vectors to a dense field.

    Control points are spaced uniformly across the target extent including
    both boundaries (control g sits at g * (n - 1) / (G - 1) along an axis
    with G control points). Each displacement component is interpolated by
    a separable natural cubic spline through the control values, so
    constants and linear ramps in the control grid are reproduced on the
    dense grid up to roundoff, control values exactly, and a zero grid
    gives an exactly zero field. Each pass applies a :func:`_spline_weights`
    matrix as elementwise multiply-adds over the knots, in order, so the
    field's bytes depend on no BLAS kernel.

    The passes run along x, then y, then z; the z pass is :func:`warp`'s
    own, added to a zero field in z-slabs of ``_SLAB_PLANES`` planes. The
    result is the (*shape, 3) field, a view of a component-first (3,
    *shape) array.

    Finite control values can still sum past float64's range; either way,
    a field value that is not finite raises ``non-finite displacement``.
    """
    add = _spline_adder(coarse, target_shape)
    field = np.zeros((3, *(int(n) for n in target_shape)))
    for z in range(0, field.shape[-1], _SLAB_PLANES):
        add(field[..., z : z + _SLAB_PLANES], z)
    return np.moveaxis(field, 0, -1)


def _by_affine(coords: np.ndarray, inv: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Positions ``inv (coords - c) + c``; ``coords`` is consumed."""
    pts = coords.reshape(3, -1)
    pts -= center
    moved = inv @ pts
    moved += center
    return moved.reshape(coords.shape)


def _by_field(coords: np.ndarray, field: np.ndarray) -> np.ndarray:
    """``coords`` plus the (3, *shape) ``field`` read trilinearly there, edge
    values held beyond the grid."""
    shift = [map_coordinates(f, coords, order=1, mode="nearest") for f in field]
    for axis, s in enumerate(shift):
        coords[axis] += s
    return coords


def warp(shape: Shape3, steps) -> Callable[[], Iterator[tuple[int, np.ndarray]]]:
    """The sampling positions of geometric ``steps`` applied in order to a
    ``shape`` grid, in z-slabs: the returned function starts a pass, an
    iterator of ``(z, positions)``, the positions of planes z, z + 1, ... as
    a (3, nx, ny, k) array, for :func:`sample_channel` and
    :func:`sample_labels` to read. Each call builds every slab again, from
    the set-up done here; each slab handed out is a new array.

    ``steps`` holds :class:`AffineTransform` objects (about the center) and
    control grids (warped by their :func:`bspline_upsample` field). The
    whole list is one backward map, composed from the output grid, last
    step first, and set up here, before the first slab: runs of affine
    steps fold into one matrix, inverted here; an elastic step met while
    the positions are still the grid has its x and y spline passes run
    here, and its z pass at each slab's planes only, each component's sum
    added straight to that slab's positions; one met after the positions
    have moved is read trilinearly (edge values held beyond the grid) from
    its dense field, built here. So every check of the steps raises at the
    call. Every slab goes through the same operations in the same order per
    voxel as whole-grid positions would, and resampling at them differs
    from resampling step by step only by the interpolation that the list
    skips in between.
    """
    shape = tuple(int(n) for n in shape)
    center = (np.asarray(shape, dtype=np.float64)[:, None] - 1.0) / 2.0
    grid_field = None  # the z pass of an elastic field added to the grid itself
    stages = []  # the updates applied to every slab's positions, in order
    forward = None  # affine steps met since the positions last moved, composed
    for step in reversed(steps):
        if isinstance(step, AffineTransform):
            forward = step.matrix if forward is None else forward @ step.matrix
        elif grid_field is None and not stages and forward is None:
            grid_field = _spline_adder(step, shape)
        else:
            if forward is not None:
                stages.append(partial(_by_affine, inv=np.linalg.inv(forward), center=center))
                forward = None
            # the component-first array that the field is a view of
            field = np.moveaxis(bspline_upsample(step, shape), -1, 0)
            stages.append(partial(_by_field, field=field))
    if forward is not None or (grid_field is None and not stages):
        inv = np.linalg.inv(np.eye(3) if forward is None else forward)
        stages.append(partial(_by_affine, inv=inv, center=center))

    def slabs():
        step, (nx, ny, nz) = _SLAB_PLANES, shape
        for z in range(0, nz, step):
            planes = min(step, nz - z)
            coords = np.empty((3, nx, ny, planes))
            coords[0] = np.arange(nx, dtype=np.float64)[:, None, None]
            coords[1] = np.arange(ny, dtype=np.float64)[:, None]
            coords[2] = np.arange(z, z + planes, dtype=np.float64)
            if grid_field is not None:
                grid_field(coords, z)
            for update in stages:
                coords = update(coords)
            yield z, coords

    return slabs


def sample_channel(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """A channel's float32 array read trilinearly at ``coords``, 0 beyond
    the grid."""
    return map_coordinates(data, coords, order=1, mode="grid-constant")


def sample_labels(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """A uint8 label array read nearest-neighbor at ``coords``, 0 beyond
    the grid."""
    return map_coordinates(data, coords, order=0, mode="grid-constant")
