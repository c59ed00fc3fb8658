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
  so the slab size never changes a value. A caller resamples every array
  of a subject at one slab before the next
  (:func:`voxaug.augment.resample`), so no whole position array is held.
* Reads outside the grid always return 0 (pad label 0 for labels), blended
  in by trilinear weights at the boundary for channels.

Importing this module loads numpy only: ``scipy.ndimage`` loads on the first
:func:`map_coordinates` call and ``scipy.interpolate`` on the first
:func:`bspline_upsample` call, so a process that never resamples never pays
for them.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .volume import Shape3


# exact (cos, sin) at quadrant angles so axis-aligned rotations are lossless
_QUADRANTS = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}


def _cos_sin_deg(deg: float) -> tuple[float, float]:
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
        if abs(np.linalg.det(m)) <= 1e-9:
            raise ValueError("non-invertible transform")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(3))

    @classmethod
    def rotation_xyz(cls, angles_deg) -> "AffineTransform":
        """Compose elementary rotations in fixed order Rx . Ry . Rz."""
        (cx, sx), (cy, sy), (cz, sz) = (_cos_sin_deg(float(a)) for a in angles_deg)
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
        rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        return cls(rx @ ry @ rz)

    @classmethod
    def scaling(cls, factors) -> "AffineTransform":
        return cls(np.diag([float(f) for f in factors]))

    @classmethod
    def flip(cls, axis: int) -> "AffineTransform":
        """Mirror about the center along one axis, so x -> n - 1 - x exactly."""
        if axis not in (0, 1, 2):
            raise ValueError(f"flip axis must be 0, 1 or 2, got {axis}")
        return cls(np.diag([-1.0 if a == axis else 1.0 for a in range(3)]))

    def inverse(self) -> "AffineTransform":
        return AffineTransform(np.linalg.inv(self.matrix))


def map_coordinates(*args, **kwargs):
    """``scipy.ndimage.map_coordinates``, imported on first call.

    The readers and :func:`warp`'s slabs look this name up on the module
    at every call, so replacing the module attribute intercepts every
    sampling call."""
    from scipy.ndimage import map_coordinates

    return map_coordinates(*args, **kwargs)


def bspline_upsample(coarse: np.ndarray, target_shape: Shape3, z_spline: bool = False):
    """Upsample a coarse control grid of 3-vectors to a dense field.

    Control points are spaced uniformly across the target extent including
    both boundaries (control g sits at g * (n - 1) / (G - 1) along an axis
    with G control points). Each displacement component is interpolated by
    a separable cubic spline through the control values, so constants and
    linear ramps in the control grid are reproduced exactly on the dense
    grid (up to roundoff).

    The passes run along x, then y, then z. With ``z_spline=True`` the z
    pass is fitted but not evaluated: the spline is returned, and calling it
    on z positions gives the dense field's (nx, ny, k, 3) planes there, the
    same values as the whole field's.
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    if coarse.ndim != 4 or coarse.shape[-1] != 3:
        raise ValueError(f"control grid must be (G, G, G, 3), got {coarse.shape}")
    if any(g < 2 for g in coarse.shape[:3]):
        raise ValueError(f"control grid needs >= 2 points per axis, got {coarse.shape[:3]}")
    if not np.isfinite(coarse).all():
        raise ValueError("non-finite control displacement")
    target_shape = tuple(int(n) for n in target_shape)
    from scipy.interpolate import CubicSpline

    field = coarse
    for axis in range(3):
        n = target_shape[axis]
        g = field.shape[axis]
        ctrl = np.linspace(0.0, n - 1.0, g)
        spline = CubicSpline(ctrl, field, axis=axis, bc_type="natural")
        if axis == 2 and z_spline:
            return spline
        field = spline(np.arange(n, dtype=np.float64))
    return field


# z-planes of sampling positions built, and resampled, at a time
_SLAB_PLANES = 8


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


def warp(shape: Shape3, steps):
    """The sampling positions of geometric ``steps`` applied in order to a
    ``shape`` grid, as an iterator over their z-slabs: ``(z, positions)``,
    the positions of planes z, z + 1, ... as a (3, nx, ny, k) array, for
    :func:`sample_channel` and :func:`sample_labels` to read.

    ``steps`` holds :class:`AffineTransform` objects (about the center) and
    control grids (warped by their :func:`bspline_upsample` field). The
    whole list is one backward map, composed from the output grid, last
    step first, and set up here, before the first slab: runs of affine
    steps fold into one matrix, inverted here; an elastic step met while
    the positions are still the grid has its x and y spline passes fitted
    here, and its field evaluated along z at each slab's planes only; one
    met after the positions have moved is read trilinearly (edge values
    held beyond the grid) from its dense field, built here. So every check
    of the steps raises at the call. Every slab goes through the same
    operations in the same order per voxel as whole-grid positions would,
    and resampling at them differs from resampling step by step only by the
    interpolation that the list skips in between.
    """
    shape = tuple(int(n) for n in shape)
    center = (np.asarray(shape, dtype=np.float64)[:, None] - 1.0) / 2.0
    grid_field = None  # the spline of an elastic field added to the grid itself
    stages = []  # the updates applied to every slab's positions, in order
    forward = None  # affine steps met since the positions last moved, composed
    for step in reversed(steps):
        if isinstance(step, AffineTransform):
            forward = step.matrix if forward is None else forward @ step.matrix
        elif grid_field is None and not stages and forward is None:
            grid_field = bspline_upsample(step, shape, z_spline=True)
        else:
            if forward is not None:
                stages.append(partial(_by_affine, inv=np.linalg.inv(forward), center=center))
                forward = None
            field = np.moveaxis(bspline_upsample(step, shape), -1, 0)
            stages.append(partial(_by_field, field=np.ascontiguousarray(field)))
    if forward is not None or (grid_field is None and not stages):
        inv = np.linalg.inv(np.eye(3) if forward is None else forward)
        stages.append(partial(_by_affine, inv=inv, center=center))

    def slabs():
        for z in range(0, shape[2], _SLAB_PLANES):
            planes = min(_SLAB_PLANES, shape[2] - z)
            coords = np.indices((*shape[:2], planes), dtype=np.float64)
            coords[2] += z
            if grid_field is not None:
                field = grid_field(np.arange(z, z + planes, dtype=np.float64))
                if not np.isfinite(field).all():
                    raise ValueError("non-finite displacement")
                coords += np.moveaxis(field, -1, 0)
            for update in stages:
                coords = update(coords)
            yield z, coords

    return slabs()


def sample_channel(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """A channel's array read trilinearly at ``coords`` into float32, 0
    beyond the grid."""
    return map_coordinates(data, coords, output=np.float32, order=1, mode="grid-constant", cval=0.0)


def sample_labels(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """A label array read nearest-neighbor at ``coords`` into uint8, 0
    beyond the grid."""
    return map_coordinates(data, coords, output=np.uint8, order=0, mode="grid-constant", cval=0.0)
