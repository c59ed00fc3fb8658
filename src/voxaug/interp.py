"""Geometric resampling: :func:`warp` reads a whole sample at moved
positions, once, through any list of affine and elastic steps.

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
* Reads outside the grid always return 0 (pad label 0 for labels), blended
  in by trilinear weights at the boundary for channels.

Importing this module loads numpy only: ``scipy.ndimage`` loads on the first
:func:`map_coordinates` call and ``scipy.interpolate`` on the first
:func:`bspline_upsample` call, so a process that never resamples never pays
for them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .volume import Sample, Shape3


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


def _affine_coords(
    shape: Shape3, matrix: np.ndarray, coords: np.ndarray | None = None
) -> np.ndarray:
    """Sampling positions for output(x) = input(matrix^-1 (x - c) + c), with
    x the grid, or the positions ``coords`` (3, *shape), which are consumed."""
    inv = np.linalg.inv(matrix)
    c = (np.asarray(shape, dtype=np.float64)[:, None] - 1.0) / 2.0
    pts = np.indices(shape, dtype=np.float64) if coords is None else coords
    pts = pts.reshape(3, -1)
    pts -= c
    coords = inv @ pts
    coords += c
    return coords.reshape(3, *shape)


def map_coordinates(*args, **kwargs):
    """``scipy.ndimage.map_coordinates``, imported on first call.

    :func:`warp` looks this name up on the module at every call, so
    replacing the module attribute intercepts every sampling call."""
    from scipy.ndimage import map_coordinates

    return map_coordinates(*args, **kwargs)


def bspline_upsample(coarse: np.ndarray, target_shape: Shape3) -> np.ndarray:
    """Upsample a coarse control grid of 3-vectors to a dense field.

    Control points are spaced uniformly across the target extent including
    both boundaries (control g sits at g * (n - 1) / (G - 1) along an axis
    with G control points). Each displacement component is interpolated by
    a separable cubic spline through the control values, so constants and
    linear ramps in the control grid are reproduced exactly on the dense
    grid (up to roundoff).
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
        field = spline(np.arange(n, dtype=np.float64))
    return field


def _warp_coords(shape: Shape3, field: np.ndarray) -> np.ndarray:
    """Sampling positions x + field(x) on the grid, for a dense (*shape, 3)
    field of voxel offsets."""
    if not np.isfinite(field).all():
        raise ValueError("non-finite displacement")
    coords = np.indices(shape, dtype=np.float64)
    coords += np.moveaxis(field, -1, 0)
    return coords


def _chain_coords(shape: Shape3, steps) -> np.ndarray:
    """Sampling positions of ``steps`` applied one after another.

    Each step is an :class:`AffineTransform` or a control grid for
    :func:`bspline_upsample`. Positions are composed backward from the
    output grid, last step first: runs of affine steps fold into one matrix
    before the positions are touched, and an elastic step adds its field at
    the current positions, read straight from the dense field while they are
    still the grid and trilinearly (edge values held beyond the grid)
    otherwise. Each dense field is freed as soon as it has been added, so
    at most one field and two position arrays are alive at once.
    """
    coords = None  # None: still the output grid itself
    forward = None  # affine steps met since coords was last moved, composed
    for step in reversed(steps):
        if isinstance(step, AffineTransform):
            forward = step.matrix if forward is None else forward @ step.matrix
        elif coords is None and forward is None:
            coords = _warp_coords(shape, bspline_upsample(step, shape))
        else:
            if forward is not None:
                coords, forward = _affine_coords(shape, forward, coords), None
            field = bspline_upsample(step, shape)
            shift = [
                map_coordinates(field[..., a], coords, order=1, mode="nearest") for a in range(3)
            ]
            del field
            for axis, s in enumerate(shift):
                coords[axis] += s
    if forward is not None or coords is None:
        coords = _affine_coords(shape, np.eye(3) if forward is None else forward, coords)
    return coords


def warp(sample: Sample, steps) -> Sample:
    """Resample a sample once through geometric steps applied in order.

    ``steps`` holds :class:`AffineTransform` objects (about the center) and
    control grids (warped by their :func:`bspline_upsample` field). The
    whole list is one backward map, read once per constituent: channels
    trilinearly into float32, labels nearest-neighbor into uint8, 0 beyond
    the grid. So the output differs from resampling step by step only by
    the interpolation that the list skips in between.
    """
    coords = _chain_coords(sample.shape, steps)

    def reader(order, dtype):
        return lambda data: map_coordinates(
            data, coords, output=dtype, order=order, mode="grid-constant", cval=0.0
        )

    return sample.map(reader(1, np.float32), reader(0, np.uint8))
