"""Brute-force reference implementations shared by the test suite.

These deliberately avoid the library's own vectorized code paths (slice
shifts, windowed distance search, scipy resampling): surfaces come from
per-voxel neighbor lookups in a padded table, distances from dense all-pairs
matrices or a ``scipy.spatial.cKDTree`` query, resampled values from an
explicit per-voxel loop, elastic fields from ``scipy.interpolate.CubicSpline``,
ranks from ``scipy.stats.rankdata`` one cell at a time, and phantoms from full
``np.indices`` grids, so agreement is evidence rather than tautology. The
all-pairs and per-voxel oracles are quadratic - keep their masks small
(<= ~1000 surface voxels) and resampled grids tiny (<= ~2000 voxels).
"""

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.ndimage import map_coordinates
from scipy.spatial import cKDTree
from scipy.stats import rankdata

from voxaug.interp import AffineTransform, bspline_upsample
from voxaug.rng import RandomStream
from voxaug.volume import CHANNEL_NAMES, LabelMap, Sample, Volume, normalize_minmax


def oracle_surface(mask):
    """6-connectivity surface voxels, one padded-table lookup per voxel."""
    m = np.asarray(mask, bool)
    pad = np.zeros(tuple(s + 2 for s in m.shape), bool)
    pad[1:-1, 1:-1, 1:-1] = m
    pts = []
    for i, j, k in np.argwhere(m):
        neighbors = [
            pad[i, j + 1, k + 1],
            pad[i + 2, j + 1, k + 1],
            pad[i + 1, j, k + 1],
            pad[i + 1, j + 2, k + 1],
            pad[i + 1, j + 1, k],
            pad[i + 1, j + 1, k + 2],
        ]
        if not all(neighbors):
            pts.append((i, j, k))
    return np.array(pts, dtype=np.float64)


def oracle_hd95(a, b, spacing):
    """O(n^2) all-pairs 95th-percentile Hausdorff distance in mm."""
    sp = np.asarray(spacing, dtype=np.float64)
    sa = oracle_surface(a) * sp
    sb = oracle_surface(b) * sp
    d2 = ((sa[:, None, :] - sb[None, :, :]) ** 2).sum(-1)
    dab = np.sqrt(d2.min(axis=1))
    dba = np.sqrt(d2.min(axis=0))
    return max(np.percentile(dab, 95.0), np.percentile(dba, 95.0))


def kdtree_directed_p95(src_pts, dst_pts):
    """95th percentile of each ``src_pts`` point's ``cKDTree`` distance to
    ``dst_pts`` (both (n, 3) float64 coordinates in mm). HD95 must equal the
    max of the two directions bit for bit."""
    dists, _ = cKDTree(dst_pts).query(src_pts, k=1)
    return float(np.percentile(dists, 95.0))


def random_blob(rng, shape):
    """Union of 1-3 random balls; guaranteed nonempty."""
    m = np.zeros(shape, bool)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.integers(0, shape)
        r = int(rng.integers(1, 5))
        g = np.indices(shape)
        m |= ((g[0] - c[0]) ** 2 + (g[1] - c[1]) ** 2 + (g[2] - c[2]) ** 2) <= r * r
    if not m.any():
        m[tuple(rng.integers(0, shape))] = True
    return m


def oracle_affine(data, matrix, order):
    """Direct evaluation of output(x) = input(inv(M) (x - c) + c), no scipy.

    ``order=1`` blends the 8 surrounding voxels with trilinear weights,
    ``order=0`` reads the nearest voxel; reads beyond the grid are 0.
    """
    shape = data.shape
    inv = np.linalg.inv(matrix)
    c = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        p = inv @ (np.asarray(idx, dtype=np.float64) - c) + c
        if order == 0:
            q = np.round(p).astype(int)
            if all(0 <= q[i] < shape[i] for i in range(3)):
                out[idx] = data[tuple(q)]
            continue
        lo = np.floor(p).astype(int)
        frac = p - lo
        acc = 0.0
        for corner in np.ndindex((2, 2, 2)):
            q = lo + np.asarray(corner)
            w = 1.0
            for i in range(3):
                w *= frac[i] if corner[i] else 1.0 - frac[i]
            if all(0 <= q[i] < shape[i] for i in range(3)):
                acc += w * data[tuple(q)]
            # out-of-range corners contribute pad value 0
        out[idx] = acc
    return out


def oracle_spline_field(coarse, shape):
    """The dense field of a (Gx, Gy, Gz, 3) control grid over ``shape``:
    scipy's natural cubic spline through the control values, knots spaced
    evenly from 0 to n - 1, fitted and evaluated along x, then y, then z."""
    field = np.asarray(coarse, dtype=np.float64)
    for axis, n in enumerate(shape):
        knots = np.linspace(0.0, n - 1.0, field.shape[axis])
        spline = CubicSpline(knots, field, axis=axis, bc_type="natural")
        field = spline(np.arange(n, dtype=np.float64))
    return field


# The whole-grid sampling positions voxaug built before it built them in
# z-slabs, kept as the reference the slabs must equal byte for byte.

def _affine_coords(shape, matrix, coords=None):
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


def _warp_coords(shape, field):
    """Sampling positions x + field(x) on the grid, for a dense (*shape, 3)
    field of voxel offsets."""
    if not np.isfinite(field).all():
        raise ValueError("non-finite displacement")
    coords = np.indices(shape, dtype=np.float64)
    coords += np.moveaxis(field, -1, 0)
    return coords


def _chain_coords(shape, steps):
    """Sampling positions of ``steps`` applied one after another, built on
    whole grids: runs of affine steps fold into one matrix before the
    positions are touched, and an elastic step adds its field at the current
    positions, read straight from the dense field while they are still the
    grid and trilinearly (edge values held beyond the grid) otherwise."""
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


def oracle_rank_models(records, normalize=False):
    """Per-cell ``rankdata`` mid-ranks summed cell by cell.

    Returns (model_id, score) pairs in the order ``rank_models`` sorts its
    entries: by score, then model id.
    """
    models = sorted({r.model_id for r in records})
    subjects = sorted({r.subject_id for r in records})
    by_key = {(r.subject_id, r.model_id, r.region): r for r in records}
    totals = np.zeros(len(models))
    n_cells = 0
    for s in subjects:
        for region in ("WT", "TC", "ET"):
            rows = [by_key[(s, m, region)] for m in models]
            totals += rankdata([-r.dice for r in rows], method="average")
            totals += rankdata([r.hd95_mm for r in rows], method="average")
            n_cells += 2
    scores = totals / n_cells
    if normalize:
        scores = scores / len(models)
    return sorted(zip(models, (float(v) for v in scores)), key=lambda e: (e[1], e[0]))


def oracle_make_phantom(seed, shape=(64, 64, 64), subject_id=""):
    """``make_phantom`` as first written: every term on full ``np.indices``
    grids, and each channel's tumor falloff computed on its own."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 16 for s in shape):
        raise ValueError(f"phantom shape must be >= 16 per axis, got {shape}")
    stream = RandomStream(seed, ("phantom",))

    grids = np.indices(shape, dtype=np.float64)
    center = [(n - 1) / 2.0 for n in shape]
    half = [n / 2.0 for n in shape]

    # smooth brain envelope: 1 at center, 0 at the ellipsoid boundary
    axes = stream.uniform(0.80, 0.90, 3)
    rho2 = sum(((g - c) / (a * h)) ** 2 for g, c, a, h in zip(grids, center, axes, half))
    brain = np.clip(1.0 - rho2, 0.0, None)

    # low-frequency texture: a few random cosine waves, smooth by construction
    texture = np.zeros(shape)
    for _ in range(3):
        freq = stream.uniform(0.5, 1.5, 3)
        phase = stream.uniform(0.0, 2 * np.pi, 3)
        wave = np.ones(shape)
        for g, n, f, p in zip(grids, shape, freq, phase):
            wave = wave * np.cos(np.pi * f * g / n + p)
        texture += stream.uniform(0.05, 0.12) * wave

    # nested tumor shells, fully inside the brain envelope
    m = float(min(shape))
    r_inner = max(1.1, 0.066 * m)
    r_middle = 2.0 * r_inner
    r_outer = 3.0 * r_inner
    t_center = [c + stream.uniform(-0.28, 0.28) * h * 0.5 for c, h in zip(center, half)]
    squash = stream.uniform(0.9, 1.1, 3)
    dist = np.sqrt(sum(((g - tc) / s) ** 2 for g, tc, s in zip(grids, t_center, squash)))

    labels = np.zeros(shape, dtype=np.uint8)
    labels[dist < r_outer] = 2
    labels[dist < r_middle] = 1
    labels[dist < r_inner] = 4

    base = (0.55, 0.85, 0.70, 0.95)
    tumor_gain = (0.35, 0.60, 0.45, 0.25)
    channels = []
    for name, b, tg in zip(CHANNEL_NAMES, base, tumor_gain):
        bump = tg * np.exp(-((dist / r_outer) ** 2))
        intensity = b * brain + 0.5 * texture * brain + bump * (brain > 0)
        vol = Volume(intensity, name=name)
        channels.append(normalize_minmax(vol))

    sid = subject_id or f"phantom-{int(seed)}"
    return Sample(
        channels=tuple(channels),
        labels=LabelMap(labels, convention="raw"),
        subject_id=sid,
    )
