"""Brute-force reference implementations shared by the test suite.

These deliberately avoid the library's own vectorized code paths (slice
shifts, windowed distance search, scipy resampling): surfaces come from
per-voxel neighbor lookups in a padded table, distances from dense all-pairs
matrices or a ``scipy.spatial.cKDTree`` query, resampled values from an
explicit per-voxel loop, and ranks from ``scipy.stats.rankdata`` one cell at
a time, so agreement is evidence rather than tautology. The all-pairs and
per-voxel oracles are quadratic - keep their masks small (<= ~1000 surface
voxels) and resampled grids tiny (<= ~2000 voxels).
"""

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import rankdata


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
