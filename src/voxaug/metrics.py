"""Segmentation evaluation: tumor regions, Dice, HD95, GDL, ensembling.

Region composition follows the BraTS convention: whole tumor WT = {1, 2, 4},
tumor core TC = {1, 4}, enhancing tumor ET = {4} on the raw label alphabet,
so the three masks are nested (ET within TC within WT).

Empty-mask conventions: when exactly one of (prediction, truth) is empty for
a region the scores are the worst-case sentinels Dice 0.0 and HD95 373.0 mm;
when both are empty the region is a true negative and scores Dice 1.0,
HD95 0.0.

No step works on the whole grid: a tumor fills a few percent of a BraTS
grid. :func:`evaluate_sample` crops both label maps to the union of their
nonzero boxes before it composes the regions, so the six region masks are
built on that box, and each :class:`RegionMask` carries the box's origin in
the full grid. Dice and HD95 then work on the two masks' union box inside
it. Both crops are exact. Outside a box both maps (or masks) are empty, so
nothing there is a mask or surface voxel, and the crop's border is non-mask
exactly as the grid's border is. Voxel coordinates are the full-grid index
(the index in the box plus both offsets, still integers) times the spacing,
so every coordinate, and with it every distance, is bit-identical to the
full grid's. Two empty maps crop to an empty box and score the both-empty
values.

HD95's nearest-surface search is exact and numpy-only: a nearest feature
along each line of axis 0, then a growing window over axes 1 and 2 (see
:func:`hausdorff95`). This module, and with it ``evaluate``, loads no scipy.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .common import REGIONS, MetricRecord
from .volume import LabelMap, ProbabilityVolume, Spacing3, _check_spacing

REGION_LABELS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}

HD95_SENTINEL_MM = 373.0


def _mask_box(m: np.ndarray) -> tuple[slice, slice, slice] | None:
    """Slices of the smallest box holding every nonzero voxel of ``m``, read
    from its ``any`` projections; None when there is none."""
    yz = m.any(axis=0)
    box = []
    for p in (m.any(axis=(1, 2)), yz.any(axis=1), yz.any(axis=0)):
        hits = np.flatnonzero(p)
        if not hits.size:
            return None
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


@dataclass(frozen=True)
class RegionMask:
    """Binary mask for one evaluation region, with its voxel count and its
    bounding box (``box``, None when empty), each found once. ``origin`` is
    the full-grid index of the mask's voxel (0, 0, 0): a mask cut from a
    box of the grid keeps its voxels' coordinates."""

    region: str
    mask: np.ndarray
    spacing: Spacing3 = (1.0, 1.0, 1.0)
    origin: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}, expected one of {REGIONS}")
        m = np.asarray(self.mask)
        if m.ndim != 3:
            raise ValueError(f"region mask must be 3-D, got shape {m.shape}")
        m = m.astype(bool, copy=False)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))
        origin = tuple(operator.index(v) for v in self.origin)
        if len(origin) != 3:
            raise ValueError(f"origin must be three integers, got {self.origin}")
        object.__setattr__(self, "origin", origin)
        count = int(np.count_nonzero(m))
        object.__setattr__(self, "_count", count)
        object.__setattr__(self, "_box", _mask_box(m) if count else None)

    @property
    def count(self) -> int:
        return self._count

    @property
    def box(self) -> tuple[slice, slice, slice] | None:
        return self._box


def region_masks(labels: LabelMap, origin=(0, 0, 0)) -> dict[str, RegionMask]:
    """Compose the three nested evaluation regions from a raw label map,
    whose voxel (0, 0, 0) is the full grid's voxel ``origin``."""
    if labels.convention != "raw":
        raise ValueError("region composition requires raw labels {0,1,2,4}")
    # REGION_LABELS nest, so each region grows from the one inside it
    et = labels.data == 4
    tc = et | (labels.data == 1)
    wt = tc | (labels.data == 2)
    return {
        region: RegionMask(region=region, mask=mask, spacing=labels.spacing, origin=origin)
        for region, mask in zip(REGIONS, (wt, tc, et))
    }


def _union_box(a: RegionMask, b: RegionMask) -> tuple[slice, slice, slice]:
    """Slices of the smallest box holding every True voxel of two nonempty
    masks, combined from their stored boxes."""
    return tuple(
        slice(min(p.start, q.start), max(p.stop, q.stop)) for p, q in zip(a.box, b.box)
    )


def _check_aligned(pred: RegionMask, truth: RegionMask) -> None:
    if pred.mask.shape != truth.mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.mask.shape} vs truth {truth.mask.shape}"
        )
    if pred.origin != truth.origin:
        raise ValueError(f"origin mismatch: pred {pred.origin} vs truth {truth.origin}")


def dice(pred: RegionMask, truth: RegionMask) -> float:
    """2|P∩T| / (|P| + |T|); both empty -> 1.0, exactly one empty -> 0.0."""
    _check_aligned(pred, truth)
    np_, nt = pred.count, truth.count
    if np_ == 0 and nt == 0:
        return 1.0
    if np_ == 0 or nt == 0:
        return 0.0
    box = _union_box(pred, truth)
    inter = int(np.count_nonzero(pred.mask[box] & truth.mask[box]))
    return 2.0 * inter / (np_ + nt)


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Indices (n, 3) of mask voxels with a 6-connected non-mask neighbor.

    The volume boundary counts as non-mask, so voxels on the array border
    are always surface voxels. A nonempty mask always has a nonempty surface.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 3:
        raise ValueError(f"mask must be 3-D, got shape {m.shape}")
    padded = np.pad(m, 1, mode="constant", constant_values=False)
    interior = m.copy()
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return np.argwhere(m & ~interior)


def _window_tables(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two (n, 2n + 1) tables over one axis, entry ``[j, n + d]`` for the
    step ``d`` from ``j``: the squared coordinate gap ``(x[j] - x[j + d])**2``,
    inf where ``j + d`` is off the axis (always so for ``|d| = n``), and
    ``j + d`` clamped to the axis, so a clamped index only meets an inf."""
    n = x.size
    steps = np.arange(n)[:, None] + np.arange(-n, n + 1)
    clamped = np.clip(steps, 0, n - 1)
    gaps = (x[:, None] - x[clamped]) ** 2
    gaps[clamped != steps] = np.inf
    return gaps, clamped


def _axis0_gaps(dst: np.ndarray, shape, x0: np.ndarray, planes: np.ndarray):
    """For each plane ``i`` of ``planes`` and each column ``(j', k')``, the
    squared axis-0 gap from ``x0[i]`` to the column's nearest ``dst`` point,
    inf in columns with none: an array (len(planes), n1, n2). Also returns
    each plane's smallest gap, a lower bound for any ``dst`` point."""
    n0, n1, n2 = shape
    cols, col_of = np.unique(dst[:, 1] * n2 + dst[:, 2], return_inverse=True)
    hit = np.zeros((n0, cols.size), bool)
    hit[dst[:, 0], col_of] = True
    lines = np.arange(n0, dtype=np.int32)[:, None]
    # the last hit at or before each i, and the first at or after it; -1 and
    # n0 (no hit) both read the appended inf
    before = np.where(hit, lines, -1)
    np.maximum.accumulate(before, axis=0, out=before)
    after = np.where(hit[::-1], lines[::-1], n0)
    np.minimum.accumulate(after, axis=0, out=after)
    after = after[::-1]
    ends = np.append(x0, np.inf)
    xi = x0[planes, None]
    gap = xi - ends[before[planes]]
    gap *= gap
    ahead = ends[after[planes]] - xi
    ahead *= ahead
    np.minimum(gap, ahead, out=gap)
    g0 = np.full((planes.size, n1 * n2), np.inf)
    g0[:, cols] = gap
    return g0.reshape(planes.size, n1, n2), gap.min(axis=1)


def _nearest_squared(src: np.ndarray, dst: np.ndarray, shape, x, spacing) -> np.ndarray:
    """For each ``src`` index point, the squared distance to its nearest
    ``dst`` point, summed as ``(d0**2 + d1**2) + d2**2`` from the coordinates
    ``x[a][index]``. Both point sets are (n, 3) indices into ``shape``."""
    _, n1, n2 = shape
    planes, plane_of = np.unique(src[:, 0], return_inverse=True)
    g0, floor = _axis0_gaps(dst, shape, x[0], planes)
    gaps1, steps1 = _window_tables(x[1])
    gaps2, steps2 = _window_tables(x[2])
    # lines (i, j, :) holding a src point; g1[l, k'] is line l's least
    # d0**2 + d1**2 over the window |dj| <= w1
    lines, row = np.unique(plane_of * n1 + src[:, 1], return_inverse=True)
    lp, lj = np.divmod(lines, n1)
    g1 = g0[lp, lj]
    out = np.empty(len(src))
    todo = np.arange(len(src))
    w1, reach = 0, min(spacing[1], spacing[2])
    while True:
        grown = min(n1 - 1, int(np.ceil(reach / spacing[1])))
        for d in range(w1 + 1, grown + 1):
            for step in (n1 + d, n1 - d):
                np.minimum(g1, g0[lp, steps1[lj, step]] + gaps1[lj, step][:, None], out=g1)
        w1, w2 = grown, min(n2 - 1, int(np.ceil(reach / spacing[2])))
        j, k = src[todo, 1], src[todo, 2]
        best = np.full(len(todo), np.inf)
        for step in range(n2 - w2, n2 + w2 + 1):
            np.minimum(best, g1[row, steps2[k, step]] + gaps2[k, step], out=best)
        out[todo] = best
        # a dst point outside the window is, squared, at least its plane's
        # least d0**2 plus the gap past the window's nearer edge
        beyond = np.minimum(
            np.minimum(gaps1[j, n1 + w1 + 1], gaps1[j, n1 - w1 - 1]),
            np.minimum(gaps2[k, n2 + w2 + 1], gaps2[k, n2 - w2 - 1]),
        )
        open_ = best > floor[plane_of[todo]] + beyond
        if not open_.any():
            return out
        # redo only the open points, on their own lines, in a window twice as wide
        todo, row = todo[open_], row[open_]
        keep = np.zeros(len(lp), bool)
        keep[row] = True
        lp, lj, g1 = lp[keep], lj[keep], g1[keep]
        row = (np.cumsum(keep) - 1)[row]
        reach *= 2


def _directed_p95(src: np.ndarray, dst: np.ndarray, shape, x, spacing) -> float:
    return float(np.percentile(np.sqrt(_nearest_squared(src, dst, shape, x, spacing)), 95.0))


def hausdorff95(pred: RegionMask, truth: RegionMask) -> float:
    """Symmetric 95th-percentile surface distance in millimeters.

    Takes the max of the two directed 95th percentiles (linear-interpolation
    percentile over the sorted distance list). Distances are Euclidean in
    physical space, i.e. voxel index deltas weighted by the spacing.
    Both masks empty -> 0.0; exactly one empty -> the 373.0 mm sentinel.

    The nearest-surface search is exact, equal bit for bit to a KD-tree
    (``scipy.spatial.cKDTree``) query over the same points. Coordinates are
    ``float64(index + box offset + origin) * spacing`` per axis, and each squared
    distance is summed as ``(d0**2 + d1**2) + d2**2``, the order cKDTree
    uses, before its square root. Rounding is monotone, so the minimum over
    one axis commutes with adding the other axes' terms:
    - along axis 0, the nearest surface voxel of each line, found from
      running indices on both sides, gives the least ``d0**2``;
    - axes 1 and 2 add their terms over a window ``|d| <= w``, axis 2 only
      at the query voxels. A point is final once its best sum is no larger
      than a bound on every voxel beyond the window: its plane's least
      ``d0**2`` plus the smallest squared gap past the window's edge. Points
      that are not final are redone on their own lines, twice as wide.
    """
    _check_aligned(pred, truth)
    if pred.spacing != truth.spacing:
        raise ValueError(f"spacing mismatch: pred {pred.spacing} vs truth {truth.spacing}")
    pe, te = pred.count == 0, truth.count == 0
    if pe and te:
        return 0.0
    if pe or te:
        return HD95_SENTINEL_MM
    box = _union_box(pred, truth)
    shape = tuple(s.stop - s.start for s in box)
    x = tuple(
        (np.arange(n) + (s.start + o)).astype(np.float64) * sp
        for n, s, o, sp in zip(shape, box, pred.origin, pred.spacing)
    )
    pred_pts = surface_voxels(pred.mask[box])
    truth_pts = surface_voxels(truth.mask[box])
    return max(
        _directed_p95(pred_pts, truth_pts, shape, x, pred.spacing),
        _directed_p95(truth_pts, pred_pts, shape, x, pred.spacing),
    )


def generalized_dice_loss(probs: ProbabilityVolume, truth: ProbabilityVolume) -> float:
    """Multi-class Dice loss with inverse-square class-volume weights.

    GDL = 1 - 2 (sum_l w_l sum_n r_ln p_ln) / (sum_l w_l sum_n (r_ln + p_ln))
    with w_l = 1 / ((sum_n r_ln)^2 + 1e-7). The epsilon keeps weights finite
    for classes absent from the reference.
    """
    if probs.data.shape != truth.data.shape:
        raise ValueError(
            f"shape mismatch: probs {probs.data.shape} vs truth {truth.data.shape}"
        )
    probs.check_normalized(tol=1e-4)
    r = truth.data.reshape(-1, truth.num_classes)
    if not np.all((r == 0.0) | (r == 1.0)) or not np.all(r.sum(axis=1) == 1.0):
        raise ValueError("truth must be one-hot (entries 0/1 summing to 1 per voxel)")
    p = probs.data.reshape(-1, probs.num_classes)
    class_volumes = r.sum(axis=0)
    w = 1.0 / (class_volumes**2 + 1e-7)
    numer = float(np.sum(w * np.sum(r * p, axis=0)))
    denom = float(np.sum(w * np.sum(r + p, axis=0)))
    return 1.0 - 2.0 * numer / denom


def ensemble_average(members: list[ProbabilityVolume]) -> tuple[ProbabilityVolume, LabelMap]:
    """Average class probabilities voxelwise, then argmax to canonical labels.

    Argmax ties break toward the lowest class index.
    """
    if len(members) == 0:
        raise ValueError("ensemble requires at least one member")
    first = members[0]
    for i, m in enumerate(members[1:], start=1):
        if m.data.shape != first.data.shape:
            raise ValueError(
                f"member {i} shape {m.data.shape} does not match member 0 {first.data.shape}"
            )
        if m.spacing != first.spacing:
            raise ValueError(
                f"member {i} spacing {m.spacing} does not match member 0 {first.spacing}"
            )
    if first.num_classes > 4:
        raise ValueError(
            f"cannot map {first.num_classes} classes onto the canonical alphabet 0..3"
        )
    mean = np.mean(np.stack([m.data for m in members], axis=0), axis=0)
    avg = ProbabilityVolume(data=mean, spacing=first.spacing)
    labels = LabelMap(
        data=np.argmax(mean, axis=-1).astype(np.uint8),
        spacing=first.spacing,
        convention="canonical",
    )
    return avg, labels


def evaluate_sample(
    pred: LabelMap, truth: LabelMap, subject_id: str, model_id: str
) -> list[MetricRecord]:
    """Dice and HD95 for all three regions of one (prediction, truth) pair.

    The regions are composed on the union of the two maps' nonzero boxes,
    not on the whole grid (see the module docstring)."""
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.spacing != truth.spacing:
        raise ValueError(f"spacing mismatch: pred {pred.spacing} vs truth {truth.spacing}")
    # the union of the maps' nonzero boxes; an empty box when both are empty
    boxes = [b for b in map(_mask_box, (pred.data, truth.data)) if b is not None]
    box = (slice(0, 0),) * 3
    if boxes:
        box = tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                    for axis in zip(*boxes))
    origin = tuple(s.start for s in box)
    pred_regions, truth_regions = (
        region_masks(LabelMap(m.data[box], m.spacing, m.convention, checked=True), origin)
        for m in (pred, truth)
    )
    records = []
    for region in REGIONS:
        pm, tm = pred_regions[region], truth_regions[region]
        records.append(
            MetricRecord(
                subject_id=subject_id,
                model_id=model_id,
                region=region,
                dice=dice(pm, tm),
                hd95_mm=hausdorff95(pm, tm),
            )
        )
    return records
