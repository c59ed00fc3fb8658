"""Segmentation evaluation: tumor regions, Dice, HD95, GDL, ensembling.

Region composition follows the BraTS convention: whole tumor WT = {1, 2, 4},
tumor core TC = {1, 4}, enhancing tumor ET = {4} on the raw label alphabet,
so the three masks are nested (ET within TC within WT).

Empty-mask conventions: when exactly one of (prediction, truth) is empty for
a region the scores are the worst-case sentinels Dice 0.0 and HD95 373.0 mm;
when both are empty the region is a true negative and scores Dice 1.0,
HD95 0.0.

Dice and HD95 work on the two masks' union bounding box, not on the whole
grid: a tumor fills a few percent of a BraTS grid. The crop is exact. Outside
the box both masks are empty, so nothing there is a mask or surface voxel,
and the crop's border is non-mask exactly as the grid's border is. Surface
indices found in the crop get the box offset added while they are still
integers, before the multiplication by the spacing, so every point
coordinate, and with it every distance, is bit-identical to the full grid's.

Importing this module loads numpy only: ``scipy.spatial`` loads on the first
HD95 between two nonempty masks.
"""

from dataclasses import dataclass

import numpy as np

from .volume import LabelMap, ProbabilityVolume, Spacing3, _check_spacing

REGIONS = ("WT", "TC", "ET")
REGION_LABELS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}

HD95_SENTINEL_MM = 373.0


@dataclass(frozen=True)
class RegionMask:
    """Binary mask for one evaluation region."""

    region: str
    mask: np.ndarray
    spacing: Spacing3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}, expected one of {REGIONS}")
        m = np.asarray(self.mask)
        if m.ndim != 3:
            raise ValueError(f"region mask must be 3-D, got shape {m.shape}")
        m = m.astype(bool, copy=False)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))
        object.__setattr__(self, "_count", int(np.count_nonzero(m)))

    @property
    def count(self) -> int:
        return self._count


@dataclass(frozen=True)
class MetricRecord:
    subject_id: str
    model_id: str
    region: str
    dice: float
    hd95_mm: float

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}, expected one of {REGIONS}")
        if not 0.0 <= self.dice <= 1.0:
            raise ValueError(f"dice must be in [0, 1], got {self.dice}")
        if not 0.0 <= self.hd95_mm < np.inf:
            raise ValueError(f"hd95_mm must be finite and >= 0, got {self.hd95_mm}")


def region_masks(labels: LabelMap) -> dict[str, RegionMask]:
    """Compose the three nested evaluation regions from a raw label map."""
    if labels.convention != "raw":
        raise ValueError("region composition requires raw labels {0,1,2,4}")
    # REGION_LABELS nest, so each region grows from the one inside it
    et = labels.data == 4
    tc = et | (labels.data == 1)
    wt = tc | (labels.data == 2)
    return {
        region: RegionMask(region=region, mask=mask, spacing=labels.spacing)
        for region, mask in zip(REGIONS, (wt, tc, et))
    }


def _union_box(a: np.ndarray, b: np.ndarray) -> tuple[slice, slice, slice]:
    """Slices of the smallest box holding every True voxel of two masks, not
    both empty, read from their ``any`` projections."""
    yz = a.any(axis=0) | b.any(axis=0)
    projections = (a.any(axis=(1, 2)) | b.any(axis=(1, 2)), yz.any(axis=1), yz.any(axis=0))
    box = []
    for p in projections:
        hits = np.flatnonzero(p)
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def dice(pred: RegionMask, truth: RegionMask) -> float:
    """2|P∩T| / (|P| + |T|); both empty -> 1.0, exactly one empty -> 0.0."""
    if pred.mask.shape != truth.mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.mask.shape} vs truth {truth.mask.shape}"
        )
    np_, nt = pred.count, truth.count
    if np_ == 0 and nt == 0:
        return 1.0
    if np_ == 0 or nt == 0:
        return 0.0
    box = _union_box(pred.mask, truth.mask)
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


def _directed_p95(src_pts: np.ndarray, dst_pts: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(dst_pts).query(src_pts, k=1)
    return float(np.percentile(dists, 95.0))


def hausdorff95(pred: RegionMask, truth: RegionMask) -> float:
    """Symmetric 95th-percentile surface distance in millimeters.

    Takes the max of the two directed 95th percentiles (linear-interpolation
    percentile over the sorted distance list). Distances are Euclidean in
    physical space, i.e. voxel index deltas weighted by the spacing.
    Both masks empty -> 0.0; exactly one empty -> the 373.0 mm sentinel.
    """
    if pred.mask.shape != truth.mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.mask.shape} vs truth {truth.mask.shape}"
        )
    if pred.spacing != truth.spacing:
        raise ValueError(f"spacing mismatch: pred {pred.spacing} vs truth {truth.spacing}")
    pe, te = pred.count == 0, truth.count == 0
    if pe and te:
        return 0.0
    if pe or te:
        return HD95_SENTINEL_MM
    box = _union_box(pred.mask, truth.mask)
    offset = np.array([s.start for s in box])
    sp = np.asarray(pred.spacing, dtype=np.float64)
    pred_pts = (surface_voxels(pred.mask[box]) + offset).astype(np.float64) * sp
    truth_pts = (surface_voxels(truth.mask[box]) + offset).astype(np.float64) * sp
    return max(_directed_p95(pred_pts, truth_pts), _directed_p95(truth_pts, pred_pts))


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
    """Dice and HD95 for all three regions of one (prediction, truth) pair."""
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.spacing != truth.spacing:
        raise ValueError(f"spacing mismatch: pred {pred.spacing} vs truth {truth.spacing}")
    pred_regions = region_masks(pred)
    truth_regions = region_masks(truth)
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
