import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import voxaug as vx
from oracles import kdtree_directed_p95, oracle_hd95, random_blob
from voxaug.metrics import (
    HD95_SENTINEL_MM,
    REGION_LABELS,
    REGIONS,
    MetricRecord,
    RegionMask,
    _union_box,
    dice,
    ensemble_average,
    evaluate_sample,
    generalized_dice_loss,
    hausdorff95,
    region_masks,
    surface_voxels,
)
from voxaug.volume import LabelMap, ProbabilityVolume


def _mask(arr, region="WT", spacing=(1.0, 1.0, 1.0)):
    return RegionMask(region, np.asarray(arr, dtype=bool), spacing)


def _labels(arr):
    return LabelMap(np.asarray(arr, dtype=np.uint8))


# --- region composition ------------------------------------------------------

def test_region_masks_all_zero():
    masks = region_masks(_labels(np.zeros((3, 3, 3))))
    assert all(masks[r].count == 0 for r in REGIONS)


def test_region_masks_single_enhancing_voxel():
    data = np.zeros((3, 3, 3))
    data[1, 1, 1] = 4
    masks = region_masks(_labels(data))
    for r in REGIONS:
        assert masks[r].count == 1 and masks[r].mask[1, 1, 1]


def test_region_masks_edema_in_wt_only():
    data = np.zeros((3, 3, 3))
    data[0, 0, 0] = 2
    masks = region_masks(_labels(data))
    assert masks["WT"].count == 1
    assert masks["TC"].count == 0
    assert masks["ET"].count == 0


def test_region_masks_requires_raw_convention():
    lm = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8), convention="canonical")
    with pytest.raises(ValueError, match="raw"):
        region_masks(lm)


@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
        elements=st.sampled_from([0, 1, 2, 4]),
    )
)
def test_region_nesting_property(data):
    masks = region_masks(_labels(data))
    assert np.all(masks["ET"].mask <= masks["TC"].mask)
    assert np.all(masks["TC"].mask <= masks["WT"].mask)
    for region in REGIONS:
        expected = np.isin(data, REGION_LABELS[region])
        assert np.array_equal(masks[region].mask, expected)
        assert masks[region].count == int(expected.sum())


# --- dice ----------------------------------------------------------------------

def test_dice_identical_masks():
    m = np.zeros((4, 4, 4), bool)
    m[1:3, 1:3, 1:3] = True
    assert dice(_mask(m), _mask(m)) == 1.0


def test_dice_hand_case():
    p = np.zeros((4, 4, 1), bool)
    t = np.zeros((4, 4, 1), bool)
    p[0, 0, 0] = p[0, 1, 0] = True  # |P| = 2
    t[0, 0, 0] = t[0, 1, 0] = t[1, 0, 0] = t[1, 1, 0] = True  # |T| = 4, overlap 2
    assert dice(_mask(p), _mask(t)) == pytest.approx(2 * 2 / (2 + 4), abs=1e-12)
    assert round(dice(_mask(p), _mask(t)), 4) == 0.6667


def test_dice_empty_conventions():
    e = np.zeros((3, 3, 3), bool)
    f = np.zeros((3, 3, 3), bool)
    f[0, 0, 0] = True
    assert dice(_mask(e), _mask(e)) == 1.0
    assert dice(_mask(e), _mask(f)) == 0.0
    assert dice(_mask(f), _mask(e)) == 0.0


def test_dice_symmetric():
    rng = np.random.default_rng(0)
    a = rng.random((5, 5, 5)) > 0.6
    b = rng.random((5, 5, 5)) > 0.6
    assert dice(_mask(a), _mask(b)) == dice(_mask(b), _mask(a))


def test_dice_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        dice(_mask(np.zeros((2, 2, 2))), _mask(np.zeros((3, 2, 2))))


# --- surfaces -------------------------------------------------------------------

def test_surface_single_voxel():
    m = np.zeros((3, 3, 3), bool)
    m[1, 1, 1] = True
    np.testing.assert_array_equal(surface_voxels(m), [[1, 1, 1]])


def test_surface_solid_block_is_shell():
    m = np.zeros((6, 6, 6), bool)
    m[1:5, 1:5, 1:5] = True
    surf = surface_voxels(m)
    assert len(surf) == 4**3 - 2**3  # interior 2^3 removed
    assert not any((s == [2, 2, 2]).all() for s in surf)


def test_surface_volume_border_counts_as_outside():
    m = np.ones((3, 3, 3), bool)
    assert len(surface_voxels(m)) == 27 - 1  # only the very center is interior


# --- hausdorff95 -----------------------------------------------------------------

def test_hd95_identical_masks():
    m = np.zeros((5, 5, 5), bool)
    m[2, 2, 2] = True
    assert hausdorff95(_mask(m), _mask(m)) == 0.0


def test_hd95_three_voxel_separation():
    p = np.zeros((8, 3, 3), bool)
    t = np.zeros((8, 3, 3), bool)
    p[1, 1, 1] = True
    t[4, 1, 1] = True
    assert hausdorff95(_mask(p), _mask(t)) == pytest.approx(3.0, abs=1e-12)


def test_hd95_anisotropic_spacing():
    p = np.zeros((3, 3, 8), bool)
    t = np.zeros((3, 3, 8), bool)
    p[1, 1, 1] = True
    t[1, 1, 3] = True  # 2 voxels apart along z at 2.5 mm/voxel
    got = hausdorff95(_mask(p, spacing=(1, 1, 2.5)), _mask(t, spacing=(1, 1, 2.5)))
    assert got == pytest.approx(5.0, abs=1e-12)


def test_hd95_empty_conventions():
    e = np.zeros((3, 3, 3), bool)
    f = np.zeros((3, 3, 3), bool)
    f[1, 1, 1] = True
    assert hausdorff95(_mask(e), _mask(e)) == 0.0
    assert hausdorff95(_mask(e), _mask(f)) == HD95_SENTINEL_MM == 373.0
    assert hausdorff95(_mask(f), _mask(e)) == 373.0


def test_hd95_symmetric():
    rng = np.random.default_rng(1)
    a = rng.random((6, 6, 6)) > 0.7
    b = rng.random((6, 6, 6)) > 0.7
    a[0, 0, 0] = b[5, 5, 5] = True
    assert hausdorff95(_mask(a), _mask(b)) == hausdorff95(_mask(b), _mask(a))


def test_hd95_spacing_mismatch_rejected():
    m = np.ones((2, 2, 2), bool)
    with pytest.raises(ValueError, match="spacing mismatch"):
        hausdorff95(_mask(m, spacing=(1, 1, 1)), _mask(m, spacing=(1, 1, 2)))


def test_hd95_matches_brute_force_oracle_sample():
    rng = np.random.default_rng(17)
    for trial in range(10):
        shape = tuple(int(v) for v in rng.integers(8, 20, 3))
        spacing = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.5), (0.7, 1.3, 2.0)][trial % 3]
        a, b = random_blob(rng, shape), random_blob(rng, shape)
        got = hausdorff95(_mask(a, spacing=spacing), _mask(b, spacing=spacing))
        assert got == pytest.approx(oracle_hd95(a, b, spacing), abs=1e-9)


def _full_grid_hd95(a, b, spacing):
    """HD95 from surfaces found on the whole grid, without any crop, and
    distances from a ``cKDTree`` query."""
    sp = np.asarray(spacing, dtype=np.float64)
    pa = surface_voxels(a).astype(np.float64) * sp
    pb = surface_voxels(b).astype(np.float64) * sp
    return max(kdtree_directed_p95(pa, pb), kdtree_directed_p95(pb, pa))


def _full_grid_dice(a, b):
    return 2.0 * int(np.count_nonzero(a & b)) / (int(np.count_nonzero(a)) + int(np.count_nonzero(b)))


def _ball(shape, center, radius):
    g = np.indices(shape)
    return sum((gi - c) ** 2 for gi, c in zip(g, center)) <= radius * radius


def _face_balls(rng, shape):
    """One random ball centred on each of the six grid faces."""
    m = np.zeros(shape, bool)
    for axis in range(3):
        for side in (0, shape[axis] - 1):
            center = rng.integers(0, shape)
            center[axis] = side
            m |= _ball(shape, center, int(rng.integers(1, 4)))
    return m


def _crop_cases():
    rng = np.random.default_rng(2024)
    for trial in range(8):
        shape = tuple(int(v) for v in rng.integers(9, 24, 3))
        a, b = random_blob(rng, shape), random_blob(rng, shape)
        yield "blobs", a, b
        yield "faces", a | _face_balls(rng, shape), b
        yield "nested", a, a | b
        corner = np.zeros(shape, bool)
        corner[tuple(s - 1 for s in shape)] = True
        near_origin = np.zeros(shape, bool)
        near_origin[:3, :3, :3] = random_blob(rng, (3, 3, 3))
        yield "far-corner", near_origin, corner


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.9375, 1.1, 3.3), (0.7, 1.3, 2.0)])
def test_bounding_box_crop_is_bit_identical_to_the_full_grid(spacing):
    for kind, a, b in _crop_cases():
        pa, pb = _mask(a, spacing=spacing), _mask(b, spacing=spacing)
        for p, t in ((pa, pb), (pb, pa)):
            assert hausdorff95(p, t) == _full_grid_hd95(p.mask, t.mask, spacing), kind
            assert dice(p, t) == _full_grid_dice(p.mask, t.mask), kind


@pytest.fixture(scope="module")
def perturbed_phantom():
    """Each region of a phantom with predictions that are the truth, grown by
    1 and 3 voxels, shrunk by 2, grown by 1 plus a far 4x3x2 blob, and moved
    60 voxels along x: the cases where the distance search reaches far."""
    from scipy import ndimage

    regions = region_masks(vx.make_phantom(3, (176, 64, 48)).labels)
    cases = []
    for region in REGIONS:
        truth = regions[region].mask
        far_blob = ndimage.binary_dilation(truth)
        far_blob[2:6, 2:5, 2:4] = True
        shifted = np.zeros_like(truth)
        shifted[60:] = truth[:-60]
        assert np.count_nonzero(shifted) == np.count_nonzero(truth)
        preds = {
            "same": truth,
            "dilated 1": ndimage.binary_dilation(truth),
            "dilated 3": ndimage.binary_dilation(truth, iterations=3),
            "eroded 2": ndimage.binary_erosion(truth, iterations=2),
            "dilated 1 + far blob": far_blob,
            "shifted 60": shifted,
        }
        for kind, pred in preds.items():
            assert pred.any(), kind
            cases.append((f"{region} {kind}", pred, truth))
    return cases


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.9375, 1.1, 3.3)])
def test_hd95_equals_the_kdtree_reference_on_perturbed_phantoms(perturbed_phantom, spacing):
    for name, pred, truth in perturbed_phantom:
        got = hausdorff95(_mask(pred, spacing=spacing), _mask(truth, spacing=spacing))
        assert got == _full_grid_hd95(pred, truth, spacing), name


def _ellipsoids(rng, shape):
    """Union of 1-3 random axis-aligned ellipsoids; guaranteed nonempty."""
    g = np.indices(shape)
    m = np.zeros(shape, bool)
    for _ in range(int(rng.integers(1, 4))):
        center, semi = rng.integers(0, shape), rng.uniform(0.5, 6.0, 3)
        m |= sum(((gi - c) / r) ** 2 for gi, c, r in zip(g, center, semi)) <= 1.0
    m[tuple(rng.integers(0, shape))] = True
    return m


def test_hd95_equals_the_kdtree_reference_on_random_anisotropic_blobs():
    rng = np.random.default_rng(95)
    for trial in range(300):
        shape = tuple(int(v) for v in rng.integers(4, 32, 3))
        spacing = tuple(float(v) for v in rng.uniform(0.3, 4.0, 3))
        a, b = _ellipsoids(rng, shape), _ellipsoids(rng, shape)
        expected = _full_grid_hd95(a, b, spacing)
        assert hausdorff95(_mask(a, spacing=spacing), _mask(b, spacing=spacing)) == expected, trial
        assert hausdorff95(_mask(b, spacing=spacing), _mask(a, spacing=spacing)) == expected, trial


def _argwhere_box(m):
    idx = np.argwhere(m)
    return tuple(slice(int(lo), int(hi) + 1) for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))


def test_region_mask_box_is_the_tight_box_of_its_voxels():
    for kind, a, b in _crop_cases():
        pa, pb = _mask(a), _mask(b)
        assert pa.box == _argwhere_box(a), kind
        assert _union_box(pa, pb) == _union_box(pb, pa) == _argwhere_box(a | b), kind
    assert _mask(np.zeros((4, 5, 6), bool)).box is None


def test_region_mask_keeps_a_bool_mask_without_copying():
    m = np.zeros((3, 3, 3), bool)
    m[1, 1, 1] = True
    rm = RegionMask("ET", m)
    assert rm.mask is m
    assert rm.count == 1


# --- generalized Dice loss --------------------------------------------------------

def _one_hot(labels, classes):
    flat = np.eye(classes)[labels.ravel()]
    return ProbabilityVolume(flat.reshape(labels.shape + (classes,)))


def test_gdl_perfect_prediction():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, (4, 4, 4))
    truth = _one_hot(labels, 3)
    assert generalized_dice_loss(truth, truth) <= 1e-5


def test_gdl_fully_wrong_prediction():
    labels = np.zeros((3, 3, 3), dtype=int)
    wrong = np.ones((3, 3, 3), dtype=int)
    assert generalized_dice_loss(_one_hot(wrong, 2), _one_hot(labels, 2)) >= 1 - 1e-5


def test_gdl_hand_case():
    truth = ProbabilityVolume(np.array([[[[1.0, 0.0]]], [[[0.0, 1.0]]]]))
    probs = ProbabilityVolume(np.full((2, 1, 1, 2), 0.5))
    assert generalized_dice_loss(probs, truth) == pytest.approx(0.5, abs=1e-6)


def test_gdl_rejects_unnormalized_probs():
    truth = _one_hot(np.zeros((2, 2, 2), dtype=int), 2)
    bad = ProbabilityVolume(np.full((2, 2, 2, 2), 0.501))
    with pytest.raises(ValueError):
        generalized_dice_loss(bad, truth)


def test_gdl_rejects_soft_truth():
    soft = ProbabilityVolume(np.full((2, 2, 2, 2), 0.5))
    with pytest.raises(ValueError, match="one-hot"):
        generalized_dice_loss(soft, soft)


def test_gdl_class_permutation_invariance():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, (4, 4, 4))
    raw = rng.random((4, 4, 4, 3))
    probs = raw / raw.sum(axis=-1, keepdims=True)
    truth = _one_hot(labels, 3)
    base = generalized_dice_loss(ProbabilityVolume(probs), truth)
    perm = np.array([2, 0, 1])
    permuted = generalized_dice_loss(
        ProbabilityVolume(probs[..., perm]),
        ProbabilityVolume(truth.data[..., perm]),
    )
    assert permuted == pytest.approx(base, abs=1e-12)


# --- ensembling --------------------------------------------------------------------

def test_ensemble_single_member_is_argmax():
    rng = np.random.default_rng(4)
    raw = rng.random((3, 3, 3, 4))
    probs = ProbabilityVolume(raw / raw.sum(-1, keepdims=True))
    avg, labels = ensemble_average([probs])
    np.testing.assert_array_equal(labels.data, np.argmax(probs.data, -1))
    np.testing.assert_allclose(avg.data, probs.data)
    assert labels.convention == "canonical"


def test_ensemble_two_member_mean():
    a = ProbabilityVolume(np.full((1, 1, 1, 2), [0.6, 0.4]))
    b = ProbabilityVolume(np.full((1, 1, 1, 2), [0.2, 0.8]))
    avg, labels = ensemble_average([a, b])
    np.testing.assert_allclose(avg.data[0, 0, 0], [0.4, 0.6])
    assert labels.data[0, 0, 0] == 1


def test_ensemble_tie_breaks_low():
    a = ProbabilityVolume(np.full((1, 1, 1, 2), [0.5, 0.5]))
    _, labels = ensemble_average([a])
    assert labels.data[0, 0, 0] == 0


def test_ensemble_shape_mismatch():
    a = ProbabilityVolume(np.full((2, 2, 2, 2), 0.5))
    b = ProbabilityVolume(np.full((2, 2, 3, 2), 0.5))
    with pytest.raises(ValueError):
        ensemble_average([a, b])
    with pytest.raises(ValueError):
        ensemble_average([])


# --- evaluate_sample ----------------------------------------------------------------

def test_evaluate_sample_perfect():
    s = vx.make_phantom(1, (24, 24, 24))
    recs = evaluate_sample(s.labels, s.labels, "subj", "model")
    assert {r.region for r in recs} == set(REGIONS)
    assert all(r.dice == 1.0 and r.hd95_mm == 0.0 for r in recs)


def test_evaluate_sample_shape_mismatch():
    pred, truth = _labels(np.zeros((2, 2, 2))), _labels(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match=re.escape("shape mismatch: pred (2, 2, 2) vs truth (3, 2, 2)")):
        evaluate_sample(pred, truth, "s", "m")


def test_evaluate_sample_spacing_mismatch():
    pred = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1.0, 1.0, 2.0))
    truth = _labels(np.zeros((2, 2, 2)))
    expected = "spacing mismatch: pred (1.0, 1.0, 2.0) vs truth (1.0, 1.0, 1.0)"
    with pytest.raises(ValueError, match=re.escape(expected)):
        evaluate_sample(pred, truth, "s", "m")


def test_evaluate_sample_sentinel_pair_rule():
    truth = np.zeros((6, 6, 6))
    truth[2:4, 2:4, 2:4] = 4
    pred = np.zeros((6, 6, 6))
    pred[2:4, 2:4, 2:4] = 2  # WT overlaps, TC and ET empty in prediction
    recs = {r.region: r for r in evaluate_sample(_labels(pred), _labels(truth), "s", "m")}
    assert recs["WT"].dice == 1.0
    for region in ("TC", "ET"):
        assert recs[region].dice == 0.0
        assert recs[region].hd95_mm == 373.0


def test_metric_record_validation():
    with pytest.raises(ValueError):
        MetricRecord("s", "m", "XX", 0.5, 1.0)
    with pytest.raises(ValueError):
        MetricRecord("s", "m", "ET", 1.5, 1.0)
    with pytest.raises(ValueError):
        MetricRecord("s", "m", "ET", 0.5, -1.0)
