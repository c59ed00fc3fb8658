import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_affine
from scipy.ndimage import gaussian_filter

import voxaug as vx
from voxaug import interp
from voxaug.interp import AffineTransform, bspline_upsample
from voxaug.volume import LabelMap, Sample, Volume


def warp(sample, steps):
    """``sample`` resampled through ``steps``: the readers of
    :func:`voxaug.interp.warp` applied to each of its arrays."""
    return sample.map(*interp.warp(sample.shape, steps))


def _rand_volume(seed, shape=(12, 10, 14)):
    return Volume(np.random.default_rng(seed).random(shape, dtype=np.float32))


def _rand_labels(seed, shape=(12, 10, 14)):
    return LabelMap(np.random.default_rng(seed).choice([0, 1, 2, 4], size=shape).astype(np.uint8))


def _sample(*channels, labels=None):
    return Sample(channels=channels, labels=labels, subject_id="t")


# --- AffineTransform -----------------------------------------------------

def test_identity_is_bitwise_identity():
    s = _sample(_rand_volume(0), _rand_volume(10), labels=_rand_labels(20))
    out = warp(s, [AffineTransform.identity()])
    for got, want in zip(out.channels, s.channels):
        np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(out.labels.data, s.labels.data)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="non-invertible transform"):
        AffineTransform(np.zeros((3, 3)))


def test_rotation_matrix_determinant_one():
    t = AffineTransform.rotation_xyz((13.0, -7.0, 41.0))
    assert np.linalg.det(t.matrix) == pytest.approx(1.0, abs=1e-12)


def test_inverse_composes_to_identity():
    t = AffineTransform.rotation_xyz((10.0, 20.0, 30.0))
    np.testing.assert_allclose(t.matrix @ t.inverse().matrix, np.eye(3), atol=1e-12)


# --- warp: affine steps ---------------------------------------------------

def test_rot90_about_z_is_exact_permutation():
    shape = (32, 32, 32)
    s = _sample(_rand_volume(1, shape), labels=_rand_labels(11, shape))
    out = warp(s, [AffineTransform.rotation_xyz((0.0, 0.0, 90.0))])
    np.testing.assert_array_equal(out.channels[0].data, np.rot90(s.channels[0].data, 1, axes=(0, 1)))
    np.testing.assert_array_equal(out.labels.data, np.rot90(s.labels.data, 1, axes=(0, 1)))


def test_rot90_each_axis_is_permutation():
    # multiples of 90 degrees are voxel permutations: same multiset of values
    shape = (16, 16, 16)
    s = _sample(_rand_volume(2, shape), labels=_rand_labels(12, shape))
    for angles in ((90.0, 0.0, 0.0), (0.0, 90.0, 0.0), (0.0, 0.0, -90.0), (0.0, 0.0, 180.0)):
        out = warp(s, [AffineTransform.rotation_xyz(angles)])
        for got, want in ((out.channels[0], s.channels[0]), (out.labels, s.labels)):
            np.testing.assert_array_equal(np.sort(got.data, axis=None), np.sort(want.data, axis=None))


def test_scale_matches_brute_force_oracle_on_5cube():
    data = np.zeros((5, 5, 5), dtype=np.float32)
    data[2, 2, 2] = 1.0
    data[1, 3, 2] = 0.5
    t = AffineTransform.scaling((2.0, 2.0, 2.0))
    got = warp(_sample(Volume(data)), [t]).channels[0].data
    want = oracle_affine(data.astype(np.float64), t.matrix, order=1)
    np.testing.assert_allclose(got, want.astype(np.float32), atol=1e-6)


def test_rotation_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    vol = Volume(rng.random((6, 5, 7)))
    t = AffineTransform.rotation_xyz((11.0, -23.0, 37.0))
    got = warp(_sample(vol), [t]).channels[0].data
    want = oracle_affine(vol.data.astype(np.float64), t.matrix, order=1)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_nearest_matches_brute_force_oracle():
    shape = (6, 6, 6)
    labels = _rand_labels(4, shape)
    t = AffineTransform.rotation_xyz((0.0, 30.0, 10.0))
    got = warp(_sample(Volume(np.zeros(shape)), labels=labels), [t]).labels.data
    want = oracle_affine(labels.data.astype(np.float64), t.matrix, order=0)
    np.testing.assert_array_equal(got, want.astype(np.uint8))


def test_uniform_upscale_enlarges_centered_content():
    data = np.zeros((9, 9, 9), dtype=np.float32)
    data[4, 4, 4] = 1.0
    out = warp(_sample(Volume(data)), [AffineTransform.scaling((2.0, 2.0, 2.0))])
    out = out.channels[0]
    assert (out.data >= 0.1).sum() > 1  # the bright voxel spreads over its neighborhood
    assert out.data[4, 4, 4] == pytest.approx(1.0)


def test_downscale_shrinks_foreground(phantom_sample):
    ch = phantom_sample.channels[0]
    out = warp(phantom_sample, [AffineTransform.scaling((0.8, 0.8, 0.8))]).channels[0]
    assert (out.data > 0.05).sum() < (ch.data > 0.05).sum()


def test_trilinear_reproduces_linear_functions():
    shape = (14, 12, 13)
    i, j, k = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij")
    lin = 0.2 + 0.03 * i - 0.05 * j + 0.01 * k
    t = AffineTransform.rotation_xyz((7.0, -4.0, 12.0))
    out = warp(_sample(Volume(lin)), [t]).channels[0].data.astype(np.float64)
    inv = np.linalg.inv(t.matrix)
    c = (np.asarray(shape) - 1.0) / 2.0
    pts = np.stack([i, j, k], axis=-1) - c
    src = pts @ inv.T + c
    inside = np.all((src >= 0) & (src <= np.asarray(shape) - 1.0), axis=-1)
    want = 0.2 + 0.03 * src[..., 0] - 0.05 * src[..., 1] + 0.01 * src[..., 2]
    np.testing.assert_allclose(out[inside], want[inside], atol=1e-6)


def test_affine_roundtrip_bound_on_smooth_phantoms():
    t = AffineTransform.rotation_xyz((10.0, 5.0, -7.0))
    for seed in range(3):
        s = vx.make_phantom(seed, (48, 48, 40))
        smooth = Volume(gaussian_filter(s.channels[0].data.astype(np.float64), 1.0))
        back = warp(warp(_sample(smooth), [t]), [t.inverse()]).channels[0]
        err = np.abs(back.data.astype(np.float64) - smooth.data.astype(np.float64)).max()
        assert err < 0.02, f"seed {seed}: round-trip error {err}"


def test_labels_resample_nearest_alphabet_preserved(phantom_sample):
    t = AffineTransform.rotation_xyz((25.0, -10.0, 5.0))
    out = warp(phantom_sample, [t]).labels
    assert set(np.unique(out.data)) <= {0, 1, 2, 4}
    assert out.data.dtype == np.uint8


@given(st.tuples(st.floats(-60, 60), st.floats(-60, 60), st.floats(-60, 60)))
@settings(max_examples=20)
def test_random_rotations_never_invent_labels(angles):
    s = _sample(_rand_volume(5, (10, 10, 10)), labels=_rand_labels(5, (10, 10, 10)))
    out = warp(s, [AffineTransform.rotation_xyz(angles)])
    assert set(np.unique(out.labels.data)) <= {0, 1, 2, 4}


# --- bspline_upsample -----------------------------------------------------

def test_zero_control_grid_gives_zero_field():
    fld = bspline_upsample(np.zeros((4, 4, 4, 3)), (11, 13, 9))
    assert fld.shape == (11, 13, 9, 3)
    assert not fld.any()


def test_constant_control_grid_reproduced():
    coarse = np.tile(np.array([1.5, -2.0, 0.25]), (4, 4, 4, 1))
    fld = bspline_upsample(coarse, (10, 10, 10))
    np.testing.assert_allclose(fld, np.tile([1.5, -2.0, 0.25], (10, 10, 10, 1)), atol=1e-6)


def test_linear_ramp_control_grid_reproduced():
    g = 5
    coarse = np.zeros((g, g, g, 3))
    coarse[..., 0] = np.linspace(-1.0, 1.0, g)[:, None, None]
    target = (17, 9, 9)
    fld = bspline_upsample(coarse, target)
    want = np.linspace(-1.0, 1.0, target[0])[:, None, None]
    np.testing.assert_allclose(fld[..., 0], np.broadcast_to(want, target), atol=1e-6)
    np.testing.assert_allclose(fld[..., 1:], 0.0, atol=1e-6)


def test_minimal_grid_size_two_works():
    coarse = np.random.default_rng(6).normal(0, 1, (2, 2, 2, 3))
    fld = bspline_upsample(coarse, (8, 8, 8))
    assert fld.shape == (8, 8, 8, 3)
    # corners of the dense field hit the control values exactly
    np.testing.assert_allclose(fld[0, 0, 0], coarse[0, 0, 0], atol=1e-9)
    np.testing.assert_allclose(fld[-1, -1, -1], coarse[-1, -1, -1], atol=1e-9)


def test_control_values_interpolated_not_approximated():
    g = 4
    coarse = np.random.default_rng(7).normal(0, 2, (g, g, g, 3))
    n = 3 * (g - 1) + 1  # dense grid with control points on exact indices
    fld = bspline_upsample(coarse, (n, n, n))
    np.testing.assert_allclose(fld[::3, ::3, ::3], coarse, atol=1e-9)


def test_bad_control_grids_rejected():
    with pytest.raises(ValueError):
        bspline_upsample(np.zeros((1, 1, 1, 3)), (4, 4, 4))
    with pytest.raises(ValueError):
        bspline_upsample(np.zeros((4, 4, 4, 2)), (4, 4, 4))
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        bspline_upsample(bad, (4, 4, 4))


# --- warp: elastic steps ---------------------------------------------------
# A constant control grid upsamples to exactly that constant field.

def _constant_grid(shift):
    return np.tile(np.asarray(shift, dtype=np.float64), (4, 4, 4, 1))


def test_zero_field_identity_both_modes(phantom_sample):
    out = warp(phantom_sample, [_constant_grid((0.0, 0.0, 0.0))])
    for got, want in zip(out.channels, phantom_sample.channels):
        np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(out.labels.data, phantom_sample.labels.data)


def test_unit_shift_field():
    shape = (10, 10, 10)
    s = _sample(_rand_volume(8, shape), labels=_rand_labels(18, shape))
    # output(x) = input(x + 1 along axis 0)
    out = warp(s, [_constant_grid((1.0, 0.0, 0.0))])
    np.testing.assert_allclose(out.channels[0].data[:-1], s.channels[0].data[1:], atol=1e-6)
    np.testing.assert_array_equal(out.labels.data[:-1], s.labels.data[1:])
    assert not out.labels.data[-1].any()  # read beyond the grid: pad label 0


def test_half_shift_on_linear_ramp():
    shape = (9, 5, 5)
    ramp = np.broadcast_to(np.arange(9, dtype=np.float64)[:, None, None], shape).copy()
    out = warp(_sample(Volume(ramp)), [_constant_grid((0.5, 0.0, 0.0))]).channels[0].data
    want = ramp + 0.5
    np.testing.assert_allclose(out[:-1], want[:-1], atol=1e-6)


def test_warp_non_finite_control_grid_rejected():
    s = _sample(_rand_volume(9, (6, 6, 6)))
    bad = _constant_grid((0.0, 0.0, 0.0))
    bad[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite control displacement"):
        warp(s, [bad])
