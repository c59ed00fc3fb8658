import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _chain_coords, oracle_affine, oracle_spline_field
from scipy.ndimage import gaussian_filter, map_coordinates

import voxaug as vx
from voxaug import interp
from voxaug.interp import AffineTransform, bspline_upsample
from voxaug.volume import LabelMap, Sample, Volume


def warp(sample, steps):
    """``sample`` resampled through ``steps``: each of its arrays read by
    :func:`voxaug.interp.sample_channel` or :func:`~voxaug.interp.sample_labels`
    at every z-slab of :func:`voxaug.interp.warp`'s positions, the output
    slabs joined."""
    slabs = [positions for _, positions in interp.warp(sample.shape, steps)()]

    def by_slab(read):
        return lambda data: np.concatenate([read(data, positions) for positions in slabs], axis=-1)

    return sample.map(by_slab(interp.sample_channel), by_slab(interp.sample_labels))


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


@pytest.mark.parametrize("make", [
    lambda: AffineTransform.rotation_xyz((np.nan, 0.0, 0.0)),
    lambda: AffineTransform.rotation_xyz((np.inf, 0.0, 0.0)),
    lambda: AffineTransform.scaling((np.inf, 1.0, 1.0)),
    lambda: AffineTransform(np.full((3, 3), np.nan)),
], ids=["nan-angle", "inf-angle", "inf-factor", "nan-matrix"])
def test_non_finite_transform_rejected(make):
    """A non-finite matrix raises before its determinant is taken: a NaN
    determinant would pass the invertibility check, with numpy warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite transform"):
            make()


@pytest.mark.parametrize("make", [
    lambda: AffineTransform.scaling((True, 2.0, 1.0)),
    lambda: AffineTransform.scaling(np.array([1, 0, 1], bool)),
    lambda: AffineTransform.rotation_xyz((True, 0.0, 0.0)),
    lambda: AffineTransform.rotation_xyz((0.0, 0.0, np.True_)),
], ids=["bool-factor", "bool-array-factors", "bool-angle", "numpy-bool-angle"])
def test_bool_factor_or_angle_rejected(make):
    """A bool is not a scale factor or an angle, as it is not a flip axis:
    True would otherwise scale by 1 or rotate by 1 degree."""
    with pytest.raises(ValueError, match="must be numbers"):
        make()


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


# control-grid sizes, and dense shapes with a 2-point axis and ragged z-slabs
GRID_SIZES = list(range(2, 9))
FIELD_SHAPES = [(11, 13, 9), (2, 9, 5), (7, 2, 2), (24, 22, 20)]


@pytest.mark.parametrize("shape", FIELD_SHAPES, ids=str)
@pytest.mark.parametrize("grid", [(g, g, g) for g in GRID_SIZES] + [(2, 5, 3)], ids=str)
def test_field_equals_the_natural_cubic_spline_oracle(grid, shape):
    coarse = np.random.default_rng(sum(grid)).normal(0.0, 3.0, (*grid, 3))
    fld = bspline_upsample(coarse, shape)
    assert fld.shape == (*shape, 3)
    np.testing.assert_allclose(fld, oracle_spline_field(coarse, shape), rtol=0, atol=1e-13)


@pytest.mark.parametrize("g", GRID_SIZES)
def test_zero_control_grid_gives_exactly_zero_field_and_the_grid_positions(g):
    shape = (11, 13, 9)
    assert not bspline_upsample(np.zeros((g, g, g, 3)), shape).any()
    positions = np.concatenate(
        [slab for _, slab in interp.warp(shape, [np.zeros((g, g, g, 3))])()], axis=-1
    )
    assert positions.tobytes() == np.indices(shape, dtype=np.float64).tobytes()


@pytest.mark.parametrize("planes", [1, 3, 8], ids=["1-plane", "3-planes", "8-planes"])
@pytest.mark.parametrize("shape", FIELD_SHAPES, ids=str)
@pytest.mark.parametrize("g", [2, 4, 7])
def test_z_slabs_of_warp_join_to_the_whole_field(monkeypatch, g, shape, planes):
    """The z pass run slab by slab on the grid, as ``warp`` runs it, gives
    the grid plus the whole field bit for bit, ragged last slabs included:
    each component's full sum over the knots first, then the add."""
    monkeypatch.setattr(interp, "_SLAB_PLANES", planes)
    coarse = np.random.default_rng(20 + g).normal(0.0, 3.0, (g, g, g, 3))
    seen, joined = zip(*interp.warp(shape, [coarse])())
    assert list(seen) == list(range(0, shape[2], planes))
    want = np.indices(shape, dtype=np.float64) + np.moveaxis(bspline_upsample(coarse, shape), -1, 0)
    assert np.concatenate(joined, axis=-1).tobytes() == want.tobytes()


def test_field_too_short_an_axis_rejected():
    with pytest.raises(ValueError, match="dense field needs >= 2 points per axis"):
        bspline_upsample(np.zeros((4, 4, 4, 3)), (8, 1, 8))


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


@pytest.mark.parametrize("after", [(), ((12.0, -20.0, 7.0),)], ids=["alone", "then-a-rotation"])
def test_a_field_past_float64s_range_rejected(after):
    """Finite control values of +-1.7e308 sum past float64's range in the
    spline passes. Either way the field is used it raises: added plane by
    plane to the grid's positions (an elastic step alone), or built whole
    and read at moved positions (an elastic step, then a rotation)."""
    s = _sample(_rand_volume(9, (16, 16, 16)))
    huge = np.where(np.indices((4, 4, 4, 3)).sum(axis=0) % 2 == 0, 1.7e308, -1.7e308)
    steps = [huge, *map(AffineTransform.rotation_xyz, after)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite displacement"):
            warp(s, steps)


@pytest.mark.parametrize("make", [
    lambda grid: list(interp.warp((16, 16, 16), [grid])()),
    lambda grid: list(interp.warp((16, 16, 16), [grid, AffineTransform.scaling((1.1, 1.0, 1.0))])()),
    lambda grid: bspline_upsample(grid, (16, 16, 16)),
], ids=["warp-grid", "warp-dense-field", "bspline-upsample"])
def test_a_field_past_float64s_range_raises_without_a_warning(make):
    """A field that sums past float64's range raises ``non-finite
    displacement`` and nothing else, with warnings as errors, on the grid
    path of warp, its dense-field path and ``bspline_upsample``: a numpy
    overflow warning would reach the caller first."""
    huge = np.where(np.indices((4, 4, 4, 3)).sum(axis=0) % 2 == 0, 1.7e308, -1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite displacement"):
            make(huge)


# --- positions in z-slabs ---------------------------------------------------

def _grid(seed, sigma=3.0):
    return np.random.default_rng(seed).normal(0.0, sigma, (4, 4, 4, 3))


_ROT = AffineTransform.rotation_xyz((12.0, -20.0, 7.0))
_SCALE = AffineTransform.scaling((1.1, 0.9, 1.05))
# each chain reaches a different branch of the position builder
CHAINS = {
    "affine": [AffineTransform.flip(1), _ROT, _SCALE],
    "rotation": [_ROT],
    "elastic-on-the-grid": [_grid(0)],
    "elastic-after-an-affine": [_grid(1), _ROT],
    "two-elastics": [_grid(2), _grid(3)],
    "all-four": [AffineTransform.flip(0), _ROT, _SCALE, _grid(4)],
}


@pytest.mark.parametrize("planes", [1, 8, 7], ids=["1-plane", "8-planes", "ragged"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_slab_positions_equal_the_whole_grid_oracle(monkeypatch, chain, planes):
    """Positions built z-slab by z-slab are byte-equal to the whole-grid
    positions of the oracle, at any slab size (20 planes: slabs of 1, of 8
    with a ragged last one of 4, of 7 with one of 6); reading each array
    slab by slab gives the bytes of resampling at the oracle's positions."""
    monkeypatch.setattr(interp, "_SLAB_PLANES", planes)
    steps = CHAINS[chain]
    shape = (24, 22, 20)
    want = _chain_coords(shape, steps)
    got = np.full_like(want, np.nan)
    seen = []
    for z, slab in interp.warp(shape, steps)():
        assert slab.shape == (3, 24, 22, min(planes, 20 - z))
        got[..., z : z + slab.shape[-1]] = slab
        seen.append(z)
    assert seen == list(range(0, 20, planes))
    assert got.tobytes() == want.tobytes()

    s = vx.make_phantom(1, shape, subject_id="slabs")
    out = warp(s, steps)
    for ch, src in zip(out.channels, s.channels, strict=True):
        ref = map_coordinates(src.data, want, output=np.float32, order=1, mode="grid-constant")
        assert ch.data.tobytes() == ref.tobytes()
    ref = map_coordinates(s.labels.data, want, output=np.uint8, order=0, mode="grid-constant")
    assert out.labels.data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_a_slab_source_passed_over_again_gives_the_same_new_slabs(monkeypatch, chain):
    """``warp``'s slabs may be passed over again, as ``voxaug augment`` does
    once per array, and every pass gives the same bytes. The buffers a pass
    reuses from slab to slab are never handed out: every slab of every pass
    is an array of its own, which the caller may keep."""
    monkeypatch.setattr(interp, "_SLAB_PLANES", 7)
    source = interp.warp((24, 22, 20), CHAINS[chain])
    first, again = list(source()), list(source())
    assert [z for z, _ in first] == [z for z, _ in again] == [0, 7, 14]
    assert [s.tobytes() for _, s in again] == [s.tobytes() for _, s in first]
    slabs = [s for _, s in first + again]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(slabs) for b in slabs[:i])


def test_slabs_are_set_up_before_the_first_slab():
    """Every check of the steps runs when ``warp`` is called, before the
    first slab is built."""
    bad = _constant_grid((0.0, 0.0, 0.0))
    bad[0, 1, 2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite control displacement"):
        interp.warp((6, 6, 6), [_ROT, bad])
    with pytest.raises(ValueError, match="control grid must be"):
        interp.warp((6, 6, 6), [np.zeros((4, 4, 3))])


# --- map_coordinates: scipy's bytes without scipy ----------------------------
# The sampler must give scipy.ndimage.map_coordinates' bytes for the three
# forms voxaug reads, at any position: random ones, and those where floor,
# rounding, the grid's edges or the cast to an index decide the result.

FORMS = {
    "channel": (np.float32, dict(order=1, mode="grid-constant")),
    "labels": (np.uint8, dict(order=0, mode="grid-constant")),
    "field": (np.float64, dict(order=1, mode="nearest")),
}


def _adversarial_positions(rng, shape, per_axis):
    """(3, per_axis) positions, half uniform over and around the grid, half
    drawn from the edge cases of each axis and their 1-ulp neighbours."""
    axes = []
    for n in shape:
        edges = np.array([-1.0, -0.5, 0.0, -0.0, 0.5, 0.49999999999999994, 1.0, n - 1.5,
                          n - 1.0, n - 0.5, float(n), n + 0.5, -1.5, -2.0, 1e9, -1e9])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                                [5e-324, -5e-324, -1e-300]])
        axes.append(np.where(rng.random(per_axis) < 0.5, rng.choice(edges, per_axis),
                             rng.uniform(-3.0, n + 2.0, per_axis)))
    return np.array(axes)


def _form_data(rng, dtype, shape):
    """Labels from a few values; otherwise signed data with +0.0 and -0.0
    voxels."""
    if dtype == np.uint8:
        return rng.choice(np.array([0, 1, 2, 4, 255], np.uint8), size=shape)
    data = rng.normal(0.0, 3.0, shape).astype(dtype)
    data[rng.random(shape) < 0.2] = -0.0
    data[rng.random(shape) < 0.1] = 0.0
    return data


@pytest.mark.parametrize("chunk", [interp._CHUNK, 37], ids=["default-chunk", "37-point-chunks"])
@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("shape", [(1, 2, 3), (5, 1, 4), (7, 6, 5), (24, 22, 20)], ids=str)
def test_map_coordinates_gives_scipys_bytes(monkeypatch, shape, form, chunk):
    monkeypatch.setattr(interp, "_CHUNK", chunk)
    dtype, kwargs = FORMS[form]
    rng = np.random.default_rng([sum(shape), len(form), chunk])
    data = _form_data(rng, dtype, shape)
    coords = _adversarial_positions(rng, shape, 3 * 4 * 250).reshape(3, 3, 4, 250)
    got = interp.map_coordinates(data, coords, **kwargs)
    want = map_coordinates(data, coords, **kwargs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_elastic_between_affines_resamples_with_scipys_bytes(monkeypatch):
    """An elastic step between two affine steps reads its dense field at
    moved positions (``_by_field``): positions and every array read at them
    are the bytes they are with scipy's sampler in place of voxaug's."""
    steps = [_ROT, _grid(5, sigma=4.0), AffineTransform.scaling((0.8, 1.25, 1.0))]
    s = vx.make_phantom(4, (24, 22, 20), subject_id="between")
    # negative voxels, and -0.0 for every zero
    s = s.map(lambda d: np.where(d == 0, np.float32(-0.0), np.where(d > d.mean(), -d, d)),
              lambda d: d)

    def run():
        positions = np.concatenate([p for _, p in interp.warp(s.shape, steps)()], axis=-1)
        return positions, warp(s, steps)

    positions, out = run()
    monkeypatch.setattr(interp, "map_coordinates", map_coordinates)
    want_positions, want = run()
    assert positions.tobytes() == want_positions.tobytes()
    for got, ref in zip((*out.channels, out.labels), (*want.channels, want.labels), strict=True):
        assert got.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("data, kwargs", [
    (np.float32, dict(order=3, mode="grid-constant")),
    (np.float32, dict(order=1, mode="constant")),
    (np.float32, dict(order=1, mode="reflect")),
    (np.float32, dict(order=0, mode="grid-constant")),
    (np.float64, dict(order=1, mode="grid-constant")),
    (np.uint8, dict(order=1, mode="grid-constant")),
    (np.float64, dict(order=0, mode="nearest")),
    (np.float32, dict(order=1, mode="nearest")),
    (np.float32, dict(output=np.float32, order=1, mode="grid-constant")),
    (np.float64, dict(output=np.float32, order=1, mode="grid-constant")),
    (np.uint8, dict(output=np.float32, order=0, mode="grid-constant")),
    (np.float32, dict(order=1, mode="grid-constant", cval=0.0)),
    (np.float32, dict(order=1, mode="grid-constant", cval=1.0)),
], ids=str)
def test_map_coordinates_rejects_other_forms(data, kwargs):
    """A form outside voxaug's three reads raises ValueError. The output has
    the input's dtype and reads beyond the grid are 0, so ``output`` and
    ``cval`` are not arguments: passing either raises TypeError."""
    error = TypeError if {"output", "cval"} & kwargs.keys() else ValueError
    with pytest.raises(error, match="unsupported sampling" if error is ValueError else None):
        interp.map_coordinates(np.zeros((4, 4, 4), data), np.zeros((3, 2, 2, 2)), **kwargs)


def test_a_channel_read_holds_its_output_and_a_few_mib():
    """One channel read at a slab of 128^2 x 4 planes peaks (tracemalloc)
    within its float32 output (0.25 MiB) plus 4 MiB: about 2.5 MiB in all,
    in 16384-point chunks. Reading all 65536 points at once took about 9
    MiB."""
    rng = np.random.default_rng(7)
    data = rng.normal(0.0, 1.0, (128, 128, 128)).astype(np.float32)
    coords = np.indices((128, 128, 4), dtype=np.float64)
    coords += rng.uniform(-0.6, 0.6, coords.shape)
    kwargs = FORMS["channel"][1]
    interp.map_coordinates(data, coords, **kwargs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = interp.map_coordinates(data, coords, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
