import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _affine_coords, _warp_coords, oracle_affine
from scipy import stats as scipy_stats
from scipy.ndimage import map_coordinates

import voxaug as vx
from voxaug import augment, interp, volume
from voxaug.augment import (
    KINDS,
    AugmentPipeline,
    AugmentSpec,
    apply_pipeline,
    apply_spec,
    apply_steps,
    brightness_by,
    draw_brightness_params,
    draw_elastic_grid,
    draw_flip_params,
    draw_pipeline,
    draw_rotation_params,
    draw_scale_params,
    elastic_by,
    flip_axis,
    plan_steps,
    rotate_by,
    scale_by,
)
from voxaug.interp import AffineTransform, bspline_upsample
from voxaug.rng import RandomStream
from voxaug.volume import (
    LabelMap,
    Sample,
    Volume,
    extract_center_patch,
    raw_to_canonical_labels,
)


def _assert_samples_equal(a, b):
    assert len(a.channels) == len(b.channels)
    for ca, cb in zip(a.channels, b.channels):
        np.testing.assert_array_equal(ca.data, cb.data)
    if a.labels is None:
        assert b.labels is None
    else:
        np.testing.assert_array_equal(a.labels.data, b.labels.data)


# --- AugmentSpec ----------------------------------------------------------

def test_spec_parameter_menus():
    AugmentSpec("rotation", max_deg=30)
    AugmentSpec("scale", max_frac=0.20)
    AugmentSpec("elastic", sigma=5.0, grid_size=4)
    for bad in (45, 0, 200):
        with pytest.raises(ValueError, match="rotation max_deg must be one of"):
            AugmentSpec("rotation", max_deg=bad)
    with pytest.raises(ValueError):
        AugmentSpec("scale", max_frac=0.3)
    for bad in (3.0, -1.0):
        with pytest.raises(ValueError, match="elastic sigma must be one of"):
            AugmentSpec("elastic", sigma=bad)
    with pytest.raises(ValueError):
        AugmentSpec("elastic", sigma=2.0, grid_size=1)
    with pytest.raises(ValueError):
        AugmentSpec("flip", probability=1.5)
    with pytest.raises(ValueError, match="probability must be a number"):
        AugmentSpec("flip", probability=True)
    with pytest.raises(ValueError, match="rotation does not read sigma, got 5.0"):
        AugmentSpec.from_dict({"kind": "rotation", "max_deg": 30, "sigma": 5.0})
    with pytest.raises(ValueError):
        AugmentSpec("blur")


def test_spec_grid_size_must_be_a_whole_number():
    assert AugmentSpec("elastic", sigma=2.0, grid_size=5.0).grid_size == 5
    for bad in (4.7, True, "4"):
        with pytest.raises(ValueError, match="elastic grid_size must be a whole number"):
            AugmentSpec("elastic", sigma=2.0, grid_size=bad)


def test_equal_specs_record_equal_provenance(tiny_sample):
    """An int probability is stored as the float it equals, so equal specs
    write the same provenance JSON."""
    as_int = AugmentSpec("brightness", probability=1)
    as_float = AugmentSpec("brightness", probability=1.0)
    assert as_int == as_float
    assert type(as_int.probability) is float
    assert as_int.to_dict() == as_float.to_dict()
    texts = [
        apply_pipeline(tiny_sample, AugmentPipeline((spec,)), RandomStream(0))[1].to_json()
        for spec in (as_int, as_float)
    ]
    assert texts[0] == texts[1]
    assert '"probability": 1.0' in texts[0]


def test_spec_dict_roundtrip():
    spec = AugmentSpec("elastic", probability=0.25, sigma=8.0, grid_size=5)
    assert AugmentSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        AugmentSpec.from_dict({"kind": "flip", "bogus": 1})


# --- flip -----------------------------------------------------------------

def test_flip_axis_involution(small_sample):
    twice = flip_axis(flip_axis(small_sample, 1), 1)
    _assert_samples_equal(twice, small_sample)


def test_flip_preserves_label_histogram(small_sample):
    flipped = flip_axis(small_sample, 2)
    want = np.bincount(small_sample.labels.data.ravel(), minlength=5)
    got = np.bincount(flipped.labels.data.ravel(), minlength=5)
    np.testing.assert_array_equal(got, want)


def test_flip_axis_frequencies():
    # each axis chosen with frequency 1/3 +- 0.03 over 3000 draws
    root = RandomStream(0, ("fliptest",))
    axes = [draw_flip_params(root.substream(i))["axis"] for i in range(3000)]
    freqs = np.bincount(axes, minlength=3) / 3000.0
    np.testing.assert_allclose(freqs, 1.0 / 3.0, atol=0.03)


def test_flip_bad_axis():
    with pytest.raises(ValueError):
        flip_axis(vx.make_phantom(0, (16, 16, 16)), 3)


@pytest.mark.parametrize("axis", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("after", [[], [("scale", {"factors": (1.1, 1.0, 1.0)})]],
                         ids=["alone", "before-scale"])
def test_flip_axis_is_an_integer_on_every_path(small_sample, axis, after):
    """A flip's axis is the integer 0, 1 or 2, whether the flip is a lone
    index reversal or one step of a resampling: 1.0 and True are refused
    with the same error on both paths."""
    with pytest.raises(ValueError, match="flip axis must be 0, 1 or 2"):
        apply_steps(small_sample, [("flip", {"axis": axis}), *after])


def test_flip_random_wrapper_matches_core(small_sample):
    out, params = apply_spec(small_sample, AugmentSpec("flip"), RandomStream(5, ("f",)))
    axis = draw_flip_params(RandomStream(5, ("f",)))["axis"]
    assert params == {"axis": axis}
    _assert_samples_equal(out, flip_axis(small_sample, axis))


# --- rotation ---------------------------------------------------------------

def test_rotate_zero_angles_identity(small_sample):
    _assert_samples_equal(rotate_by(small_sample, (0.0, 0.0, 0.0)), small_sample)


def test_rotate_90_matches_permutation_oracle(small_sample):
    out = rotate_by(small_sample, (0.0, 0.0, 90.0))
    for ch, ref in zip(out.channels, small_sample.channels):
        np.testing.assert_array_equal(ch.data, np.rot90(ref.data, 1, axes=(0, 1)))
    np.testing.assert_array_equal(out.labels.data, np.rot90(small_sample.labels.data, 1, axes=(0, 1)))


def test_rotate_preserves_label_alphabet(small_sample):
    out = apply_spec(small_sample, AugmentSpec("rotation", max_deg=60), RandomStream(3, ("r",)))[0]
    assert set(np.unique(out.labels.data)) <= {0, 1, 2, 4}


def test_rotation_angles_within_range_with_random_signs():
    draws = [
        draw_rotation_params(RandomStream(0, ("a",)).substream(i), 30.0)["angles_deg"]
        for i in range(500)
    ]
    flat = np.array(draws).ravel()
    assert np.all(np.abs(flat) <= 30.0)
    assert (flat > 0).any() and (flat < 0).any()
    # signs balanced: fraction positive within 0.5 +- 0.05
    assert abs((flat > 0).mean() - 0.5) < 0.05


# --- scale ------------------------------------------------------------------

def test_scale_unit_factors_identity(small_sample):
    _assert_samples_equal(scale_by(small_sample, (1.0, 1.0, 1.0)), small_sample)


def test_scale_up_grows_foreground(small_sample):
    out = scale_by(small_sample, (1.2, 1.2, 1.2))
    assert (out.labels.data > 0).sum() > (small_sample.labels.data > 0).sum()


def test_scale_factor_distribution_ks():
    # empirical factors over 10000 draws ~ U[0.8, 1.2]: KS statistic < 0.02
    root = RandomStream(1, ("scaletest",))
    factors = np.concatenate(
        [draw_scale_params(root.substream(i), 0.2)["factors"] for i in range(3334)]
    )[:10000]
    ks = scipy_stats.kstest(factors, scipy_stats.uniform(loc=0.8, scale=0.4).cdf).statistic
    assert ks < 0.02


# --- brightness ---------------------------------------------------------------

def test_brightness_identity_pair(small_sample):
    _assert_samples_equal(brightness_by(small_sample, 1.0, 1.0), small_sample)


def test_brightness_scalar_value():
    v = Volume(np.full((1, 1, 1), 0.5, dtype=np.float32))
    s = Sample(channels=(v,), subject_id="b")
    out = brightness_by(s, 1.2, 0.8)
    # 1.2 * 0.5**0.8, evaluated independently with the math module
    import math

    want = 1.2 * math.pow(0.5, 0.8)
    assert abs(want - 0.689219012998221) < 1e-15
    assert out.channels[0].data[0, 0, 0] == pytest.approx(want, abs=1e-7)


def test_brightness_zero_stays_zero(small_sample):
    zeros = np.zeros((4, 4, 4), dtype=np.float32)
    s = Sample(channels=(Volume(zeros),), subject_id="z")
    out = brightness_by(s, 1.17, 0.93)
    assert not out.channels[0].data.any()


def test_brightness_rejects_negative_intensities():
    v = Volume(np.array([-0.1, 0.5, 1.0], dtype=np.float32).reshape(1, 1, 3))
    s = Sample(channels=(v,), subject_id="n")
    with pytest.raises(ValueError, match="nonnegative intensities"):
        brightness_by(s, 1.0, 1.0)


def test_brightness_leaves_labels_untouched(small_sample):
    out = brightness_by(small_sample, 1.1, 0.9)
    np.testing.assert_array_equal(out.labels.data, small_sample.labels.data)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    st.floats(0.8, 1.2),
    st.floats(0.8, 1.2),
)
@settings(max_examples=40)
def test_brightness_monotone(values, gain, gamma):
    arr = np.sort(np.array(values, dtype=np.float32)).reshape(1, 1, -1)
    s = Sample(channels=(Volume(arr),), subject_id="m")
    out = brightness_by(s, gain, gamma).channels[0].data.ravel()
    assert np.all(np.diff(out) >= 0)


# --- elastic -------------------------------------------------------------------

def test_elastic_sigma_zero_identity(small_sample):
    out = elastic_by(small_sample, np.zeros((4, 4, 4, 3)))
    _assert_samples_equal(out, small_sample)


def test_elastic_control_grid_shape_and_std():
    # pooled control displacements over ~10000 draws: sample std within 3%
    root = RandomStream(2, ("elastictest",))
    grids = [draw_elastic_grid(root.substream(i), 5.0, 4) for i in range(53)]
    assert grids[0].shape == (4, 4, 4, 3)
    pooled = np.concatenate([g.ravel() for g in grids])
    assert pooled.size >= 10000
    assert abs(pooled.std(ddof=1) - 5.0) / 5.0 < 0.03


def test_elastic_sigma2_mild_deformation():
    """Label-count stability under sigma=2, grid 4^3, 20 seeds.

    The bound is observation-derived for this phantom and documented here:
    the control grid spans the 64^3 patch, so per-axis strain is roughly
    sigma / (extent/(G-1)) ~ 10%, giving median worst-label changes ~16%
    (observed) with a long tail for the smallest (enhancing) region, whose
    radius is only ~4 voxels. Severity increases monotonically with sigma.
    """
    s = vx.make_phantom(0, (64, 64, 64))
    one = Sample(channels=(s.channels[0],), labels=s.labels, subject_id="el")
    base = {lab: int((s.labels.data == lab).sum()) for lab in (1, 2, 4)}
    per_seed = []
    for seed in range(20):
        out = apply_spec(one, AugmentSpec("elastic", sigma=2.0), RandomStream(seed, ("elastic-bound",)))[0]
        per_seed.append(
            max(
                abs(int((out.labels.data == lab).sum()) - n0) / n0
                for lab, n0 in base.items()
            )
        )
    assert float(np.median(per_seed)) < 0.25
    assert max(per_seed) < 0.70


def test_elastic_severity_monotone_in_sigma():
    s = vx.make_phantom(0, (64, 64, 64))
    one = Sample(channels=(s.channels[0],), labels=s.labels, subject_id="el")
    wt0 = int((s.labels.data > 0).sum())
    mean_change = {}
    for sigma in (2.0, 5.0, 10.0):
        spec = AugmentSpec("elastic", sigma=sigma)
        deltas = [
            abs(int((apply_spec(one, spec, RandomStream(seed, ("sigmono",)))[0].labels.data > 0).sum()) - wt0)
            / wt0
            for seed in range(8)
        ]
        mean_change[sigma] = float(np.mean(deltas))
    assert mean_change[2.0] < mean_change[5.0] < mean_change[10.0]


def test_elastic_alphabet_preserved(small_sample):
    out = apply_spec(small_sample, AugmentSpec("elastic", sigma=5.0), RandomStream(7, ("e2",)))[0]
    assert set(np.unique(out.labels.data)) <= {0, 1, 2, 4}


# --- co-registration ------------------------------------------------------------

def test_channels_and_labels_stay_coregistered(small_sample):
    """One transform moves every constituent of a sample: each channel equals
    the trilinear oracle and the label map the nearest-neighbor oracle."""
    s = extract_center_patch(small_sample, (10, 10, 10))
    assert len(np.unique(s.labels.data)) > 2
    t = AffineTransform.rotation_xyz((18.0, -9.0, 33.0))
    out = rotate_by(s, (18.0, -9.0, 33.0))
    for got, ref in zip(out.channels, s.channels):
        want = oracle_affine(ref.data.astype(np.float64), t.matrix, order=1)
        np.testing.assert_allclose(got.data, want, atol=1e-6)
    want = oracle_affine(s.labels.data.astype(np.float64), t.matrix, order=0)
    np.testing.assert_array_equal(out.labels.data, want.astype(np.uint8))


def _per_constituent_reference(sample, coords):
    """Reference resampling: each constituent read separately from a float64
    copy, then cast to its stored dtype."""
    def read(data, order):
        return map_coordinates(
            data.astype(np.float64), coords, order=order, mode="grid-constant", cval=0.0
        )

    channels = tuple(
        replace(ch, data=read(ch.data, 1).astype(np.float32)) for ch in sample.channels
    )
    labels = replace(sample.labels, data=read(sample.labels.data, 0).astype(np.uint8))
    return Sample(channels=channels, labels=labels, subject_id=sample.subject_id)


def _assert_samples_bytes_equal(a, b):
    for ca, cb in zip(a.channels, b.channels, strict=True):
        assert ca.data.dtype == cb.data.dtype == np.float32
        assert ca.data.tobytes() == cb.data.tobytes()
    assert a.labels.data.dtype == b.labels.data.dtype == np.uint8
    assert a.labels.data.tobytes() == b.labels.data.tobytes()


def test_geometric_ops_byte_equal_to_per_constituent_float64_reference():
    s = vx.make_phantom(3, (24, 22, 20))
    for angles in ((18.0, -9.0, 33.0), (-57.5, 4.25, 0.0)):
        t = AffineTransform.rotation_xyz(angles)
        want = _per_constituent_reference(s, _affine_coords(s.shape, t.matrix))
        _assert_samples_bytes_equal(rotate_by(s, angles), want)
    for factors in ((1.17, 0.83, 1.05), (0.9, 0.9, 0.9)):
        t = AffineTransform.scaling(factors)
        want = _per_constituent_reference(s, _affine_coords(s.shape, t.matrix))
        _assert_samples_bytes_equal(scale_by(s, factors), want)
    for seed in (0, 1):
        grid = draw_elastic_grid(RandomStream(seed, ("ref",)), 5.0, 4)
        want = _per_constituent_reference(s, _warp_coords(s.shape, bspline_upsample(grid, s.shape)))
        _assert_samples_bytes_equal(elastic_by(s, grid), want)


def test_geometric_ops_build_coordinates_once(small_sample, monkeypatch):
    """Coordinates are built once per op whatever the channel count, and every
    channel reaches map_coordinates as its own float32 array, not a copy, at
    every z-slab of the positions."""
    calls = {"coords": 0, "sampled": []}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls["coords"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording(data, coords, **kwargs):
        calls["sampled"].append(data)
        return map_coordinates(data, coords, **kwargs)

    monkeypatch.setattr(interp, "warp", counting(interp.warp))
    monkeypatch.setattr(interp, "map_coordinates", recording)
    grid = draw_elastic_grid(RandomStream(0, ("once",)), 2.0, 4)
    for op in (
        lambda s: rotate_by(s, (5.0, 10.0, -20.0)),
        lambda s: scale_by(s, (1.1, 0.9, 1.0)),
        lambda s: elastic_by(s, grid),
    ):
        calls["coords"], calls["sampled"] = 0, []
        op(small_sample)
        assert calls["coords"] == 1
        inputs = [ch.data for ch in small_sample.channels] + [small_sample.labels.data]
        slabs = -(-small_sample.shape[2] // volume.SLAB_PLANES)
        assert slabs > 1
        assert len(calls["sampled"]) == len(inputs) * slabs
        for got, want in zip(calls["sampled"], inputs * slabs):
            assert got is want


# --- apply_pipeline ---------------------------------------------------------------

def test_apply_spec_is_the_public_draw_then_the_core(small_sample):
    """For each kind, ``apply_spec`` gives the bytes of that kind's public
    ``draw_*`` on an equal stream, its draw passed to the kind's core."""
    draw_and_core = {
        "flip": (lambda rng, spec: draw_flip_params(rng), flip_axis),
        "rotation": (lambda rng, spec: draw_rotation_params(rng, spec.max_deg), rotate_by),
        "scale": (lambda rng, spec: draw_scale_params(rng, spec.max_frac), scale_by),
        "brightness": (lambda rng, spec: draw_brightness_params(rng), brightness_by),
        "elastic": (
            lambda rng, spec: {"control_grid": draw_elastic_grid(rng, spec.sigma, spec.grid_size)},
            elastic_by,
        ),
    }
    specs = _standard_pipeline().specs
    assert sorted(spec.kind for spec in specs) == sorted(draw_and_core) == sorted(KINDS)
    for spec in specs:
        got, _ = apply_spec(small_sample, spec, RandomStream(4, (spec.kind,)))
        draw, core = draw_and_core[spec.kind]
        want = core(small_sample, **draw(RandomStream(4, (spec.kind,)), spec))
        assert got is not small_sample
        _assert_samples_bytes_equal(got, want)


def _standard_pipeline():
    return AugmentPipeline(
        (
            AugmentSpec("flip"),
            AugmentSpec("rotation", max_deg=15),
            AugmentSpec("scale", max_frac=0.10),
            AugmentSpec("brightness"),
            AugmentSpec("elastic", sigma=2.0, grid_size=4),
        )
    )


def test_empty_pipeline_identity(small_sample):
    out, prov = apply_pipeline(small_sample, AugmentPipeline(()), RandomStream(0))
    assert out is small_sample
    assert prov.records == []


def test_pipeline_deterministic(small_sample):
    pipe = _standard_pipeline()
    out1, prov1 = apply_pipeline(small_sample, pipe, RandomStream(42, ("augment", "s")))
    out2, prov2 = apply_pipeline(small_sample, pipe, RandomStream(42, ("augment", "s")))
    _assert_samples_equal(out1, out2)
    assert prov1.to_json() == prov2.to_json()


def test_pipeline_provenance_replay(small_sample):
    """Recorded parameters are sufficient to replay the output exactly
    (geometric + intensity ops; the elastic record is covered by its hash)."""
    pipe = AugmentPipeline(
        (
            AugmentSpec("flip", probability=1.0),
            AugmentSpec("rotation", probability=1.0, max_deg=30),
            AugmentSpec("scale", probability=1.0, max_frac=0.20),
            AugmentSpec("brightness", probability=1.0),
        )
    )
    out, prov = apply_pipeline(small_sample, pipe, RandomStream(9, ("augment", "rp")))
    steps = []
    for rec in prov.records:
        assert rec.fired
        steps.append((rec.kind, rec.params))
    replay = apply_steps(small_sample, steps)
    _assert_samples_equal(out, replay)


def test_pipeline_elastic_hash_recorded(small_sample):
    pipe = AugmentPipeline((AugmentSpec("elastic", probability=1.0, sigma=2.0, grid_size=4),))
    _, prov = apply_pipeline(small_sample, pipe, RandomStream(3, ("augment", "eh")))
    rec = prov.records[0]
    assert rec.fired and rec.kind == "elastic"
    assert rec.params["sigma"] == 2.0 and rec.params["grid_size"] == 4
    assert len(rec.params["control_grid_sha256"]) == 64
    _, prov2 = apply_pipeline(small_sample, pipe, RandomStream(3, ("augment", "eh")))
    assert prov2.records[0].params["control_grid_sha256"] == rec.params["control_grid_sha256"]


def test_pipeline_zero_probability_never_fires(small_sample):
    pipe = AugmentPipeline((AugmentSpec("flip", probability=0.0),))
    out, prov = apply_pipeline(small_sample, pipe, RandomStream(0))
    assert out is small_sample
    assert not prov.records[0].fired


def test_pipeline_probability_one_always_fires(small_sample):
    pipe = AugmentPipeline((AugmentSpec("brightness", probability=1.0),))
    for seed in range(5):
        _, prov = apply_pipeline(small_sample, pipe, RandomStream(seed))
        assert prov.records[0].fired


def test_pipeline_untouched_fraction_five_specs(tiny_sample):
    # k=5 at p=0.5: untouched fraction 3.125% +- 0.5 percentage points
    pipe = _standard_pipeline()
    untouched = 0
    trials = 10000
    for i in range(trials):
        out, _ = apply_pipeline(tiny_sample, pipe, RandomStream(99, ("comp", 5, i)))
        untouched += out is tiny_sample
    assert abs(untouched / trials - 0.03125) < 0.005


# --- fused geometric resampling -------------------------------------------------

def _only(pipeline, kinds):
    """The pipeline with the specs of ``kinds`` at probability 1, the rest at 0."""
    return AugmentPipeline(
        tuple(replace(spec, probability=float(spec.kind in kinds)) for spec in pipeline.specs)
    )


def test_single_geometric_step_is_its_core_byte_for_byte(small_sample):
    pipe = _standard_pipeline()
    for i, spec in enumerate(pipe.specs):
        if spec.kind == "brightness":
            continue
        rng = RandomStream(4, ("augment", "one"))
        out, prov = apply_pipeline(small_sample, _only(pipe, {spec.kind}), rng)
        assert [r.fired for r in prov.records] == [s.kind == spec.kind for s in pipe.specs]
        sub = rng.substream(i, spec.kind)
        sub.random()
        want, params = apply_spec(small_sample, spec, sub)
        assert prov.records[i].params == params
        _assert_samples_bytes_equal(out, want)


def test_identity_chain_returns_the_input_byte_for_byte(small_sample):
    steps = [
        ("rotation", {"angles_deg": (0.0, 0.0, 0.0)}),
        ("scale", {"factors": (1.0, 1.0, 1.0)}),
        ("elastic", {"control_grid": np.zeros((4, 4, 4, 3))}),
    ]
    _assert_samples_bytes_equal(apply_steps(small_sample, steps), small_sample)


def test_quadrant_rotation_then_flip_is_exact(small_sample):
    for axis in (0, 1, 2):
        steps = [("rotation", {"angles_deg": (0.0, 0.0, 90.0)}), ("flip", {"axis": axis})]
        out = apply_steps(small_sample, steps)

        def want(a):
            return np.flip(np.rot90(a, 1, axes=(0, 1)), axis)

        for got, ref in zip(out.channels, small_sample.channels, strict=True):
            np.testing.assert_array_equal(got.data, want(ref.data))
        np.testing.assert_array_equal(out.labels.data, want(small_sample.labels.data))


def test_elastic_before_affine_reads_its_field_at_the_moved_positions(small_sample):
    """A whole-voxel shear and shift, then a quarter turn: both steps are
    exact on their own, so the fused chain must equal the sequential one."""
    ctrl = np.linspace(0.0, small_sample.shape[0] - 1.0, 4)
    grid = np.zeros((4, 4, 4, 3))
    grid[..., 1] = -1.0
    grid[..., 2] = (ctrl - 15.0)[:, None, None]  # z moves by x - 15
    rotation = {"angles_deg": (0.0, 0.0, 90.0)}
    out = apply_steps(small_sample, [("elastic", {"control_grid": grid}), ("rotation", rotation)])
    want = rotate_by(elastic_by(small_sample, grid), **rotation)
    for got, ref in zip(out.channels, want.channels, strict=True):
        np.testing.assert_allclose(got.data, ref.data, atol=1e-6)
    np.testing.assert_array_equal(out.labels.data, want.labels.data)


def test_pipeline_interpolates_once(small_sample, monkeypatch):
    """All five ops firing sample each voxel of each constituent once, slab
    by slab, and upsample one field; flip + brightness resample nothing."""
    calls = {"map_coordinates": 0, "bspline_upsample": 0}
    sampled = {}  # id of an input array -> output voxels read from it
    map_coordinates, bspline = interp.map_coordinates, interp._spline_adder

    def sampling(data, coords, **kwargs):
        calls["map_coordinates"] += 1
        sampled[id(data)] = sampled.get(id(data), 0) + coords[0].size
        return map_coordinates(data, coords, **kwargs)

    def upsampling(*args, **kwargs):
        calls["bspline_upsample"] += 1
        return bspline(*args, **kwargs)

    monkeypatch.setattr(interp, "map_coordinates", sampling)
    monkeypatch.setattr(interp, "_spline_adder", upsampling)
    pipe = _standard_pipeline()
    _, prov = apply_pipeline(small_sample, _only(pipe, KINDS), RandomStream(0, ("once",)))
    assert all(r.fired for r in prov.records)
    assert len(small_sample.channels) == 4
    inputs = [ch.data for ch in small_sample.channels] + [small_sample.labels.data]
    assert sampled == {id(a): a.size for a in inputs}
    assert calls["bspline_upsample"] == 1

    calls.update(map_coordinates=0, bspline_upsample=0)
    out, prov = apply_pipeline(
        small_sample, _only(pipe, {"flip", "brightness"}), RandomStream(0, ("once",))
    )
    assert [r.fired for r in prov.records] == [True, False, False, True, False]
    assert calls == {"map_coordinates": 0, "bspline_upsample": 0}
    axis = prov.records[0].params["axis"]
    np.testing.assert_array_equal(out.labels.data, np.flip(small_sample.labels.data, axis))


def test_bad_output_label_is_named_in_the_maps_own_convention(monkeypatch):
    """A label value outside a canonical map's alphabet, met in a later
    z-slab of a resampling, is reported after the last slab in the canonical
    convention, at its index in the whole grid, as a whole-array check of
    the output would name it."""
    s = vx.make_phantom(1, (16, 18, 20), subject_id="canonical")
    s = replace(s, labels=raw_to_canonical_labels(s.labels))
    original, label_slabs = interp.map_coordinates, []
    planes = volume.SLAB_PLANES
    assert 9 >= planes  # the bad voxel's plane is past the first slab

    def seven_at_plane_nine(data, coords, **kwargs):
        out = original(data, coords, **kwargs)
        if out.dtype == np.uint8:
            z = len(label_slabs) * planes
            label_slabs.append(out.shape)
            if z <= 9 < z + out.shape[2]:
                out[3, 5, 9 - z] = 7
        return out

    monkeypatch.setattr(interp, "map_coordinates", seven_at_plane_nine)
    want = "label value 7 at voxel (3, 5, 9) not in canonical alphabet (0, 1, 2, 3)"
    with pytest.raises(ValueError, match=re.escape(want)):
        rotate_by(s, (5.0, -8.0, 12.0))
    assert label_slabs == [(16, 18, min(planes, 20 - z)) for z in range(0, 20, planes)]


def test_apply_pipeline_holds_its_outputs_and_a_few_slabs():
    """All five ops on a 96^3 phantom peak (tracemalloc) within the outputs
    (four float32 channels and a uint8 label map) plus eight slabs' worth
    of sampling positions (``volume.SLAB_PLANES`` z-planes of 96^2; at 4
    planes 0.88 MB each, a bound of about 21.1 MiB). They peak at about the
    outputs + 5.04 slabs. Building whole positions (21 MB) took about 38.1
    MB."""
    pipe = _only(_standard_pipeline(), KINDS)
    apply_pipeline(vx.make_phantom(0, (16, 16, 16)), pipe, RandomStream(0, ("warm",)))
    s = vx.make_phantom(2, (96, 96, 96))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out, prov = apply_pipeline(s, pipe, RandomStream(3, ("bound",)))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(r.fired for r in prov.records)
    outputs = 4 * 96**3 * 4 + 96**3
    slab = 3 * 96 * 96 * volume.SLAB_PLANES * 8
    assert peak <= outputs + 8 * slab, f"peak outputs + {(peak - outputs) / slab:.2f} slabs"


def test_plan_steps_holds_the_xy_passed_grid_and_the_z_weights():
    """A plan of all five ops at 128^3, its elastic step last with a 4^3
    control grid, holds (tracemalloc) at most that step's x/y-passed grid
    (3 x 4 x 128^2 float64, 1.5 MiB), its z weights (4 x 128 float64) and
    0.1 MiB of small objects: about 1.6 MiB. A fitted z spline held 4.5 MiB
    of coefficients."""
    shape = (128, 128, 128)
    steps, _ = draw_pipeline(_only(_standard_pipeline(), KINDS), RandomStream(5, ("plan",)), "p")
    assert [kind for kind, _ in steps] == list(KINDS) and KINDS[-1] == "elastic"
    plan_steps((16, 16, 16), steps)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan = plan_steps(shape, steps)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert callable(plan)
    bound = 3 * 4 * 128 * 128 * 8 + 4 * 128 * 8 + 0.1 * 2**20
    assert held <= bound, f"plan holds {held / 2**20:.2f} MiB"


def test_fired_geometric_steps_resample_through_one_warp_call(small_sample, monkeypatch):
    """However many geometric steps fire, the sample is resampled by exactly
    one call to voxaug.interp.warp, looked up on the module; a flip alone is
    an index reversal and resamples nothing."""
    calls = []
    original = interp.warp

    def counting(sample, steps):
        calls.append(len(steps))
        return original(sample, steps)

    monkeypatch.setattr(interp, "warp", counting)
    pipe = _standard_pipeline()
    expected = {
        frozenset(KINDS): [4],
        frozenset({"rotation"}): [1],
        frozenset({"scale"}): [1],
        frozenset({"elastic"}): [1],
        frozenset({"flip"}): [],
        frozenset({"flip", "brightness"}): [],
    }
    for kinds, want in expected.items():
        calls.clear()
        _, prov = apply_pipeline(small_sample, _only(pipe, kinds), RandomStream(0, ("warp",)))
        assert {r.kind for r in prov.records if r.fired} == kinds
        assert calls == want, sorted(kinds)


def test_fused_pipeline_close_to_sequential_chain():
    """Spatial first, then intensity, in one interpolation, stays close to
    running every core in pipeline order.

    The sequential chain interpolates three times where the fused path
    interpolates once, so it blurs more. The bounds are observation-derived
    for full 64^3 phantoms: over 80 draws on phantoms 0-3, the channel mean
    |delta| was 2.5e-4 to 9.2e-4 (median about 4.8e-4) and 0.26% to 0.66% of
    label voxels differed (median about 0.4%).
    """
    s = vx.make_phantom(0, (64, 64, 64))
    pipe = _only(_standard_pipeline(), KINDS)
    for seed in range(4):
        rng = RandomStream(seed, ("augment", "fused"))
        fused, _ = apply_pipeline(s, pipe, rng)
        chain = s
        for i, spec in enumerate(pipe.specs):
            sub = rng.substream(i, spec.kind)
            sub.random()
            chain = apply_spec(chain, spec, sub)[0]
        delta = np.concatenate([
            np.abs(a.data.astype(np.float64) - b.data).ravel()
            for a, b in zip(fused.channels, chain.channels, strict=True)
        ])
        assert delta.mean() <= 1.5e-3
        assert (fused.labels.data != chain.labels.data).mean() <= 0.01
        assert set(np.unique(fused.labels.data)) == {0, 1, 2, 4}


# --- the per-array plan -----------------------------------------------------------

# sha256 over the 32 fire patterns below: each output's channel and label bytes
# and provenance JSON, as apply_pipeline gave them while it still held every
# array of the sample at once
ALL_PATTERNS_DIGEST = "da39163e646352cf520263aaf26134d2542fcf8a83f7d270d1090e92c341345a"


def test_plan_applied_array_by_array_equals_apply_pipeline(small_sample, monkeypatch):
    """For every set of the five kinds that fires, drawing once and then
    applying the plan to one array at a time, as ``voxaug augment`` does,
    gives apply_pipeline's bytes and provenance; every plan runs through the
    slab loop, each array's slabs joined as they come. The
    positions are built at most once per subject, and not at all without a
    step that resamples."""
    built = []
    warp = interp.warp
    monkeypatch.setattr(interp, "warp", lambda *a: built.append(1) or warp(*a))
    digest = hashlib.sha256()
    for pattern in range(32):
        kinds = {kind for bit, kind in enumerate(KINDS) if pattern >> bit & 1}
        pipe = _only(_standard_pipeline(), kinds)
        key = ("augment", small_sample.subject_id)
        want, want_prov = apply_pipeline(small_sample, pipe, RandomStream(6, key))

        built.clear()
        steps, prov = draw_pipeline(pipe, RandomStream(6, key), small_sample.subject_id)
        plan = plan_steps(small_sample.shape, steps)
        slabs = [[] for _ in range(len(small_sample.channels) + 1)]
        for n, z, out in plan([*small_sample.channels, small_sample.labels]):
            assert z == sum(slab.shape[-1] for slab in slabs[n])
            slabs[n].append(out)
        *channels, labels = [np.concatenate(pieces, axis=-1) for pieces in slabs]
        assert len(built) == (1 if kinds - {"flip", "brightness"} else 0), sorted(kinds)

        assert {r.kind for r in prov.records if r.fired} == kinds
        assert prov.to_json() == want_prov.to_json()
        for got, ref in zip(channels, want.channels, strict=True):
            assert got.tobytes() == ref.data.tobytes()
        assert labels.tobytes() == want.labels.data.tobytes()
        for array in channels + [labels]:
            digest.update(array.tobytes())
        digest.update(prov.to_json().encode())
    assert digest.hexdigest() == ALL_PATTERNS_DIGEST


def test_brightness_slabs_give_the_whole_array_bytes(monkeypatch):
    """A plan that does not resample maps its arrays in z-slabs of
    ``volume.SLAB_PLANES`` planes. For brightness alone and a lone flip on
    each axis, a one-plane slab, a ragged last slab and one slab deeper
    than the grid give the bytes of the whole-array expression and of
    ``np.flip``, through a ``plan_steps`` plan and through
    ``apply_steps``."""
    rng = np.random.default_rng(3)
    data = rng.random((7, 5, 9), dtype=np.float32)
    labels = LabelMap(rng.choice(np.array([0, 1, 2, 4], np.uint8), data.shape))
    s = Sample(channels=(Volume(data),), labels=labels, subject_id="slabs")
    brightness = ("brightness", {"gain": 1.17, "gamma": 0.93})
    cases = [([brightness], (1.17 * data.astype(np.float64) ** 0.93).astype(np.float32),
              labels.data)]
    cases += [([("flip", {"axis": axis})], np.flip(data, axis), np.flip(labels.data, axis))
              for axis in range(3)]
    for planes in (1, 2, 4, 100):
        monkeypatch.setattr(volume, "SLAB_PLANES", planes)
        for steps, channel, label_map in cases:
            plan = plan_steps(s.shape, steps)
            assert [z for _, z, _ in plan([s.labels])] == list(range(0, 9, planes))
            slabs = [[], []]
            for n, z, out in plan([s.channels[0], s.labels]):
                assert z == sum(slab.shape[-1] for slab in slabs[n])
                slabs[n].append(out)
            got = [np.concatenate(pieces, axis=-1) for pieces in slabs]
            out = apply_steps(s, steps)
            for array in (got[0], out.channels[0].data):
                assert array.tobytes() == channel.tobytes(), (steps, planes)
            for array in (got[1], out.labels.data):
                assert array.tobytes() == label_map.tobytes(), (steps, planes)
