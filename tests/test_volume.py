import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import oracle_make_phantom

from voxaug.volume import (
    CANONICAL_LABELS,
    RAW_LABELS,
    LabelMap,
    ProbabilityVolume,
    Sample,
    Volume,
    canonical_to_raw_labels,
    center_offsets,
    extract_center_patch,
    make_phantom,
    normalize_minmax,
    raw_to_canonical_labels,
)


def test_volume_casts_to_float32():
    v = Volume(np.ones((2, 3, 4), dtype=np.float64))
    assert v.data.dtype == np.float32
    assert v.spacing == (1.0, 1.0, 1.0)


def test_volume_rejects_non_3d():
    with pytest.raises(ValueError):
        Volume(np.zeros((4, 4)))


def test_volume_rejects_nonfinite_with_index():
    data = np.zeros((3, 3, 3))
    data[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite"):
        Volume(data)


def test_volume_rejects_bad_spacing():
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))


def test_labelmap_raw_alphabet():
    lm = LabelMap(np.array([[[0, 1], [2, 4]]], dtype=np.int64))
    assert lm.data.dtype == np.uint8
    assert lm.alphabet == (0, 1, 2, 4)


def test_labelmap_rejects_bad_value_with_location():
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[1, 0, 1] = 3
    with pytest.raises(ValueError, match=r"3"):
        LabelMap(data)


def test_labelmap_canonical_convention():
    lm = LabelMap(np.array([[[0, 3]]], dtype=np.uint8), convention="canonical")
    assert lm.convention == "canonical"
    with pytest.raises(ValueError):
        LabelMap(np.array([[[4]]], dtype=np.uint8), convention="canonical")


def _isin_message(data, convention):
    """The alphabet error as a plain ``np.isin`` scan words it."""
    alphabet = RAW_LABELS if convention == "raw" else CANONICAL_LABELS
    idx = np.argwhere(~np.isin(data, alphabet))[0]
    return (
        f"label value {int(data[tuple(idx)])} at voxel {tuple(int(v) for v in idx)} "
        f"not in {convention} alphabet {alphabet}"
    )


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "dtype, bad, convention",
    [
        (np.uint8, 3, "raw"),
        (np.uint8, 5, "raw"),
        (np.uint8, 255, "raw"),
        (np.int16, -1, "raw"),
        (np.int16, 300, "raw"),
        (np.int16, 260, "raw"),  # its uint8 cast, 4, is in the alphabet
        (np.float64, 0.5, "raw"),
        (np.uint8, 4, "canonical"),
    ],
)
def test_labelmap_error_names_the_first_bad_voxel_as_isin_does(dtype, bad, convention, order):
    data = np.zeros((4, 5, 6), dtype=dtype, order=order)
    data[2, 0, 5] = 2
    data[3, 1, 0] = bad
    data[1, 4, 2] = bad
    with pytest.raises(ValueError) as exc:
        LabelMap(data, convention=convention)
    assert str(exc.value) == _isin_message(data, convention)
    assert "at voxel (1, 4, 2)" in str(exc.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int64, bool])
def test_labelmap_accepts_valid_values_of_any_numeric_type(dtype):
    values = np.array([0, 1, 2, 4] * 6, dtype=np.int64) if dtype is not bool else np.arange(24) % 2
    data = np.asfortranarray(values.reshape(2, 3, 4).astype(dtype))
    lm = LabelMap(data)
    assert lm.data.dtype == np.uint8 and lm.data.flags.c_contiguous
    assert np.array_equal(lm.data, data)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float64])
def test_labelmap_accepts_an_empty_grid(dtype):
    lm = LabelMap(np.zeros((0, 3, 4), dtype=dtype))
    assert lm.shape == (0, 3, 4)
    assert lm.data.dtype == np.uint8 and lm.data.flags.c_contiguous


def test_sample_requires_matching_grids():
    a = Volume(np.zeros((4, 4, 4)))
    b = Volume(np.zeros((4, 4, 5)))
    with pytest.raises(ValueError):
        Sample(channels=(a, b))
    c = Volume(np.zeros((4, 4, 4)), spacing=(2.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Sample(channels=(a, c))
    with pytest.raises(ValueError):
        Sample(channels=())


def test_sample_map_keeps_missing_labels_as_none():
    sample = Sample(channels=(Volume(np.ones((2, 3, 4))),), subject_id="s")
    seen = []
    out = sample.map(lambda a: a * 2, lambda a: seen.append(a) or a)
    assert out.labels is None
    assert seen == []
    assert out.subject_id == "s"
    np.testing.assert_array_equal(out.channels[0].data, 2.0)


def test_sample_map_without_label_fn_keeps_the_label_object(phantom_sample):
    out = phantom_sample.map(lambda a: a * 0.5)
    assert out.labels is phantom_sample.labels
    assert [ch.name for ch in out.channels] == [ch.name for ch in phantom_sample.channels]
    assert out.subject_id == phantom_sample.subject_id


@pytest.mark.parametrize(
    "view",
    [
        lambda a: np.flip(a, 1),
        lambda a: a.transpose(2, 1, 0),
        np.asfortranarray,
        lambda a: np.asfortranarray(np.tile(a, (2, 1, 3))[1:, :, 5:]),
    ],
    ids=["flipped", "transposed", "fortran", "fortran-partial-tiles"],
)
def test_sample_map_yields_c_contiguous_float32_and_uint8(small_sample, view):
    out = small_sample.map(view, view)
    pairs = list(zip(out.channels, small_sample.channels)) + [(out.labels, small_sample.labels)]
    for got, src in pairs:
        assert got.data.flags.c_contiguous
        assert not np.shares_memory(got.data, src.data)
        np.testing.assert_array_equal(got.data, view(src.data))
    assert all(ch.data.dtype == np.float32 for ch in out.channels)
    assert out.labels.data.dtype == np.uint8


def test_probability_volume_checks():
    good = ProbabilityVolume(np.full((2, 2, 2, 2), 0.5))
    good.check_normalized()
    assert good.num_classes == 2
    bad = ProbabilityVolume(np.full((2, 2, 2, 2), 0.4))
    with pytest.raises(ValueError):
        bad.check_normalized(tol=1e-5)
    with pytest.raises(ValueError):
        ProbabilityVolume(np.zeros((2, 2, 2, 1)))


def test_normalize_minmax_example():
    v = Volume(np.array([2.0, 4.0, 6.0]).reshape(1, 1, 3))
    out = normalize_minmax(v)
    np.testing.assert_allclose(out.data, [[[0.0, 0.5, 1.0]]], atol=1e-7)


def test_normalize_minmax_unit_span_unchanged():
    v = Volume(np.array([0.0, 0.25, 1.0]).reshape(1, 1, 3))
    np.testing.assert_array_equal(normalize_minmax(v).data, v.data)


def test_normalize_minmax_constant_to_zeros():
    v = Volume(np.full((2, 2, 2), 5.0))
    assert not normalize_minmax(v).data.any()


def test_normalize_minmax_idempotent():
    v = Volume(np.random.default_rng(0).random((4, 4, 4)))
    once = normalize_minmax(v)
    twice = normalize_minmax(once)
    np.testing.assert_array_equal(once.data, twice.data)


def test_center_offsets_brats_shape():
    assert center_offsets((240, 240, 155), (128, 128, 128)) == (56, 56, 13)


def test_center_offsets_small_case():
    assert center_offsets((10, 10, 10), (4, 4, 4)) == (3, 3, 3)


def test_center_offsets_patch_too_large():
    with pytest.raises(ValueError, match="patch exceeds volume"):
        center_offsets((16, 16, 16), (17, 16, 16))


def test_extract_center_patch_matches_manual_slice(phantom_sample):
    patch = extract_center_patch(phantom_sample, (16, 20, 12))
    off = center_offsets(phantom_sample.shape, (16, 20, 12))
    sl = tuple(slice(o, o + p) for o, p in zip(off, (16, 20, 12)))
    np.testing.assert_array_equal(patch.channels[0].data, phantom_sample.channels[0].data[sl])
    np.testing.assert_array_equal(patch.labels.data, phantom_sample.labels.data[sl])
    assert patch.spacing == phantom_sample.spacing


def test_extract_center_patch_identity(phantom_sample):
    same = extract_center_patch(phantom_sample, phantom_sample.shape)
    np.testing.assert_array_equal(same.channels[0].data, phantom_sample.channels[0].data)


def test_label_relabeling_bijection():
    raw = LabelMap(np.array([0, 1, 2, 4], dtype=np.uint8).reshape(1, 1, 4))
    canon = raw_to_canonical_labels(raw)
    np.testing.assert_array_equal(canon.data.ravel(), [0, 1, 2, 3])
    back = canonical_to_raw_labels(canon)
    np.testing.assert_array_equal(back.data, raw.data)


def test_label_relabeling_convention_guard():
    raw = LabelMap(np.zeros((1, 1, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        canonical_to_raw_labels(raw)


@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        elements=st.sampled_from([0, 1, 2, 4]),
    )
)
def test_label_roundtrip_property(data):
    raw = LabelMap(data)
    back = canonical_to_raw_labels(raw_to_canonical_labels(raw))
    np.testing.assert_array_equal(back.data, raw.data)


def test_make_phantom_deterministic():
    a = make_phantom(0, (32, 32, 32))
    b = make_phantom(0, (32, 32, 32))
    for ca, cb in zip(a.channels, b.channels):
        np.testing.assert_array_equal(ca.data, cb.data)
    np.testing.assert_array_equal(a.labels.data, b.labels.data)


def _assert_same_sample(got, want):
    assert got.subject_id == want.subject_id
    assert [(c.name, c.spacing) for c in got.channels] == [
        (c.name, c.spacing) for c in want.channels
    ]
    for cg, cw in zip(got.channels, want.channels):
        assert cg.data.dtype == cw.data.dtype and cg.data.shape == cw.data.shape
        assert cg.data.tobytes() == cw.data.tobytes(), cg.name
    assert got.labels.spacing == want.labels.spacing
    assert got.labels.convention == want.labels.convention
    assert got.labels.data.tobytes() == want.labels.data.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 5, 12345, 2**40 + 3])
@pytest.mark.parametrize("shape", [(16, 16, 16), (17, 23, 29), (40, 40, 32), (64, 64, 64)])
def test_make_phantom_bytes_equal_the_full_grid_oracle(shape, seed):
    _assert_same_sample(make_phantom(seed, shape), oracle_make_phantom(seed, shape))


def test_make_phantom_bytes_equal_the_full_grid_oracle_at_brats_size():
    shape = (240, 240, 155)
    _assert_same_sample(make_phantom(5, shape, "s"), oracle_make_phantom(5, shape, "s"))


def test_make_phantom_peak_memory_per_voxel():
    shape = (96, 96, 64)
    tracemalloc.start()
    try:
        make_phantom(3, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # five float64 grids, the labels and the float32 channels: about 65 B/voxel
    assert peak / np.prod(shape) <= 80.0


def test_make_phantom_full_alphabet_and_range():
    s = make_phantom(0, (32, 32, 32))
    assert set(np.unique(s.labels.data)) == {0, 1, 2, 4}
    assert len(s.channels) == 4
    for ch in s.channels:
        assert 0.0 <= float(ch.data.min()) and float(ch.data.max()) <= 1.0


def test_make_phantom_seed_moves_tumor():
    centers = []
    for seed in range(10):
        s = make_phantom(seed, (32, 32, 32))
        centers.append(tuple(np.argwhere(s.labels.data == 4).mean(axis=0).round(2)))
    assert len(set(centers)) > 1


def test_make_phantom_too_small():
    with pytest.raises(ValueError):
        make_phantom(0, (8, 8, 8))


@given(st.integers(0, 10_000))
def test_phantom_labels_always_valid(seed):
    s = make_phantom(seed, (16, 16, 16))
    assert set(np.unique(s.labels.data)) <= {0, 1, 2, 4}
