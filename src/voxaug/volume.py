"""Core data model: volumes, label maps, samples, and synthetic phantoms.

Axis convention used everywhere in this package: arrays are indexed
``data[i, j, k]`` for the voxel at x=i, y=j, z=k. The first array axis is x.
On disk (NIfTI) x is the fastest-varying index; serialization handles the
reordering, in memory arrays are C-contiguous.

Image intensities are stored as float32 (the on-disk image datatype, so file
round-trips are bit-exact); label maps as uint8. All objects are treated as
immutable values: operations return new instances and never mutate arrays
in place.
"""

from dataclasses import InitVar, dataclass, replace

import numpy as np

from .rng import RandomStream

RAW_LABELS = (0, 1, 2, 4)
CANONICAL_LABELS = (0, 1, 2, 3)

Shape3 = tuple[int, int, int]
Spacing3 = tuple[float, float, float]

CHANNEL_NAMES = ("t1", "t1ce", "t2", "flair")


def _check_spacing(spacing) -> Spacing3:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or any(s <= 0 for s in spacing):
        raise ValueError(f"spacing must be 3 positive reals, got {spacing}")
    return spacing


def first_bad_voxel(data: np.ndarray, alphabet: tuple[int, ...] | None = None):
    """``(index, value)`` of the first voxel of 3-D ``data`` that is not finite
    or, given an ``alphabet``, not in it; None when there is none.

    "First" is ``np.argwhere`` order on the x-first array, whatever its memory
    layout. A NaN or infinity reaches the min or the max, so clean float data
    costs two reductions and no temporary array.
    """
    if not data.size:
        return None
    if alphabet is None:
        if np.isfinite(data.min()) and np.isfinite(data.max()):
            return None
        bad = ~np.isfinite(data)
    else:
        if _integers_in_alphabet(data, alphabet):
            return None
        bad = ~np.isin(data, alphabet)
        if not bad.any():
            return None
    index = tuple(int(v) for v in np.argwhere(bad)[0])
    return index, data[index]


def earlier_bad_voxel(first, slab: np.ndarray, z: int, alphabet: tuple[int, ...] | None = None):
    """Of ``first``, an ``(index, value)`` pair or None, and the first bad
    voxel of ``slab`` (see :func:`first_bad_voxel`), which holds the
    z-planes of a grid from plane ``z`` on, the one earlier in (x, y, z)
    order, indexed in that grid; None when neither is."""
    bad = first_bad_voxel(slab, alphabet)
    if bad is None:
        return first
    (i, j, k), value = bad
    if first is None or (i, j, k + z) < first[0]:
        return (i, j, k + z), value
    return first


def bad_voxel_error(index, value, alphabet=None, convention="raw") -> ValueError:
    """The error for a voxel that :func:`first_bad_voxel` found."""
    if alphabet is None:
        return ValueError(f"non-finite voxel at index {index}")
    return ValueError(
        f"label value {int(value)} at voxel {index} not in {convention} alphabet {alphabet}"
    )


def check_grids(channels, labels=None) -> None:
    """Raise unless every channel's ``(shape, spacing)`` grid, and the label
    map's if given, equals the first channel's."""
    (ref_shape, ref_spacing), *rest = channels
    for shape, spacing in rest:
        if shape != ref_shape or spacing != ref_spacing:
            raise ValueError(
                f"channel grid mismatch: {shape}/{spacing} vs {ref_shape}/{ref_spacing}"
            )
    if labels is not None and labels != (ref_shape, ref_spacing):
        raise ValueError("label map grid does not match channels")


@dataclass(frozen=True)
class Volume:
    """Dense 3D scalar grid with per-axis spacing in mm.

    ``checked=True`` is for a maker that has already checked every voxel and
    laid ``data`` out C-contiguous float32, as the NIfTI reader does; the
    data is then neither checked nor copied again.
    """

    data: np.ndarray
    spacing: Spacing3 = (1.0, 1.0, 1.0)
    name: str = ""
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3-D, got shape {data.shape}")
        if not checked:
            data = np.ascontiguousarray(data, dtype=np.float32)
            bad = first_bad_voxel(data)
            if bad is not None:
                raise bad_voxel_error(*bad)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def shape(self) -> Shape3:
        return self.data.shape


def _integers_in_alphabet(data: np.ndarray, alphabet: tuple[int, ...]) -> bool:
    """True when nonempty integer ``data`` holds only values of the sorted
    ``alphabet``: a min, a max and one scan per value missing between them.
    False means "not shown here", and ``np.isin`` decides.
    """
    if data.dtype.kind not in "biu" or data.min() < alphabet[0] or data.max() > alphabet[-1]:
        return False
    gaps = [v for v in range(alphabet[0], alphabet[-1]) if v not in alphabet]
    flat = data.ravel(order="K")  # a view of C- or Fortran-ordered data
    step = 1 << 17  # scanned in pieces, so that the temporaries stay small
    pieces = range(0, flat.size, step)
    return not any((flat[i : i + step] == v).any() for v in gaps for i in pieces)


@dataclass(frozen=True)
class LabelMap:
    """Dense 3D integer label grid.

    ``convention`` is "raw" for the acquisition alphabet {0, 1, 2, 4} or
    "canonical" for contiguous class ids {0, 1, 2, 3}. ``checked=True`` is as
    for :class:`Volume`, with C-contiguous uint8 data.
    """

    data: np.ndarray
    spacing: Spacing3 = (1.0, 1.0, 1.0)
    convention: str = "raw"
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"label data must be 3-D, got shape {data.shape}")
        if self.convention not in ("raw", "canonical"):
            raise ValueError(f"unknown label convention {self.convention!r}")
        if not checked:
            bad = first_bad_voxel(data, self.alphabet)
            if bad is not None:
                raise bad_voxel_error(*bad, self.alphabet, self.convention)
            data = np.ascontiguousarray(data, dtype=np.uint8)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def shape(self) -> Shape3:
        return self.data.shape

    @property
    def alphabet(self) -> tuple[int, ...]:
        return RAW_LABELS if self.convention == "raw" else CANONICAL_LABELS


@dataclass(frozen=True)
class Sample:
    """Aligned bundle of image channels plus an optional label map.

    Canonical channel order is T1, T1Gd, T2, FLAIR, but any count >= 1 is
    accepted. All constituents must share shape and spacing exactly.
    """

    channels: tuple[Volume, ...]
    labels: LabelMap | None = None
    subject_id: str = ""

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("sample needs at least one channel")
        labels = self.labels
        check_grids(
            [(ch.shape, ch.spacing) for ch in channels],
            None if labels is None else (labels.shape, labels.spacing),
        )
        object.__setattr__(self, "channels", channels)

    @property
    def shape(self) -> Shape3:
        return self.channels[0].shape

    @property
    def spacing(self) -> Spacing3:
        return self.channels[0].spacing

    def map(self, channel_fn, label_fn=None) -> "Sample":
        """Derive a sample array by array: ``channel_fn`` gets each channel's
        stored array in order, then ``label_fn`` gets the label array.

        Names, spacing, label convention and subject id carry over, and the
        value types cast and copy each result to C-contiguous float32
        (channels) or uint8 (labels), so a function may return a view. With
        ``label_fn=None``, or no labels, the labels object is kept as it is.
        """
        channels = tuple(replace(ch, data=channel_fn(ch.data)) for ch in self.channels)
        labels = self.labels
        if label_fn is not None and labels is not None:
            labels = replace(labels, data=label_fn(labels.data))
        return replace(self, channels=channels, labels=labels)


@dataclass(frozen=True)
class ProbabilityVolume:
    """Per-voxel class probability vectors, shape (nx, ny, nz, C)."""

    data: np.ndarray
    spacing: Spacing3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 4 or data.shape[-1] < 2:
            raise ValueError(
                f"probability data must be (nx, ny, nz, C) with C >= 2, got {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError("non-finite probability value")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def shape(self) -> Shape3:
        return self.data.shape[:3]

    @property
    def num_classes(self) -> int:
        return self.data.shape[-1]

    def check_normalized(self, tol: float = 1e-5) -> None:
        """Raise if any voxel vector is negative or does not sum to 1 within tol."""
        if self.data.min() < 0:
            raise ValueError("negative class probability")
        sums = self.data.sum(axis=-1)
        off = np.abs(sums - 1.0).max()
        if off > tol:
            raise ValueError(f"probability vectors not normalized (max |sum-1| = {off:.3g})")


def normalize_minmax(vol: Volume) -> Volume:
    """Affinely map intensities to [0, 1]; a constant volume maps to zeros."""
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    if hi == lo:
        return replace(vol, data=np.zeros_like(vol.data))
    return replace(vol, data=(vol.data - lo) / (hi - lo))


def center_offsets(shape: Shape3, patch_shape: Shape3) -> Shape3:
    """Per-axis start offset of the centered patch: floor((shape - patch) / 2)."""
    if any(p > s for p, s in zip(patch_shape, shape)):
        raise ValueError(f"patch exceeds volume: patch {tuple(patch_shape)} > shape {tuple(shape)}")
    if any(p < 1 for p in patch_shape):
        raise ValueError(f"patch shape must be positive, got {tuple(patch_shape)}")
    return tuple((s - p) // 2 for s, p in zip(shape, patch_shape))


def center_box(shape: Shape3, patch_shape: Shape3) -> tuple[slice, slice, slice]:
    """The (x, y, z) slices of the centered ``patch_shape`` sub-grid of ``shape``."""
    off = center_offsets(shape, patch_shape)
    return tuple(slice(o, o + p) for o, p in zip(off, patch_shape))


def extract_center_patch(sample: Sample, patch_shape: Shape3) -> Sample:
    """Crop the centered patch_shape sub-grid from every channel and the labels."""
    sl = center_box(sample.shape, patch_shape)
    return sample.map(lambda a: a[sl], lambda a: a[sl])


def raw_to_canonical_labels(labels: LabelMap) -> LabelMap:
    """Map the raw alphabet {0,1,2,4} to contiguous class ids {0,1,2,3}."""
    if labels.convention != "raw":
        raise ValueError("input label map is not in raw convention")
    lut = np.zeros(5, dtype=np.uint8)
    lut[[0, 1, 2, 4]] = [0, 1, 2, 3]
    return LabelMap(lut[labels.data], spacing=labels.spacing, convention="canonical")


def canonical_to_raw_labels(labels: LabelMap) -> LabelMap:
    """Inverse of :func:`raw_to_canonical_labels`."""
    if labels.convention != "canonical":
        raise ValueError("input label map is not in canonical convention")
    lut = np.array([0, 1, 2, 4], dtype=np.uint8)
    return LabelMap(lut[labels.data], spacing=labels.spacing, convention="raw")


def make_phantom(seed: int, shape: Shape3 = (64, 64, 64), subject_id: str = "") -> Sample:
    """Build a deterministic synthetic test subject.

    Four channels hold a smooth "brain" ellipsoid with channel-dependent
    intensity plus low-frequency texture; three nested "tumor" shells carry
    raw labels 4 (inner), 1 (middle), 2 (outer) on a zero background. The
    tumor center and texture depend on the seed only; intensities are
    min-max normalized to [0, 1].

    Every term is separable per axis: the envelope and the tumor distance
    are sums of one squared term per axis, and each texture wave a product
    of one cosine per axis. So each axis's term is computed once on a 1-D
    coordinate vector, and broadcasting combines the three into the grid
    with the same operations in the same order per voxel,
    ``((0 + t0) + t1) + t2`` and ``((1 * c0) * c1) * c2``, as on full
    ``np.indices`` grids; the result is the same byte for byte. The terms
    that the four channels share are computed once: multiplying by the
    0.0/1.0 of ``brain > 0`` is exact, so ``gain * (falloff * inside)``
    equals ``(gain * falloff) * inside``.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 16 for s in shape):
        raise ValueError(f"phantom shape must be >= 16 per axis, got {shape}")
    stream = RandomStream(seed, ("phantom",))

    # one float64 coordinate vector per axis, shaped to broadcast along it
    grids = [
        np.arange(n, dtype=np.float64).reshape([n if a == axis else 1 for a in range(3)])
        for axis, n in enumerate(shape)
    ]
    center = [(n - 1) / 2.0 for n in shape]
    half = [n / 2.0 for n in shape]

    # smooth brain envelope: 1 at center, 0 at the ellipsoid boundary
    axes = stream.uniform(0.80, 0.90, 3)
    brain = sum(((g - c) / (a * h)) ** 2 for g, c, a, h in zip(grids, center, axes, half))
    np.subtract(1.0, brain, out=brain)
    np.clip(brain, 0.0, None, out=brain)

    # low-frequency texture: a few random cosine waves, smooth by construction
    texture = np.zeros(shape)
    wave = np.empty(shape)
    for _ in range(3):
        freq = stream.uniform(0.5, 1.5, 3)
        phase = stream.uniform(0.0, 2 * np.pi, 3)
        c0, c1, c2 = (np.cos(np.pi * f * g / n + p) for g, n, f, p in zip(grids, shape, freq, phase))
        np.multiply((1.0 * c0) * c1, c2, out=wave)
        wave *= stream.uniform(0.05, 0.12)
        texture += wave
    del wave

    # nested tumor shells, fully inside the brain envelope
    m = float(min(shape))
    r_inner = max(1.1, 0.066 * m)
    r_middle = 2.0 * r_inner
    r_outer = 3.0 * r_inner
    t_center = [c + stream.uniform(-0.28, 0.28) * h * 0.5 for c, h in zip(center, half)]
    squash = stream.uniform(0.9, 1.1, 3)
    dist = sum(((g - tc) / s) ** 2 for g, tc, s in zip(grids, t_center, squash))
    np.sqrt(dist, out=dist)

    labels = np.zeros(shape, dtype=np.uint8)
    labels[dist < r_outer] = 2
    labels[dist < r_middle] = 1
    labels[dist < r_inner] = 4

    # the terms every channel shares: 0.5 * texture * brain, and the tumor
    # falloff exp(-(dist / r_outer)**2) inside the brain
    shared = texture
    shared *= 0.5
    shared *= brain
    falloff = dist
    falloff /= r_outer
    np.square(falloff, out=falloff)
    np.negative(falloff, out=falloff)
    np.exp(falloff, out=falloff)
    falloff *= brain > 0

    base = (0.55, 0.85, 0.70, 0.95)
    tumor_gain = (0.35, 0.60, 0.45, 0.25)
    intensity, bump = np.empty(shape), np.empty(shape)
    channels = []
    for name, b, tg in zip(CHANNEL_NAMES, base, tumor_gain):
        np.multiply(b, brain, out=intensity)
        intensity += shared
        np.multiply(tg, falloff, out=bump)
        intensity += bump
        channels.append(normalize_minmax(Volume(intensity, name=name)))

    sid = subject_id or f"phantom-{int(seed)}"
    return Sample(
        channels=tuple(channels),
        labels=LabelMap(labels, convention="raw"),
        subject_id=sid,
    )
