"""The five stochastic augmentation operators and the pipeline composer.

Each operator comes in two layers:

* a deterministic core (``flip_axis``, ``rotate_by``, ``scale_by``,
  ``brightness_by``, ``elastic_by``) that applies explicit parameters, and
* a random wrapper (``flip``, ``rotate``, ...) that draws parameters from a
  :class:`~voxaug.rng.RandomStream` via the matching ``draw_*_params``
  helper and calls the core.

The pipeline composer uses the draw helpers directly so that every drawn
value lands in the provenance record; re-running with the same stream (or
feeding recorded parameters back into the cores) reproduces the output
bit for bit.

Geometry operators hand the whole sample to one resampling path in
:mod:`voxaug.interp`, which moves channels with trilinear interpolation and
labels with nearest-neighbor at the same sampling positions, so constituents
stay co-registered and the label alphabet is preserved.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import interp
from .interp import AffineTransform
from .rng import RandomStream
from .volume import Sample

KINDS = ("flip", "rotation", "scale", "brightness", "elastic")

# parameter menu accepted by the declarative layer (configs); the operator
# functions themselves take any value in their documented domain
ROTATION_MAX_DEG = (15.0, 30.0, 60.0, 90.0)
SCALE_MAX_FRAC = (0.10, 0.20)
ELASTIC_SIGMAS = (2.0, 5.0, 8.0, 10.0)
DEFAULT_GRID_SIZE = 4


@dataclass(frozen=True)
class AugmentSpec:
    """Declarative description of one augmentation operator.

    Parameters are restricted to the menu above so a pipeline document
    always describes a supported experiment configuration.
    """

    kind: str
    probability: float = 0.5
    max_deg: float | None = None
    max_frac: float | None = None
    sigma: float | None = None
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.kind == "rotation":
            if self.max_deg is None or float(self.max_deg) not in ROTATION_MAX_DEG:
                raise ValueError(
                    f"rotation max_deg must be one of {ROTATION_MAX_DEG}, got {self.max_deg}"
                )
        elif self.kind == "scale":
            if self.max_frac is None or float(self.max_frac) not in SCALE_MAX_FRAC:
                raise ValueError(
                    f"scale max_frac must be one of {SCALE_MAX_FRAC}, got {self.max_frac}"
                )
        elif self.kind == "elastic":
            if self.sigma is None or float(self.sigma) not in ELASTIC_SIGMAS:
                raise ValueError(
                    f"elastic sigma must be one of {ELASTIC_SIGMAS}, got {self.sigma}"
                )
            if int(self.grid_size) < 2:
                raise ValueError(f"elastic grid_size must be >= 2, got {self.grid_size}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "probability": self.probability}
        if self.kind == "rotation":
            d["max_deg"] = float(self.max_deg)
        elif self.kind == "scale":
            d["max_frac"] = float(self.max_frac)
        elif self.kind == "elastic":
            d["sigma"] = float(self.sigma)
            d["grid_size"] = int(self.grid_size)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentSpec":
        known = {"kind", "probability", "max_deg", "max_frac", "sigma", "grid_size"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown augmentation spec fields: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class AugmentPipeline:
    """Ordered list of augmentation specs, applied after patch extraction."""

    specs: tuple[AugmentSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class OpRecord:
    """What one pipeline step did: fired or not, and every drawn parameter."""

    kind: str
    probability: float
    fired: bool
    params: dict = field(default_factory=dict)


@dataclass
class ProvenanceRecord:
    subject_id: str
    records: list[OpRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"subject_id": self.subject_id, "records": [asdict(r) for r in self.records]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# flipping -------------------------------------------------------------

def draw_flip_params(rng: RandomStream) -> dict:
    return {"axis": rng.integers(0, 3)}


def flip_axis(sample: Sample, axis: int) -> Sample:
    """Reverse the sample along one axis (0=x, 1=y, 2=z)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"flip axis must be 0, 1 or 2, got {axis}")
    channels = tuple(
        replace(ch, data=np.ascontiguousarray(np.flip(ch.data, axis)))
        for ch in sample.channels
    )
    labels = sample.labels
    if labels is not None:
        labels = replace(labels, data=np.ascontiguousarray(np.flip(labels.data, axis)))
    return Sample(channels=channels, labels=labels, subject_id=sample.subject_id)


def flip(sample: Sample, rng: RandomStream) -> Sample:
    """Flip one axis chosen uniformly from {x, y, z}."""
    return flip_axis(sample, **draw_flip_params(rng))


# rotation -------------------------------------------------------------

def draw_rotation_params(rng: RandomStream, max_deg: float) -> dict:
    mags = rng.uniform(0.0, float(max_deg), 3)
    signs = rng.integers(0, 2, 3) * 2 - 1
    return {"angles_deg": tuple(float(v) for v in signs * mags)}


def rotate_by(sample: Sample, angles_deg) -> Sample:
    """Rotate about the volume center by per-axis angles, order Rx.Ry.Rz."""
    return interp.resample_affine(sample, AffineTransform.rotation_xyz(angles_deg))


def rotate(sample: Sample, max_deg: float, rng: RandomStream) -> Sample:
    """Rotate by per-axis angles ~ U[0, max_deg] with independent random signs."""
    if not 0.0 < float(max_deg) <= 180.0:
        raise ValueError(f"max_deg must be in (0, 180], got {max_deg}")
    return rotate_by(sample, **draw_rotation_params(rng, max_deg))


# scaling --------------------------------------------------------------

def draw_scale_params(rng: RandomStream, max_frac: float) -> dict:
    f = float(max_frac)
    return {"factors": tuple(float(v) for v in rng.uniform(1.0 - f, 1.0 + f, 3))}


def scale_by(sample: Sample, factors) -> Sample:
    """Scale about the center by per-axis factors; shape is unchanged, so
    factors > 1 enlarge content (cropping at the edges) and factors < 1
    shrink it (padding with background)."""
    return interp.resample_affine(sample, AffineTransform.scaling(factors))


def scale(sample: Sample, max_frac: float, rng: RandomStream) -> Sample:
    """Scale by per-axis factors ~ U[1 - max_frac, 1 + max_frac]."""
    if not 0.0 < float(max_frac) <= 0.5:
        raise ValueError(f"max_frac must be in (0, 0.5], got {max_frac}")
    return scale_by(sample, **draw_scale_params(rng, max_frac))


# brightness -----------------------------------------------------------

def draw_brightness_params(rng: RandomStream) -> dict:
    return {"gain": rng.uniform(0.8, 1.2), "gamma": rng.uniform(0.8, 1.2)}


def brightness_by(sample: Sample, gain: float, gamma: float) -> Sample:
    """Power-law intensity transform new = gain * old**gamma on every channel.

    One (gain, gamma) pair is shared by all channels; labels are untouched.
    Requires nonnegative intensities (normalize first).
    """
    for ch in sample.channels:
        if ch.data.min() < 0:
            raise ValueError("brightness requires nonnegative intensities - normalize first")
    channels = tuple(
        replace(ch, data=(float(gain) * ch.data.astype(np.float64) ** float(gamma)).astype(np.float32))
        for ch in sample.channels
    )
    return Sample(channels=channels, labels=sample.labels, subject_id=sample.subject_id)


def brightness(sample: Sample, rng: RandomStream) -> Sample:
    """Apply the power-law transform with gain, gamma ~ U[0.8, 1.2]."""
    return brightness_by(sample, **draw_brightness_params(rng))


# elastic deformation --------------------------------------------------

def draw_elastic_grid(rng: RandomStream, sigma: float, grid_size: int) -> np.ndarray:
    """Draw the control grid: grid_size^3 i.i.d. Normal(0, sigma^2) 3-vectors."""
    g = int(grid_size)
    return rng.normal(0.0, float(sigma), (g, g, g, 3))


def elastic_by(sample: Sample, control_grid: np.ndarray) -> Sample:
    """Warp by the dense field upsampled from an explicit control grid."""
    return interp.warp(sample, interp.bspline_upsample(control_grid, sample.shape))


def elastic(sample: Sample, sigma: float, grid_size: int, rng: RandomStream) -> Sample:
    """Random smooth deformation with control displacements ~ N(0, sigma^2)."""
    if float(sigma) < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if int(grid_size) < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    return elastic_by(sample, draw_elastic_grid(rng, sigma, grid_size))


# pipeline composition -------------------------------------------------

def _control_grid_sha256(grid: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid, dtype=np.float64).tobytes()).hexdigest()


def _apply_spec(sample: Sample, spec: AugmentSpec, rng: RandomStream) -> tuple[Sample, dict]:
    if spec.kind == "flip":
        params = draw_flip_params(rng)
        return flip_axis(sample, **params), params
    if spec.kind == "rotation":
        params = draw_rotation_params(rng, spec.max_deg)
        return rotate_by(sample, **params), {"angles_deg": list(params["angles_deg"])}
    if spec.kind == "scale":
        params = draw_scale_params(rng, spec.max_frac)
        return scale_by(sample, **params), {"factors": list(params["factors"])}
    if spec.kind == "brightness":
        params = draw_brightness_params(rng)
        return brightness_by(sample, **params), params
    if spec.kind == "elastic":
        grid = draw_elastic_grid(rng, spec.sigma, spec.grid_size)
        out = elastic_by(sample, grid)
        return out, {
            "sigma": float(spec.sigma),
            "grid_size": int(spec.grid_size),
            "control_grid_sha256": _control_grid_sha256(grid),
        }
    raise ValueError(f"unknown augmentation kind {spec.kind!r}")


def apply_pipeline(
    sample: Sample, pipeline: AugmentPipeline, rng: RandomStream
) -> tuple[Sample, ProvenanceRecord]:
    """Apply each spec independently with its probability, in order.

    Every spec gets its own substream keyed by (position, kind), so draws do
    not depend on whether earlier specs fired. With k specs at probability
    0.5 the chance that nothing fires is 0.5**k.
    """
    prov = ProvenanceRecord(subject_id=sample.subject_id)
    out = sample
    for i, spec in enumerate(pipeline.specs):
        sub = rng.substream(i, spec.kind)
        fired = sub.random() < spec.probability
        params: dict = {}
        if fired:
            out, params = _apply_spec(out, spec, sub)
        prov.records.append(
            OpRecord(kind=spec.kind, probability=spec.probability, fired=fired, params=params)
        )
    return out, prov
