"""The five stochastic augmentation operators and the pipeline composer.

Each operator has a deterministic core (``flip_axis``, ``rotate_by``,
``scale_by``, ``brightness_by``, ``elastic_by``) that applies explicit
parameters, and a ``draw_*`` helper that draws those parameters from a
:class:`~voxaug.rng.RandomStream`.

One private table maps each kind to its spec fields (with their menu or
check), its draw, its core and the parameters it records in provenance.
:class:`AugmentSpec` validation and serialisation, :data:`KINDS` and
:func:`apply_spec` all read that table. ``apply_spec`` draws and applies one
operator unconditionally; :func:`apply_pipeline` decides per step whether
it fires and records every drawn value, so re-running with the same stream
(or feeding recorded parameters back into the cores) reproduces the output
bit for bit.

Geometry operators hand the whole sample to one resampling path in
:mod:`voxaug.interp`, which moves channels with trilinear interpolation and
labels with nearest-neighbor at the same sampling positions, so constituents
stay co-registered and the label alphabet is preserved.
"""

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import interp
from .interp import AffineTransform
from .rng import RandomStream
from .volume import Sample

# parameter menu accepted by the declarative layer (configs); the operator
# functions themselves take any value in their documented domain
ROTATION_MAX_DEG = (15.0, 30.0, 60.0, 90.0)
SCALE_MAX_FRAC = (0.10, 0.20)
ELASTIC_SIGMAS = (2.0, 5.0, 8.0, 10.0)
DEFAULT_GRID_SIZE = 4


def _menu(choices: tuple) -> Callable:
    def check(kind: str, name: str, value) -> float:
        if value is None or float(value) not in choices:
            raise ValueError(f"{kind} {name} must be one of {choices}, got {value}")
        return float(value)

    return check


def _grid_size(kind: str, name: str, value) -> int:
    if int(value) < 2:
        raise ValueError(f"{kind} {name} must be >= 2, got {value}")
    return int(value)


class _Op(NamedTuple):
    """One augmentation kind: the spec fields it reads, each with the check
    that validates it and returns its canonical value; how it draws its
    parameters from a stream; how it applies them; and what it records."""

    spec_fields: dict[str, Callable]
    draw: Callable[[RandomStream, "AugmentSpec"], dict]
    apply: Callable[[Sample, dict], Sample]
    provenance: Callable[["AugmentSpec", dict], dict]


# The cores are looked up by name when an op runs, not captured here, so
# code that replaces them on this module (tracing, tests) sees every call.
_OPS = {
    "flip": _Op(
        spec_fields={},
        draw=lambda rng, spec: draw_flip_params(rng),
        apply=lambda s, p: flip_axis(s, **p),
        provenance=lambda spec, p: p,
    ),
    "rotation": _Op(
        spec_fields={"max_deg": _menu(ROTATION_MAX_DEG)},
        draw=lambda rng, spec: draw_rotation_params(rng, spec.max_deg),
        apply=lambda s, p: rotate_by(s, **p),
        provenance=lambda spec, p: {"angles_deg": list(p["angles_deg"])},
    ),
    "scale": _Op(
        spec_fields={"max_frac": _menu(SCALE_MAX_FRAC)},
        draw=lambda rng, spec: draw_scale_params(rng, spec.max_frac),
        apply=lambda s, p: scale_by(s, **p),
        provenance=lambda spec, p: {"factors": list(p["factors"])},
    ),
    "brightness": _Op(
        spec_fields={},
        draw=lambda rng, spec: draw_brightness_params(rng),
        apply=lambda s, p: brightness_by(s, **p),
        provenance=lambda spec, p: p,
    ),
    "elastic": _Op(
        spec_fields={"sigma": _menu(ELASTIC_SIGMAS), "grid_size": _grid_size},
        draw=lambda rng, spec: {
            "control_grid": draw_elastic_grid(rng, spec.sigma, spec.grid_size)
        },
        apply=lambda s, p: elastic_by(s, **p),
        provenance=lambda spec, p: {
            "sigma": spec.sigma,
            "grid_size": spec.grid_size,
            "control_grid_sha256": _control_grid_sha256(p["control_grid"]),
        },
    ),
}

KINDS = tuple(_OPS)


@dataclass(frozen=True)
class AugmentSpec:
    """Declarative description of one augmentation operator.

    Parameters are restricted to the menu above so a pipeline document
    always describes a supported experiment configuration. The fields a
    kind reads are stored in canonical form (menu values as float,
    ``grid_size`` as int); the others are ignored.
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
        for name, check in _OPS[self.kind].spec_fields.items():
            object.__setattr__(self, name, check(self.kind, name, getattr(self, name)))

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "probability": self.probability}
        d.update((name, getattr(self, name)) for name in _OPS[self.kind].spec_fields)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentSpec":
        extra = set(d) - {f.name for f in fields(cls)}
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


# rotation -------------------------------------------------------------

def draw_rotation_params(rng: RandomStream, max_deg: float) -> dict:
    mags = rng.uniform(0.0, float(max_deg), 3)
    signs = rng.integers(0, 2, 3) * 2 - 1
    return {"angles_deg": tuple(float(v) for v in signs * mags)}


def rotate_by(sample: Sample, angles_deg) -> Sample:
    """Rotate about the volume center by per-axis angles, order Rx.Ry.Rz."""
    return interp.resample_affine(sample, AffineTransform.rotation_xyz(angles_deg))


# scaling --------------------------------------------------------------

def draw_scale_params(rng: RandomStream, max_frac: float) -> dict:
    f = float(max_frac)
    return {"factors": tuple(float(v) for v in rng.uniform(1.0 - f, 1.0 + f, 3))}


def scale_by(sample: Sample, factors) -> Sample:
    """Scale about the center by per-axis factors; shape is unchanged, so
    factors > 1 enlarge content (cropping at the edges) and factors < 1
    shrink it (padding with background)."""
    return interp.resample_affine(sample, AffineTransform.scaling(factors))


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


# elastic deformation --------------------------------------------------

def draw_elastic_grid(rng: RandomStream, sigma: float, grid_size: int) -> np.ndarray:
    """Draw the control grid: grid_size^3 i.i.d. Normal(0, sigma^2) 3-vectors."""
    g = int(grid_size)
    return rng.normal(0.0, float(sigma), (g, g, g, 3))


def elastic_by(sample: Sample, control_grid: np.ndarray) -> Sample:
    """Warp by the dense field upsampled from an explicit control grid."""
    return interp.warp(sample, interp.bspline_upsample(control_grid, sample.shape))


# pipeline composition -------------------------------------------------

def _control_grid_sha256(grid: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid, dtype=np.float64).tobytes()).hexdigest()


def apply_spec(sample: Sample, spec: AugmentSpec, rng: RandomStream) -> tuple[Sample, dict]:
    """Draw the spec's parameters from ``rng`` and apply its operator
    unconditionally; returns the output and the parameters as recorded in
    provenance."""
    op = _OPS[spec.kind]
    params = op.draw(rng, spec)
    return op.apply(sample, params), op.provenance(spec, params)


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
            out, params = apply_spec(out, spec, sub)
        prov.records.append(
            OpRecord(kind=spec.kind, probability=spec.probability, fired=fired, params=params)
        )
    return out, prov
