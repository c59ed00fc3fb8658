"""The five stochastic augmentation operators and the pipeline composer.

Each operator has a deterministic core (``flip_axis``, ``rotate_by``,
``scale_by``, ``brightness_by``, ``elastic_by``) that applies explicit
parameters, and a ``draw_*`` helper that draws those parameters from a
:class:`~voxaug.rng.RandomStream`.

One private table maps each kind to the spec parameters it reads, its
draw, the parameters it records in provenance and what it does to one
array: for the four geometric kinds, the step it adds to a fused
resampling; for brightness, its function of one channel.
:class:`AugmentSpec` validation and serialisation, :data:`KINDS`,
:func:`apply_spec`, :func:`draw_pipeline` and :func:`plan_steps` all read
that table. ``apply_spec`` draws one operator's parameters and applies them
unconditionally, as a one-step :func:`apply_steps`.

Every spec field has one :class:`Rule` in :data:`SPEC_FIELDS`: what it must
be, a test of its raw JSON value that coerces nothing, and its canonical
form. :func:`check_fields` applies such rules to a dataclass, and
:func:`from_json` checks the shape of a JSON object before the dataclass is
built; :mod:`voxaug.config` checks its own fields the same way. A spec
parameter's error carries its kind, as in ``rotation max_deg must be one of
(15.0, 30.0, 60.0, 90.0), got '30'``.

A pipeline runs in two parts. :func:`draw_pipeline` decides per step whether
it fires and draws and records every value, so re-running with the same
stream reproduces the output bit for bit. :func:`plan_steps` sets up the
fired steps and returns the plan, a function of the arrays: the one array
loop, which maps the arrays it is given one z-slab at a time, a channel's
and the label map's each by their own function, and checks every output
voxel. ``voxaug augment`` calls it with one array of a subject at a time,
as it reads it, writes each output slab as it comes, and drops the array
before the next read. :func:`apply_steps` calls it with a whole sample, so
each z-slab of sampling positions is built once for all of its arrays, and
the output slabs fill whole outputs. Neither holds a whole position array.
:func:`apply_pipeline` is the draw followed by ``apply_steps``: the library
and the command line run the same functions.
Each core is its kind applied alone with ``apply_steps``. Feeding recorded
parameters back into a single core reproduces a one-step pipeline; a longer
one is replayed by passing the recorded ``(kind, params)`` pairs to
``apply_steps``.

A plan applies its geometric steps first and its intensity steps after
them. Two or more fired flip, rotation, scale and elastic steps are composed
into one sampling map, whose positions :func:`voxaug.interp.warp` sets up once
per subject and interpolates once per array: channels trilinearly and labels
nearest-neighbor at the same positions, so constituents stay co-registered
and the label alphabet is preserved. A lone rotation, scale or elastic step
is the same ``warp`` with its one step, and a lone flip stays an index
reversal. The brightness steps then run, in their order, on each channel's
output slab, in float64.
"""

import hashlib
import json
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import interp
from .common import Rule, _real, whole
from .interp import AffineTransform
from .rng import RandomStream
from .volume import LabelMap, Sample, Shape3, bad_voxel_error, earlier_bad_voxel

# parameter menu accepted by the declarative layer (configs); the operator
# functions themselves take any value in their documented domain
ROTATION_MAX_DEG = (15.0, 30.0, 60.0, 90.0)
SCALE_MAX_FRAC = (0.10, 0.20)
ELASTIC_SIGMAS = (2.0, 5.0, 8.0, 10.0)
DEFAULT_GRID_SIZE = 4


def _one_of(choices: tuple) -> Rule:
    return Rule(f"one of {choices}", lambda v: _real(v) and v in choices, float)  # "30" is not 30.0


SPEC_FIELDS = {
    "probability": Rule("a number in [0, 1]", lambda v: _real(v) and 0 <= v <= 1, float),
    "max_deg": _one_of(ROTATION_MAX_DEG),
    "max_frac": _one_of(SCALE_MAX_FRAC),
    "sigma": _one_of(ELASTIC_SIGMAS),
    "grid_size": Rule("a whole number >= 2", lambda v: whole(v) and v >= 2, int),
}


def check_fields(obj, rules: dict[str, Rule], prefix: str = "") -> None:
    """Check each field of the frozen dataclass ``obj`` that ``rules`` names
    and store it in its canonical form; a field that fails raises
    ``<prefix><field> must be <what>, got <value!r>``."""
    for name, rule in rules.items():
        value = getattr(obj, name)
        if not rule.test(value):
            raise ValueError(f"{prefix}{name} must be {rule.what}, got {value!r}")
        object.__setattr__(obj, name, rule.canonical(value))


def from_json(cls, d, what: str, required: tuple[str, ...]) -> dict:
    """The fields of the dataclass ``cls`` given by the parsed JSON ``d``:
    it must be an object, name only fields of ``cls`` and name every
    ``required`` one. The values are checked when ``cls`` is built."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    if extra := set(d) - {f.name for f in fields(cls)}:
        raise ValueError(f"unknown {what} fields: {sorted(extra)}")
    if missing := [name for name in required if name not in d]:
        raise ValueError(f"{what} is missing required field {missing[0]!r}")
    return dict(d)


class _Op(NamedTuple):
    """One augmentation kind: the spec parameters it reads, each checked by
    its :data:`SPEC_FIELDS` rule; how it draws its parameters from a stream;
    what it records; and either, for a geometric kind, the step its
    parameters add to :func:`voxaug.interp.warp`, or, for an intensity
    kind, how it applies them to one channel's array (the other one is
    None)."""

    spec_fields: tuple[str, ...]
    draw: Callable[[RandomStream, "AugmentSpec"], dict]
    provenance: Callable[["AugmentSpec", dict], dict]
    geometry: Callable[[dict], AffineTransform | np.ndarray] | None = None
    intensity: Callable[[np.ndarray, dict], np.ndarray] | None = None


_OPS = {
    "flip": _Op(
        spec_fields=(),
        draw=lambda rng, spec: draw_flip_params(rng),
        provenance=lambda spec, p: p,
        geometry=lambda p: AffineTransform.flip(p["axis"]),
    ),
    "rotation": _Op(
        spec_fields=("max_deg",),
        draw=lambda rng, spec: draw_rotation_params(rng, spec.max_deg),
        provenance=lambda spec, p: {"angles_deg": list(p["angles_deg"])},
        geometry=lambda p: AffineTransform.rotation_xyz(p["angles_deg"]),
    ),
    "scale": _Op(
        spec_fields=("max_frac",),
        draw=lambda rng, spec: draw_scale_params(rng, spec.max_frac),
        provenance=lambda spec, p: {"factors": list(p["factors"])},
        geometry=lambda p: AffineTransform.scaling(p["factors"]),
    ),
    "brightness": _Op(
        spec_fields=(),
        draw=lambda rng, spec: draw_brightness_params(rng),
        provenance=lambda spec, p: p,
        intensity=lambda a, p: _brighten(a, **p),
    ),
    "elastic": _Op(
        spec_fields=("sigma", "grid_size"),
        draw=lambda rng, spec: {
            "control_grid": draw_elastic_grid(rng, spec.sigma, spec.grid_size)
        },
        provenance=lambda spec, p: {
            "sigma": spec.sigma,
            "grid_size": spec.grid_size,
            "control_grid_sha256": _control_grid_sha256(p["control_grid"]),
        },
        geometry=lambda p: p["control_grid"],
    ),
}

KINDS = tuple(_OPS)


@dataclass(frozen=True)
class AugmentSpec:
    """Declarative description of one augmentation operator.

    Each field is checked, and stored in canonical form, by its
    :data:`SPEC_FIELDS` rule: ``probability`` and the menu values as float,
    ``grid_size`` as int. The menus keep a pipeline document to a supported
    experiment configuration. A field its kind does not read must keep its
    default.
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
        check_fields(self, {"probability": SPEC_FIELDS["probability"]})
        reads = _OPS[self.kind].spec_fields
        for f in fields(self)[2:]:  # the parameters after kind and probability
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} does not read {f.name}, got {getattr(self, f.name)}")
        check_fields(self, {name: SPEC_FIELDS[name] for name in reads}, f"{self.kind} ")

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in ("kind", "probability", *_OPS[self.kind].spec_fields)}

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentSpec":
        return cls(**from_json(cls, d, "augmentation spec", ("kind",)))


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
    return apply_steps(sample, [("flip", {"axis": axis})])


# rotation -------------------------------------------------------------

def draw_rotation_params(rng: RandomStream, max_deg: float) -> dict:
    mags = rng.uniform(0.0, float(max_deg), 3)
    signs = rng.integers(0, 2, 3) * 2 - 1
    return {"angles_deg": tuple(float(v) for v in signs * mags)}


def rotate_by(sample: Sample, angles_deg) -> Sample:
    """Rotate about the volume center by per-axis angles, order Rx.Ry.Rz."""
    return apply_steps(sample, [("rotation", {"angles_deg": angles_deg})])


# scaling --------------------------------------------------------------

def draw_scale_params(rng: RandomStream, max_frac: float) -> dict:
    f = float(max_frac)
    return {"factors": tuple(float(v) for v in rng.uniform(1.0 - f, 1.0 + f, 3))}


def scale_by(sample: Sample, factors) -> Sample:
    """Scale about the center by per-axis factors; shape is unchanged, so
    factors > 1 enlarge content (cropping at the edges) and factors < 1
    shrink it (padding with background)."""
    return apply_steps(sample, [("scale", {"factors": factors})])


# brightness -----------------------------------------------------------

def draw_brightness_params(rng: RandomStream) -> dict:
    return {"gain": rng.uniform(0.8, 1.2), "gamma": rng.uniform(0.8, 1.2)}


def brightness_by(sample: Sample, gain: float, gamma: float) -> Sample:
    """Power-law intensity transform new = gain * old**gamma on every channel.

    One (gain, gamma) pair is shared by all channels; labels are untouched.
    Requires nonnegative intensities (normalize first).
    """
    return apply_steps(sample, [("brightness", {"gain": gain, "gamma": gamma})])


def _brighten(data: np.ndarray, gain: float, gamma: float) -> np.ndarray:
    """``gain * data**gamma`` of one slab of a channel, computed in float64
    and returned as float32."""
    if data.min() < 0:
        raise ValueError("brightness requires nonnegative intensities - normalize first")
    out = data.astype(np.float64)
    out **= float(gamma)
    out *= float(gain)
    return out.astype(np.float32)


# elastic deformation --------------------------------------------------

def draw_elastic_grid(rng: RandomStream, sigma: float, grid_size: int) -> np.ndarray:
    """Draw the control grid: grid_size^3 i.i.d. Normal(0, sigma^2) 3-vectors."""
    g = int(grid_size)
    return rng.normal(0.0, float(sigma), (g, g, g, 3))


def elastic_by(sample: Sample, control_grid: np.ndarray) -> Sample:
    """Warp by the dense field upsampled from an explicit control grid."""
    return apply_steps(sample, [("elastic", {"control_grid": control_grid})])


# pipeline composition -------------------------------------------------

def _control_grid_sha256(grid: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid, dtype=np.float64).tobytes()).hexdigest()


def apply_spec(sample: Sample, spec: AugmentSpec, rng: RandomStream) -> tuple[Sample, dict]:
    """Draw the spec's parameters from ``rng`` and apply them
    unconditionally, as the one step of :func:`apply_steps`, which is what
    the kind's core does with them; returns the output and the parameters
    as recorded in provenance."""
    op = _OPS[spec.kind]
    params = op.draw(rng, spec)
    return apply_steps(sample, [(spec.kind, params)]), op.provenance(spec, params)


def plan_steps(shape: Shape3, steps) -> Callable[[list], Iterator[tuple[int, int, np.ndarray]]]:
    """The plan of fired steps, each a ``(kind, core params)`` pair, for the
    arrays of a ``shape`` grid: the geometric steps first, in order, as one
    resampling whose positions are set up here, once; then the intensity
    steps, in order, on each channel.

    Every plan streams in z-slabs of ``interp._SLAB_PLANES`` planes. A lone
    flip is an index reversal and builds no positions, and with no geometric
    step an array is not moved. Otherwise the positions are handed out in
    z-slabs (see :func:`voxaug.interp.warp`), and every check of the steps
    (the matrices, the control grids) runs here, before any array is
    touched.

    The plan is the array loop itself: ``plan(arrays)`` maps a subject's
    ``arrays`` (each a :class:`~voxaug.volume.Volume` channel or a
    :class:`~voxaug.volume.LabelMap`) one z-slab at a time and yields
    ``(n, z, out)``, array ``n``'s output at the planes from ``z`` on, every
    array at one slab before the next slab, so no whole position array is
    held. Each call is one pass over the slabs and may be made again, so a
    plan that resamples builds its positions once for the arrays it is
    given: once for a whole sample in :func:`apply_steps`, once per array in
    ``voxaug augment``, which passes one array at a time and so holds one
    window, not all of them. An output slab may be a view of its array.

    Each output slab is checked as the value types check a whole array:
    finite channels, labels in the map's own alphabet. After the last slab
    the first faulty array's first bad voxel in (x, y, z) order is raised,
    as a whole-array check would name it.
    """
    steps = list(steps)
    for kind, _ in steps:
        if kind not in _OPS:
            raise ValueError(f"unknown augmentation kind {kind!r}")
    geometric = [(kind, params) for kind, params in steps if _OPS[kind].geometry is not None]
    moves = [_OPS[kind].geometry(params) for kind, params in geometric]  # checks the params
    if len(moves) > 1 or moves and geometric[0][0] != "flip":
        slabs = interp.warp(shape, moves)  # each call builds the (z, positions) slabs afresh
        move_channel, move_labels = interp.sample_channel, interp.sample_labels
    else:  # nothing moves, or the lone flip reverses its axis
        axes = tuple(params["axis"] for _, params in geometric)
        planes = interp._SLAB_PLANES
        slabs = lambda: [(z, slice(z, z + planes)) for z in range(0, shape[2], planes)]
        move_channel = move_labels = lambda data, zs: np.flip(data, axes)[..., zs]
    intensity = [(_OPS[kind].intensity, params) for kind, params in steps if _OPS[kind].intensity]

    def plan(arrays) -> Iterator[tuple[int, int, np.ndarray]]:
        alphabets = [array.alphabet if isinstance(array, LabelMap) else None for array in arrays]
        first = [None] * len(arrays)
        for z, where in slabs():
            for n, (array, alphabet) in enumerate(zip(arrays, alphabets)):
                out = (move_channel if alphabet is None else move_labels)(array.data, where)
                if alphabet is None:  # a channel: the intensity steps follow the move
                    for apply, params in intensity:
                        out = apply(out, params)
                first[n] = earlier_bad_voxel(first[n], out, z, alphabet)
                yield n, z, out
        for array, alphabet, bad in zip(arrays, alphabets, first):
            if bad is not None:
                raise bad_voxel_error(*bad, alphabet, getattr(array, "convention", None))

    return plan


def apply_steps(sample: Sample, steps) -> Sample:
    """Apply fired steps, each a ``(kind, core params)`` pair, to every array
    of a sample with their :func:`plan_steps` plan. With no steps the sample
    itself is returned. The plan streams its slabs into the preallocated
    outputs, so only a few slabs are held beside the sample and its
    output."""
    steps = list(steps)
    if not steps:
        return sample
    plan = plan_steps(sample.shape, steps)
    arrays = [a for a in (*sample.channels, sample.labels) if a is not None]
    outs = [np.empty(sample.shape, np.uint8 if isinstance(a, LabelMap) else np.float32)
            for a in arrays]
    for n, z, slab in plan(arrays):
        outs[n][..., z : z + slab.shape[-1]] = slab
    # the plan has checked every voxel, so the value types take the outputs as they are
    made = [replace(array, data=out, checked=True) for array, out in zip(arrays, outs)]
    labels = None if sample.labels is None else made.pop()
    return replace(sample, channels=made, labels=labels)


def draw_pipeline(
    pipeline: AugmentPipeline, rng: RandomStream, subject_id: str = ""
) -> tuple[list[tuple[str, dict]], ProvenanceRecord]:
    """Decide each spec independently with its probability, in order, and
    draw the parameters of the fired ones: returns the fired
    ``(kind, core params)`` steps and the record of every decision and drawn
    value.

    Every spec gets its own substream keyed by (position, kind), so draws do
    not depend on whether earlier specs fired. With k specs at probability
    0.5 the chance that nothing fires is 0.5**k.
    """
    prov = ProvenanceRecord(subject_id=subject_id)
    steps = []
    for i, spec in enumerate(pipeline.specs):
        sub = rng.substream(i, spec.kind)
        fired = sub.random() < spec.probability
        params: dict = {}
        if fired:
            op = _OPS[spec.kind]
            drawn = op.draw(sub, spec)
            steps.append((spec.kind, drawn))
            params = op.provenance(spec, drawn)
        prov.records.append(
            OpRecord(kind=spec.kind, probability=spec.probability, fired=fired, params=params)
        )
    return steps, prov


def apply_pipeline(
    sample: Sample, pipeline: AugmentPipeline, rng: RandomStream
) -> tuple[Sample, ProvenanceRecord]:
    """:func:`draw_pipeline`, then the fired steps applied with
    :func:`apply_steps`."""
    steps, prov = draw_pipeline(pipeline, rng, sample.subject_id)
    return apply_steps(sample, steps), prov
