"""JSON experiment configuration for the augmentation pipeline.

Each :class:`PipelineConfig` field has one rule in :data:`CONFIG_FIELDS`,
as each :class:`~voxaug.augment.AugmentSpec` field has one in
:data:`~voxaug.augment.SPEC_FIELDS`: what it must be, a test of its raw JSON
value that coerces nothing ("30" is not 30, a bool is not a number), and the
form it is stored in. A field that fails raises ``<field> must be <what>,
got <value>``, which :func:`load_config` prefixes with the file name.

One more rule spans two fields: no suffix, among the channel suffixes and
the label suffix, may be empty or a string tail of another. ``augment`` finds
subjects by the first channel suffix and names each output file by subject
and suffix, so with ``channel_suffixes: [""]`` a label file ``s_seg.nii.gz``
would be read as a second subject ``s_seg``, and both subjects would write
``s_seg.nii.gz``.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from .augment import AugmentPipeline, AugmentSpec, check_fields, from_json
from .common import DEFAULT_LABEL_SUFFIX, Rule, atomic_write_bytes, whole
from .volume import CHANNEL_NAMES

DEFAULT_PATCH_SHAPE = (128, 128, 128)
DEFAULT_CHANNEL_SUFFIXES = tuple(f"_{name}" for name in CHANNEL_NAMES)


def _seq(value) -> bool:  # a JSON array, or a tuple from Python
    return isinstance(value, (list, tuple))


def _to_json(value):  # a stored field in its JSON form
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value.to_dict() if isinstance(value, AugmentSpec) else value


_DIR = Rule("a string or null", lambda v: v is None or isinstance(v, str))

CONFIG_FIELDS = {
    "seed": Rule("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "pipeline": Rule("a list of AugmentSpec objects",
                     lambda v: _seq(v) and all(isinstance(s, AugmentSpec) for s in v), tuple),
    "patch_shape": Rule("three whole numbers >= 1",
                        lambda v: _seq(v) and len(v) == 3 and all(whole(n) and n >= 1 for n in v),
                        lambda v: tuple(int(n) for n in v)),
    "channel_suffixes": Rule("unique strings",  # unique: no suffix may be a tail of another
                             lambda v: _seq(v) and v and all(isinstance(s, str) for s in v), tuple),
    "label_suffix": Rule("a nonempty string", lambda v: isinstance(v, str) and v != ""),
    "input_dir": _DIR,
    "output_dir": _DIR,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to rerun an augmentation batch deterministically.

    ``input_dir``/``output_dir`` are optional here because the command line
    can supply them; when both are present the command-line flags win.
    """

    seed: int
    pipeline: tuple[AugmentSpec, ...] = ()
    patch_shape: tuple[int, int, int] = DEFAULT_PATCH_SHAPE
    channel_suffixes: tuple[str, ...] = DEFAULT_CHANNEL_SUFFIXES
    label_suffix: str = DEFAULT_LABEL_SUFFIX
    input_dir: str | None = None
    output_dir: str | None = None

    def __post_init__(self):
        check_fields(self, CONFIG_FIELDS)
        sfx = (*self.channel_suffixes, self.label_suffix)
        tails = [(a, b) for i, a in enumerate(sfx) for b in sfx[:i] + sfx[i + 1:] if b.endswith(a)]
        if tails:
            raise ValueError("channel_suffixes and label_suffix must be nonempty and none a string "
                             f"tail of another, got {tails[0][0]!r}, a tail of {tails[0][1]!r}")

    def to_pipeline(self) -> AugmentPipeline:
        return AugmentPipeline(specs=self.pipeline)

    def to_dict(self) -> dict:
        return {name: _to_json(getattr(self, name)) for name in CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        kwargs = from_json(cls, d, "config", ("seed",))
        if _seq(specs := kwargs.get("pipeline")) and all(isinstance(s, dict) for s in specs):
            kwargs["pipeline"] = [AugmentSpec.from_dict(s) for s in specs]
        return cls(**kwargs)


def load_config(path) -> PipelineConfig:
    try:
        return PipelineConfig.from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_config(cfg: PipelineConfig, path) -> None:
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode())
