"""JSON experiment configuration for the augmentation pipeline."""

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .augment import AugmentPipeline, AugmentSpec, whole_number
from .nifti import atomic_write_bytes
from .volume import CHANNEL_NAMES

DEFAULT_PATCH_SHAPE = (128, 128, 128)
DEFAULT_CHANNEL_SUFFIXES = tuple(f"_{name}" for name in CHANNEL_NAMES)
DEFAULT_LABEL_SUFFIX = "_seg"


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "pipeline", tuple(self.pipeline))
        for spec in self.pipeline:
            if not isinstance(spec, AugmentSpec):
                raise ValueError(f"pipeline entries must be AugmentSpec, got {spec!r}")
        ps = tuple(whole_number(v) for v in self.patch_shape)
        if len(ps) != 3 or any(v is None or v < 1 for v in ps):
            raise ValueError(f"patch_shape must be three whole numbers >= 1, got {self.patch_shape}")
        object.__setattr__(self, "patch_shape", ps)
        cs = tuple(str(s) for s in self.channel_suffixes)
        if len(cs) == 0 or len(set(cs)) != len(cs):
            raise ValueError(f"channel_suffixes must be nonempty and unique, got {cs}")
        object.__setattr__(self, "channel_suffixes", cs)
        if not self.label_suffix or self.label_suffix in cs:
            raise ValueError(f"bad label_suffix {self.label_suffix!r}")

    def to_pipeline(self) -> AugmentPipeline:
        return AugmentPipeline(specs=self.pipeline)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "pipeline": [s.to_dict() for s in self.pipeline],
            "patch_shape": list(self.patch_shape),
            "channel_suffixes": list(self.channel_suffixes),
            "label_suffix": self.label_suffix,
            "input_dir": self.input_dir,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "seed" not in d:
            raise ValueError("config is missing required field 'seed'")
        kwargs = dict(d)
        kwargs["pipeline"] = tuple(
            AugmentSpec.from_dict(s) for s in d.get("pipeline", ())
        )
        return cls(**kwargs)


def load_config(path) -> PipelineConfig:
    text = Path(path).read_text()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    try:
        return PipelineConfig.from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_config(cfg: PipelineConfig, path) -> None:
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode())
