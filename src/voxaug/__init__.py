"""voxaug: deterministic 3-D augmentation and segmentation evaluation.

A small research toolkit for volumetric (multi-channel MRI-style) data:
five stochastic augmentation operators with full provenance capture,
BraTS-style region metrics (Dice, HD95 with sentinel rules), generalized
Dice loss, softmax ensembling, a paired sign-flipping permutation test
with Bonferroni correction, and tie-handled rank aggregation — all rerunnable
bit-for-bit from a single seed.

The package namespace holds the documented library API; everything else is
imported from its submodule (``voxaug.augment``, ``voxaug.metrics``, ...).
The namespace is lazy (PEP 562): ``import voxaug`` loads no submodule and no
numpy, and each name imports its submodule on first use, so a command that
needs one module loads only what that module imports.
"""

import importlib

__version__ = "0.1.0"

# each documented name -> the submodule that defines it
_API = {
    "AugmentPipeline": "augment",
    "AugmentSpec": "augment",
    "LabelMap": "volume",
    "MetricRecord": "common",
    "ProvenanceRecord": "augment",
    "RandomStream": "rng",
    "Sample": "volume",
    "Volume": "volume",
    "apply_pipeline": "augment",
    "evaluate_sample": "metrics",
    "make_phantom": "volume",
}

__all__ = sorted(_API)


def __getattr__(name):
    if name not in _API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_API[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
