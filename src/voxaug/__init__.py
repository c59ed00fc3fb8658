"""voxaug: deterministic 3-D augmentation and segmentation evaluation.

A small research toolkit for volumetric (multi-channel MRI-style) data:
five stochastic augmentation operators with full provenance capture,
BraTS-style region metrics (Dice, HD95 with sentinel rules), generalized
Dice loss, softmax ensembling, a paired sign-flipping permutation test
with Bonferroni correction, and tie-handled rank aggregation — all rerunnable
bit-for-bit from a single seed.

The package namespace holds the documented library API; everything else is
imported from its submodule (``voxaug.augment``, ``voxaug.metrics``, ...).
"""

from .augment import AugmentPipeline, AugmentSpec, ProvenanceRecord, apply_pipeline
from .metrics import MetricRecord, evaluate_sample
from .rng import RandomStream
from .volume import LabelMap, Sample, Volume, make_phantom

__version__ = "0.1.0"

__all__ = [
    "AugmentPipeline",
    "AugmentSpec",
    "LabelMap",
    "MetricRecord",
    "ProvenanceRecord",
    "RandomStream",
    "Sample",
    "Volume",
    "apply_pipeline",
    "evaluate_sample",
    "make_phantom",
]
