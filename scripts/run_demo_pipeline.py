#!/usr/bin/env python3
"""Run the full toolchain on synthetic data: generate a phantom cohort,
augment it, score two toy "models" (the reference labels themselves vs. a
one-voxel dilation), then compare and rank them.

Everything is driven through the same entry points as the ``voxaug``
command line, so the artifacts in --out mirror what a real experiment
produces: NIfTI volumes, provenance JSON, metrics/ranks CSV.
"""

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from voxaug.augment import AugmentSpec
from voxaug.cli import main as voxaug_main
from voxaug.config import PipelineConfig, save_config
from voxaug.nifti import read_labels, write_volume
from voxaug.volume import LabelMap

FIVE_OPS = (
    AugmentSpec(kind="flip"),
    AugmentSpec(kind="rotation", max_deg=15.0),
    AugmentSpec(kind="scale", max_frac=0.10),
    AugmentSpec(kind="brightness"),
    AugmentSpec(kind="elastic", sigma=2.0),
)


def dilate(labels: np.ndarray) -> np.ndarray:
    """Each voxel's maximum over its 3x3x3 neighbourhood, edge values held
    beyond the grid (``scipy.ndimage.grey_dilation`` with ``size=(3, 3, 3)``)."""
    padded = np.pad(labels, 1, mode="edge")
    nx, ny, nz = labels.shape
    out = labels.copy()
    for i, j, k in itertools.product(range(3), repeat=3):
        np.maximum(out, padded[i : i + nx, j : j + ny, k : k + nz], out=out)
    return out


def cli(*argv: str) -> None:
    code = voxaug_main(list(argv))
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=10, help="number of phantom subjects")
    parser.add_argument("--shape", default="40,40,40", help="phantom volume shape X,Y,Z")
    parser.add_argument("--patch", type=int, default=32, help="cubic patch edge length")
    args = parser.parse_args()

    out = Path(args.out)
    subjects, aug, dilated = out / "subjects", out / "augmented", out / "dilated"
    out.mkdir(parents=True, exist_ok=True)

    cli("phantom", "--seed", str(args.seed), "--count", str(args.count),
        "--shape", args.shape, "--out", str(subjects))

    cfg = PipelineConfig(
        seed=args.seed + 1,
        pipeline=FIVE_OPS,
        patch_shape=(args.patch, args.patch, args.patch),
    )
    cfg_path = out / "pipeline.json"
    save_config(cfg, cfg_path)
    cli("augment", "--config", str(cfg_path), "--in", str(subjects), "--out", str(aug))

    dilated.mkdir(exist_ok=True)
    for seg in sorted(aug.glob("*_seg.nii.gz")):
        lab = read_labels(seg)
        grown = dilate(lab.data)
        write_volume(LabelMap(grown, spacing=lab.spacing, convention="raw"), dilated / seg.name)

    metrics = out / "metrics.csv"
    cli("evaluate", "--pred", str(aug), "--truth", str(aug),
        "--model-id", "truth", "--out", str(metrics))
    cli("evaluate", "--pred", str(dilated), "--truth", str(aug),
        "--model-id", "dilated", "--out", str(metrics), "--append")

    cli("compare", "--metrics", str(metrics), "--model-a", "truth", "--model-b", "dilated",
        "--metric", "dice", "--region", "WT", "--exhaustive")
    cli("rank", "--metrics", str(metrics), "--out", str(out / "ranks.csv"))

    print(f"\nartifacts under {out}/:")
    for p in ("subjects/", "augmented/", "dilated/", "pipeline.json", "metrics.csv", "ranks.csv"):
        print(f"  {p}")


if __name__ == "__main__":
    main()
