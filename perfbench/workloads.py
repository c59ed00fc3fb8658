"""Workload inputs, CLI command sequences and output checks.

Every workload starts from the same seeded phantom cohort written by
``voxaug phantom``. The benchmark's own code derives everything else (configs,
perturbed predictions) and checks every output with code that does not import
voxaug, so a wrong fast path in the program cannot also hide its own error.
"""

import csv
import gzip
import hashlib
import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

WORKLOADS = ("augment_geometric", "augment_io", "evaluate_campaign")

# (volume shape, patch shape): the full size is BraTS-shaped; the smoke size
# only exercises the code paths.
SIZES = {
    "full": ((240, 240, 155), (128, 128, 128)),
    "smoke": ((40, 40, 32), (24, 24, 24)),
}
# Two subjects keep both workers of a 2-core host busy; a bigger cohort makes
# the repeated set-up exceed the benchmark's time budget.
COHORT = 2
CHANNELS = ("_t1", "_t1ce", "_t2", "_flair")
LABEL_SUFFIX = "_seg"
RAW_LABELS = (0, 1, 2, 4)
MODELS = ("reference", "dilated", "eroded")
REGIONS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}
HD95_SENTINEL_MM = 373.0
HD95_TOLERANCE_MM = 1e-6
HD95_CHECKS = 4
FLIPS = 100000
COMPARE_CELLS = tuple((metric, region) for metric in ("dice", "hd95") for region in ("WT", "TC", "ET"))

_ALL_FIRE = {
    "flip": {"kind": "flip", "probability": 1.0},
    "rotation": {"kind": "rotation", "probability": 1.0, "max_deg": 30.0},
    "scale": {"kind": "scale", "probability": 1.0, "max_frac": 0.1},
    "brightness": {"kind": "brightness", "probability": 1.0},
    "elastic": {"kind": "elastic", "probability": 1.0, "sigma": 2.0, "grid_size": 4},
}
PIPELINES = {
    "augment_geometric": ("flip", "rotation", "scale", "brightness", "elastic"),
    "augment_io": ("flip", "brightness"),
}


class CheckError(Exception):
    """An output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Step:
    """One CLI process of a workload's sequence, run inside an iteration directory.

    ``outputs`` are the paths (files or directories, relative to the iteration
    directory) whose bytes belong to this step's digest, read right after it.
    """

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


# NIfTI, read and written without voxaug ----------------------------------

def read_nifti(path: Path) -> tuple[bytes, np.ndarray, tuple[float, float, float]]:
    """(header bytes up to the data, data indexed [x, y, z], spacing) of a .nii.gz file."""
    blob = gzip.decompress(Path(path).read_bytes())
    if len(blob) < 352 or struct.unpack_from("<i", blob, 0)[0] != 348:
        raise CheckError(f"{path}: not a little-endian NIfTI-1 file")
    shape = struct.unpack_from("<3h", blob, 42)
    datatype = struct.unpack_from("<h", blob, 70)[0]
    spacing = struct.unpack_from("<3f", blob, 80)
    offset = int(struct.unpack_from("<f", blob, 108)[0])
    dtype = {2: np.dtype("u1"), 16: np.dtype("<f4")}.get(datatype)
    if dtype is None:
        raise CheckError(f"{path}: unexpected datatype code {datatype}")
    count = math.prod(shape)
    if len(blob) < offset + count * dtype.itemsize:
        raise CheckError(f"{path}: truncated data")
    data = np.frombuffer(blob, dtype, count=count, offset=offset).reshape(shape, order="F")
    return blob[:offset], data, tuple(float(s) for s in spacing)


def write_labels_like(header: bytes, labels: np.ndarray, path: Path) -> None:
    body = header + np.ascontiguousarray(labels, dtype="u1").ravel(order="F").tobytes()
    Path(path).write_bytes(gzip.compress(body, mtime=0))


# inputs -----------------------------------------------------------------

def cohort_ids() -> list[str]:
    return [f"phantom{i:03d}" for i in range(COHORT)]


def phantom_argv(seed: int, size: str, out: str) -> list[str]:
    shape = SIZES[size][0]
    return ["phantom", "--seed", str(seed), "--count", str(COHORT),
            "--shape", ",".join(map(str, shape)), "--out", out]


def _compose(wt: np.ndarray, tc: np.ndarray, et: np.ndarray) -> np.ndarray:
    out = np.zeros(wt.shape, dtype=np.uint8)
    out[wt] = 2
    out[tc] = 1
    out[et] = 4
    return out


def derive_predictions(inputs: Path, seed: int) -> None:
    """Write three models' predicted label maps from the cohort's truth.

    ``reference`` is a byte copy of the truth; ``dilated`` and ``eroded`` grow
    or shrink each region by a seeded number of voxels, and ``eroded`` drops
    ET on a seeded half of the subjects so the empty-region sentinels run.
    """
    rng = np.random.default_rng([seed, 7])
    ids = cohort_ids()
    drop_et = set(rng.choice(len(ids), size=max(1, len(ids) // 2), replace=False).tolist())
    for model in MODELS:
        (inputs / f"pred_{model}").mkdir(parents=True)
    for i, sid in enumerate(ids):
        name = f"{sid}{LABEL_SUFFIX}.nii.gz"
        truth_path = inputs / "cohort" / name
        header, labels, _ = read_nifti(truth_path)
        (inputs / "pred_reference" / name).write_bytes(truth_path.read_bytes())
        regions = [np.isin(labels, REGIONS[r]) for r in ("WT", "TC", "ET")]
        dilated = [ndimage.binary_dilation(m, iterations=int(rng.integers(1, 4))) for m in regions]
        eroded = [ndimage.binary_erosion(m, iterations=int(rng.integers(1, 3))) for m in regions]
        if i in drop_et:
            eroded[2][:] = False
        write_labels_like(header, _compose(*dilated), inputs / "pred_dilated" / name)
        write_labels_like(header, _compose(*eroded), inputs / "pred_eroded" / name)


def write_config(workload: str, seed: int, size: str, inputs: Path) -> None:
    config = {
        "seed": seed,
        "patch_shape": list(SIZES[size][1]),
        "pipeline": [_ALL_FIRE[kind] for kind in PIPELINES[workload]],
    }
    (inputs / "augment.json").write_text(json.dumps(config, indent=2) + "\n")


def prepare(workload: str, seed: int, size: str, inputs: Path) -> None:
    """Everything after the phantom cohort: a config or derived predictions."""
    if workload == "evaluate_campaign":
        derive_predictions(inputs, seed)
    else:
        write_config(workload, seed, size, inputs)


# command sequences ------------------------------------------------------

def steps(workload: str, seed: int) -> list[Step]:
    """The workload's CLI processes, in order, with paths relative to an
    iteration directory that sits next to ``inputs``."""
    if workload in PIPELINES:
        return [Step(("augment", "--config", "../inputs/augment.json",
                      "--in", "../inputs/cohort", "--out", "out"), ("out",))]
    seq = [
        Step(("evaluate", "--pred", f"../inputs/pred_{model}", "--truth", "../inputs/cohort",
              "--model-id", model, "--out", "metrics.csv", "--append"), ("metrics.csv",))
        for model in MODELS
    ]
    seq += [
        Step(("compare", "--metrics", "metrics.csv", "--model-a", "dilated", "--model-b", "eroded",
              "--metric", metric, "--region", region, "--flips", str(FLIPS),
              "--bonferroni", str(len(COMPARE_CELLS)), "--seed", str(seed)))
        for metric, region in COMPARE_CELLS
    ]
    seq.append(Step(("rank", "--metrics", "metrics.csv", "--out", "ranks.csv"), ("ranks.csv",)))
    return seq


def step_digest(it_dir: Path, step: Step, stdout: str) -> str:
    """SHA-256 over the step's stdout and the bytes of its outputs."""
    h = hashlib.sha256(stdout.encode())
    for rel in step.outputs:
        root = it_dir / rel
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for p in files:
            h.update(str(p.relative_to(it_dir)).encode() + b"\0")
            h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


# checks -----------------------------------------------------------------

def check_augment(workload: str, size: str, it_dir: Path) -> None:
    patch = SIZES[size][1]
    out = it_dir / "out"
    ids = cohort_ids()
    expected = {f"{s}{suffix}.nii.gz" for s in ids for suffix in CHANNELS + (LABEL_SUFFIX,)}
    expected |= {f"{s}_provenance.json" for s in ids}
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != expected:
        raise CheckError(f"augment outputs: missing {sorted(expected - found)}, "
                         f"unexpected {sorted(found - expected)}")
    kinds = list(PIPELINES[workload])
    for sid in ids:
        for suffix in CHANNELS:
            _, data, _ = read_nifti(out / f"{sid}{suffix}.nii.gz")
            if data.shape != patch or data.dtype != np.float32 or not np.isfinite(data).all():
                raise CheckError(f"{sid}{suffix}: bad channel {data.shape} {data.dtype}")
        _, labels, _ = read_nifti(out / f"{sid}{LABEL_SUFFIX}.nii.gz")
        bad = np.setdiff1d(np.unique(labels), RAW_LABELS)
        if labels.shape != patch or bad.size:
            raise CheckError(f"{sid}{LABEL_SUFFIX}: shape {labels.shape}, labels outside "
                             f"{RAW_LABELS}: {bad.tolist()}")
        prov = json.loads((out / f"{sid}_provenance.json").read_text())
        records = prov.get("records", [])
        if prov.get("subject_id") != sid or [r.get("kind") for r in records] != kinds:
            raise CheckError(f"{sid}: provenance does not list {kinds}")
        if not all(r.get("fired") is True and r.get("probability") == 1.0 for r in records):
            raise CheckError(f"{sid}: an operator at probability 1.0 did not fire")


def read_metric_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        r["dice"], r["hd95_mm"] = float(r["dice"]), float(r["hd95_mm"])
    return rows


def check_model_rows(it_dir: Path, model: str) -> None:
    """The final table holds N x 3 finite rows for the model; the reference is perfect."""
    path = it_dir / "metrics.csv"
    if not path.exists():
        raise CheckError("metrics.csv missing")
    rows = read_metric_rows(path)
    if len(rows) != COHORT * len(MODELS) * len(REGIONS):
        raise CheckError(f"metrics.csv has {len(rows)} rows, expected "
                         f"{COHORT * len(MODELS) * len(REGIONS)}")
    mine = [r for r in rows if r["model_id"] == model]
    cells = {(r["subject_id"], r["region"]) for r in mine}
    if len(mine) != COHORT * len(REGIONS) or cells != {(s, g) for s in cohort_ids() for g in REGIONS}:
        raise CheckError(f"{model}: rows do not cover every (subject, region)")
    if not all(math.isfinite(r["dice"]) and math.isfinite(r["hd95_mm"]) for r in mine):
        raise CheckError(f"{model}: non-finite metric")
    if model == "reference" and any(r["dice"] != 1.0 or r["hd95_mm"] != 0.0 for r in mine):
        raise CheckError("reference model does not score Dice 1.0 and HD95 0.0")


def _surface(mask: np.ndarray) -> np.ndarray:
    # a mask voxel with a 6-connected non-mask neighbour; outside the array counts as non-mask
    return mask & ~ndimage.binary_erosion(mask, border_value=0)


def hd95_by_distance_transform(pred: np.ndarray, truth: np.ndarray, spacing) -> float:
    """Symmetric HD95 from Euclidean distance transforms of the other surface's complement."""
    if not pred.any() and not truth.any():
        return 0.0
    if not pred.any() or not truth.any():
        return HD95_SENTINEL_MM
    ps, ts = _surface(pred), _surface(truth)
    # every surface voxel lies in the box, so distances inside it are exact
    idx = np.argwhere(ps | ts)
    box = tuple(slice(lo, hi + 1) for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))
    ps, ts = ps[box], ts[box]
    to_truth = ndimage.distance_transform_edt(~ts, sampling=spacing)[ps]
    to_pred = ndimage.distance_transform_edt(~ps, sampling=spacing)[ts]
    return max(float(np.percentile(to_truth, 95.0)), float(np.percentile(to_pred, 95.0)))


def hd95_pairs(seed: int) -> list[tuple[str, str, str]]:
    """A seeded subset of (model, subject, region) cells to recompute."""
    cells = [(m, s, g) for m in ("dilated", "eroded") for s in cohort_ids() for g in REGIONS]
    rng = np.random.default_rng([seed, 11])
    pick = rng.choice(len(cells), size=min(HD95_CHECKS, len(cells)), replace=False)
    return [cells[i] for i in sorted(pick.tolist())]


def check_hd95(it_dir: Path, inputs: Path, seed: int, model: str) -> None:
    rows = {(r["model_id"], r["subject_id"], r["region"]): r["hd95_mm"]
            for r in read_metric_rows(it_dir / "metrics.csv")}
    for m, sid, region in hd95_pairs(seed):
        if m != model:
            continue
        name = f"{sid}{LABEL_SUFFIX}.nii.gz"
        _, truth, spacing = read_nifti(inputs / "cohort" / name)
        _, pred, _ = read_nifti(inputs / f"pred_{m}" / name)
        want = hd95_by_distance_transform(
            np.isin(pred, REGIONS[region]), np.isin(truth, REGIONS[region]), spacing)
        got = rows[(m, sid, region)]
        if abs(got - want) > HD95_TOLERANCE_MM:
            raise CheckError(f"HD95 {m}/{sid}/{region}: CLI {got!r}, distance transform {want!r}")


_COMPARE = re.compile(
    r"model_a=dilated model_b=eroded metric=(\w+) region=(\w+) n_subjects=(\d+) "
    r"observed_mean=(\S+) p_raw=(\S+) p_adjusted=(\S+) n_flips=(\d+) m=(\d+) seed=(-?\d+)"
)


def check_compare(stdout: str, step: Step) -> None:
    match = _COMPARE.fullmatch(stdout.strip())
    if not match:
        raise CheckError(f"compare stdout not understood: {stdout.strip()!r}")
    metric, region, n, _, p_raw, p_adj, flips, m, _ = match.groups()
    argv = dict(zip(step.argv[1::2], step.argv[2::2]))
    p_raw, p_adj = float(p_raw), float(p_adj)
    if (metric, region) != (argv["--metric"], argv["--region"]) or int(n) != COHORT:
        raise CheckError(f"compare reported the wrong cell or subject count: {stdout.strip()!r}")
    if int(flips) != FLIPS or int(m) != len(COMPARE_CELLS):
        raise CheckError(f"compare used the wrong flips or m: {stdout.strip()!r}")
    if not 0.0 < p_raw <= 1.0 or p_adj != min(1.0, int(m) * p_raw):
        raise CheckError(f"compare p-values inconsistent: {stdout.strip()!r}")


def check_rank(it_dir: Path) -> None:
    path = it_dir / "ranks.csv"
    if not path.exists():
        raise CheckError("ranks.csv missing")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    scores = {r["model_id"]: float(r["rank_score"]) for r in rows}
    if sorted(scores) != sorted(MODELS):
        raise CheckError(f"ranks.csv lists {sorted(scores)}")
    if scores["reference"] != min(scores.values()):
        raise CheckError(f"reference model is not ranked best: {scores}")


def check_step(workload: str, size: str, seed: int, step: Step,
               stdout: str, it_dir: Path) -> None:
    """Raise CheckError if this step's outputs (after the whole sequence) are wrong."""
    command = step.argv[0]
    if command == "augment":
        check_augment(workload, size, it_dir)
    elif command == "evaluate":
        model = step.argv[step.argv.index("--model-id") + 1]
        check_model_rows(it_dir, model)
        check_hd95(it_dir, it_dir.parent / "inputs", seed, model)
    elif command == "compare":
        check_compare(stdout, step)
    elif command == "rank":
        check_rank(it_dir)


def corrupt_one_label_map(it_dir: Path) -> None:
    """Write label 3, outside the raw alphabet, into one augmented label map."""
    path = sorted((it_dir / "out").glob(f"*{LABEL_SUFFIX}.nii.gz"))[0]
    header, labels, _ = read_nifti(path)
    bad = labels.copy()
    bad.flat[0] = 3
    write_labels_like(header, bad, path)
