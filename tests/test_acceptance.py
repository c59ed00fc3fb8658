"""Acceptance gate: ten numbered end-to-end checks at pinned tolerances.

Each test is one criterion; the conftest hook prints a per-criterion
PASS/FAIL summary at the end of the session. Tolerances and runtimes are
part of the contract - do not loosen them to make a failure go away.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import grey_dilation

from oracles import oracle_hd95, oracle_surface, random_blob
from voxaug.augment import (
    AugmentPipeline,
    AugmentSpec,
    apply_pipeline,
    brightness_by,
    elastic_by,
    rotate_by,
    scale_by,
)
from voxaug.cli import main
from voxaug.config import PipelineConfig, save_config
from voxaug.metrics import (
    MetricRecord,
    RegionMask,
    dice,
    generalized_dice_loss,
    hausdorff95,
)
from voxaug.nifti import read_labels, write_volume
from voxaug.rng import RandomStream
from voxaug.stats import rank_models, sign_flip_test, sign_flip_test_exact
from voxaug.tables import read_metrics
from voxaug.volume import LabelMap, ProbabilityVolume, Sample, Volume, make_phantom

_FIVE_OPS = (
    AugmentSpec(kind="flip"),
    AugmentSpec(kind="rotation", max_deg=15.0),
    AugmentSpec(kind="scale", max_frac=0.10),
    AugmentSpec(kind="brightness"),
    AugmentSpec(kind="elastic", sigma=2.0),
)


def test_c01_permutation_oracle_equivalence():
    """Exhaustive Monte-Carlo mode equals the exact path bit for bit."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for trial in range(50):
        n = int(rng.integers(1, 13))
        if trial % 3 == 0:
            d = rng.integers(-5, 6, n).astype(float)
        elif trial % 3 == 1:
            d = rng.normal(size=n)
        else:
            d = rng.integers(-16, 17, n) / 8.0
        mc = sign_flip_test(d, n_flips=2**n, exhaustive=True)
        ex = sign_flip_test_exact(d)
        assert mc.p_raw == ex.p_raw
        assert mc.observed_stat == ex.observed_stat
        assert mc.n_flips == ex.n_flips == 2**n
    assert time.perf_counter() - start < 5.0


def test_c02_adjusted_p_floor():
    """Smallest attainable p over 100k flips, corrected for 36 tests."""
    res = sign_flip_test(np.ones(40), n_flips=100000, seed=0, bonferroni_m=36)
    assert res.p_raw == 1.0 / 100000.0
    assert res.p_adjusted == 0.00036


def test_c03_empty_region_sentinels():
    ball = np.zeros((9, 9, 9), dtype=bool)
    ball[3:6, 3:6, 3:6] = True
    some = RegionMask("ET", ball, (1.0, 1.0, 1.0))
    empty = RegionMask("ET", np.zeros((9, 9, 9), dtype=bool), (1.0, 1.0, 1.0))
    assert dice(some, empty) == 0.0
    assert dice(empty, some) == 0.0
    assert hausdorff95(some, empty) == 373.0
    assert hausdorff95(empty, some) == 373.0
    assert dice(empty, empty) == 1.0
    assert hausdorff95(empty, empty) == 0.0


def test_c04_hd95_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    spacings = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.5), (0.7, 1.3, 2.0)]
    for trial in range(100):
        shape = tuple(int(v) for v in rng.integers(8, 25, 3))
        spacing = spacings[trial % 3]
        a, b = random_blob(rng, shape), random_blob(rng, shape)
        assert len(oracle_surface(a)) <= 1000 and len(oracle_surface(b)) <= 1000
        got = hausdorff95(RegionMask("WT", a, spacing), RegionMask("WT", b, spacing))
        assert abs(got - oracle_hd95(a, b, spacing)) <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_c05_augmentation_identities():
    sample = make_phantom(0, (32, 32, 32), "accept")
    identities = [
        rotate_by(sample, (0.0, 0.0, 0.0)),
        scale_by(sample, (1.0, 1.0, 1.0)),
        brightness_by(sample, 1.0, 1.0),
        elastic_by(sample, np.zeros((4, 4, 4, 3))),
    ]
    for out in identities:
        for got, ref in zip(out.channels, sample.channels):
            np.testing.assert_array_equal(got.data, ref.data)
        np.testing.assert_array_equal(out.labels.data, sample.labels.data)

    rot = rotate_by(sample, (0.0, 0.0, 90.0))
    for got, ref in zip(rot.channels, sample.channels):
        np.testing.assert_array_equal(got.data, np.rot90(ref.data, 1, axes=(0, 1)))
    np.testing.assert_array_equal(rot.labels.data, np.rot90(sample.labels.data, 1, axes=(0, 1)))


def test_c06_pipeline_untouched_fractions():
    vol = Volume(np.linspace(0.0, 1.0, 512, dtype=np.float32).reshape(8, 8, 8))
    sample = Sample(channels=(vol,), subject_id="tiny")
    for k in range(1, 6):
        pipeline = AugmentPipeline(tuple(AugmentSpec(kind="flip") for _ in range(k)))
        untouched = 0
        for i in range(10000):
            out, _ = apply_pipeline(sample, pipeline, RandomStream(99, ("comp", k, i)))
            untouched += out is sample
        assert abs(untouched / 10000 - 0.5**k) < 0.015, f"k={k}: {untouched / 10000}"


def test_c07_generalized_dice_loss_cases():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 3, (5, 5, 5))
    onehot = np.eye(3)[labels.ravel()].reshape(5, 5, 5, 3)
    perfect = ProbabilityVolume(onehot)
    assert generalized_dice_loss(perfect, perfect) <= 1e-5

    wrong = ProbabilityVolume(np.eye(3)[(labels.ravel() + 1) % 3].reshape(5, 5, 5, 3))
    assert generalized_dice_loss(wrong, perfect) >= 1 - 1e-5

    truth = ProbabilityVolume(np.array([[[[1.0, 0.0]]], [[[0.0, 1.0]]]]))
    uniform = ProbabilityVolume(np.full((2, 1, 1, 2), 0.5))
    assert generalized_dice_loss(uniform, truth) == pytest.approx(0.5, abs=1e-6)


def test_c08_augment_determinism_across_thread_counts(tmp_path, monkeypatch):
    subjects = tmp_path / "subjects"
    assert main(["phantom", "--seed", "42", "--count", "10", "--shape", "24,24,24",
                 "--out", str(subjects)]) == 0
    cfg = PipelineConfig(seed=1234, pipeline=_FIVE_OPS, patch_shape=(16, 16, 16))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)

    outs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"aug-t{threads}"
        monkeypatch.setenv("VOXAUG_THREADS", threads)
        assert main(["augment", "--config", str(cfg_path), "--in", str(subjects),
                     "--out", str(out)]) == 0
        outs[threads] = out

    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["4"].iterdir())
    assert sum(n.endswith("_provenance.json") for n in names) == 10
    assert sum(n.endswith(".nii.gz") for n in names) == 50
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["4"] / name).read_bytes(), name


def _rank_table(values):
    rows = []
    for subject in ("s1", "s2"):
        for model, (d, h) in values.items():
            for region in ("ET", "TC", "WT"):
                rows.append(MetricRecord(subject, model, region, d, h))
    return rows


def test_c09_rank_aggregation_fixtures():
    tied = rank_models(_rank_table({"A": (0.7, 3.0), "B": (0.7, 3.0), "C": (0.7, 3.0)}))
    assert [e.rank_score for e in tied] == [2.0, 2.0, 2.0]

    dominated = rank_models(
        _rank_table({"A": (0.95, 1.0), "B": (0.6, 5.0), "C": (0.4, 9.0)})
    )
    scores = {e.model_id: e.rank_score for e in dominated}
    assert scores["A"] == 1.0
    assert scores["B"] == 2.0 and scores["C"] == 3.0


def test_c10_end_to_end_smoke(tmp_path):
    start = time.perf_counter()

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "voxaug", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, f"voxaug {argv[0]} failed: {proc.stderr}"
        return proc.stdout

    subjects, aug, dilated = Path("subjects"), Path("aug"), Path("dilated")
    cli("phantom", "--seed", "0", "--count", "10", "--shape", "40,40,40", "--out", str(subjects))

    cfg = PipelineConfig(seed=7, pipeline=_FIVE_OPS, patch_shape=(32, 32, 32))
    save_config(cfg, tmp_path / "cfg.json")
    cli("augment", "--config", "cfg.json", "--in", str(subjects), "--out", str(aug))

    # second synthetic "model": grow every augmented label map by one voxel
    (tmp_path / dilated).mkdir()
    for seg in sorted((tmp_path / aug).glob("*_seg.nii.gz")):
        lab = read_labels(seg)
        grown = grey_dilation(lab.data, size=(3, 3, 3))
        write_volume(
            LabelMap(grown, spacing=lab.spacing, convention="raw"),
            tmp_path / dilated / seg.name,
        )

    cli("evaluate", "--pred", str(aug), "--truth", str(aug),
        "--model-id", "truth", "--out", "metrics.csv")
    cli("evaluate", "--pred", str(dilated), "--truth", str(aug),
        "--model-id", "dilated", "--out", "metrics.csv", "--append")

    records = read_metrics(tmp_path / "metrics.csv")
    assert len(records) == 10 * 2 * 3
    assert {r.model_id for r in records} == {"truth", "dilated"}

    out = cli("compare", "--metrics", "metrics.csv", "--model-a", "truth",
              "--model-b", "dilated", "--metric", "dice", "--region", "WT", "--exhaustive")
    fields = dict(kv.split("=", 1) for kv in out.split())
    assert float(fields["p_raw"]) <= 0.05
    assert fields["n_flips"] == "1024"

    out = cli("rank", "--metrics", "metrics.csv", "--out", "ranks.csv")
    scores = dict(line.split("=") for line in out.splitlines())
    assert float(scores["truth"]) < float(scores["dilated"])
    rank_lines = (tmp_path / "ranks.csv").read_text().splitlines()
    assert rank_lines[0] == "model_id,rank_score"
    assert len(rank_lines) == 3

    assert time.perf_counter() - start < 120.0
