"""The documented five-op demo, scripts/run_demo_pipeline.py, runs end to end."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import grey_dilation

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "run_demo_pipeline.py"


def test_demo_pipeline_runs(tmp_path):
    out = tmp_path / "demo"
    proc = subprocess.run(
        [sys.executable, str(DEMO), "--count", "3", "--shape", "24,24,24",
         "--patch", "16", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").is_file()
    assert (out / "ranks.csv").is_file()
    assert len(list((out / "augmented").glob("*_provenance.json"))) == 3


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2, 3), (5, 4, 3), (16, 17, 18)], ids=str)
def test_demo_dilation_gives_grey_dilations_bytes(shape):
    """The demo's numpy dilation is ``scipy.ndimage.grey_dilation`` with
    ``size=(3, 3, 3)``, which holds edge values beyond the grid."""
    spec = importlib.util.spec_from_file_location("run_demo_pipeline", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    rng = np.random.default_rng(list(shape))
    for labels in (rng.choice(np.array([0, 1, 2, 4], np.uint8), shape, p=[0.7, 0.1, 0.1, 0.1]),
                   rng.integers(0, 256, shape, dtype=np.uint8)):
        assert demo.dilate(labels).tobytes() == grey_dilation(labels, size=(3, 3, 3)).tobytes()
