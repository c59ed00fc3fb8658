"""The documented five-op demo, scripts/run_demo_pipeline.py, runs end to end."""

import subprocess
import sys
from pathlib import Path

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
