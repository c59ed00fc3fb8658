"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def test_self_time_subtracts_the_union_of_children_across_threads():
    tracer = tracing.Tracer()
    spans = [
        tracing.Span(0, "cli.batch", "sequence", 0.0, 1, None, end=10.0),
        tracing.Span(1, "cli.subject", "sequence", 1.0, 2, 0, end=6.0),
        tracing.Span(2, "cli.subject", "sequence", 4.0, 3, 0, end=8.0),
        tracing.Span(3, "interp.map_coordinates", "sequence", 2.0, 2, 1, end=3.0),
    ]
    tracer.spans = spans
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 4.0, 2: 4.0, 3: 1.0}
    metrics = tracing.layer_metrics(tracer, threads=2)
    assert metrics["cli.self_s"] == 11.0
    assert metrics["interp.sample_s"] == 1.0
    assert metrics["cli.worker_busy_frac"] == 9.0 / 20.0


def test_metrics_of_missing_functions_are_absent():
    tracer = tracing.Tracer()
    tracer.missing = {"interp.resample_affine", "interp.resample_labels_affine",
                      "interp.warp", "interp.warp_labels"}
    metrics = tracing.layer_metrics(tracer, threads=2)
    assert metrics["interp.coords_s"] is None
    assert metrics["interp.sample_s"] == 0


def test_smoke_mode_reports_every_metric_and_counts_a_corrupted_output():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
