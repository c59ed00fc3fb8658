"""The benchmark's traced run reads each per-layer metric from spans around
functions it looks up by name (``perfbench/tracing.py``). A function renamed
or deleted under ``src/`` silently turns its metrics absent, and
``perfbench/run.py --smoke`` accepts absent metrics. This guard does not."""

import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_has_a_function_to_trace():
    tracing = _tracing()
    with tracing.Tracer() as tracer:
        pass
    absent = sorted(
        metric for metric, (_, names) in tracing._SOURCES.items()
        if all(name in tracer.missing for name in names)
    )
    assert absent == []
    # the metrics computed outside _SOURCES
    assert {"metrics.hausdorff95", "volume.make_phantom", "cli.batch"}.isdisjoint(tracer.missing)


def test_traced_all_five_pipeline_reads_position_building_time():
    """A resampler renamed under ``src/`` would leave ``interp.coords_s`` at 0
    on a run where every geometric op fires; the traced name must keep
    covering the positions that ``interp.warp`` builds."""
    from voxaug.augment import KINDS, AugmentPipeline, AugmentSpec, apply_pipeline
    from voxaug.rng import RandomStream
    from voxaug.volume import make_phantom

    tracing = _tracing()
    sample = make_phantom(0, (24, 22, 20))
    menu = {"rotation": {"max_deg": 15.0}, "scale": {"max_frac": 0.1}, "elastic": {"sigma": 2.0}}
    pipeline = AugmentPipeline(
        tuple(AugmentSpec(kind, probability=1.0, **menu.get(kind, {})) for kind in KINDS)
    )
    with tracing.Tracer() as tracer:
        _, prov = apply_pipeline(sample, pipeline, RandomStream(0, ("trace",)))
    assert all(r.fired for r in prov.records)
    assert tracing.layer_metrics(tracer, threads=1)["interp.coords_s"] > 0


def test_traced_augment_writes_the_untraced_bytes_and_reads_every_metric(tmp_path, monkeypatch):
    """The benchmark's traced run replays ``voxaug.cli.main`` in-process with
    the reads, the writes and the pipeline functions wrapped by name, and
    reads their arguments and results. A changed call shape (a write that no
    longer receives a Volume, a read that returns something else) would
    break that run or zero its metrics; here it fails before the benchmark
    runs."""
    from voxaug.cli import main

    tracing = _tracing()
    monkeypatch.setenv("VOXAUG_THREADS", "2")
    cohort = tmp_path / "in"
    assert main(["phantom", "--seed", "0", "--count", "2", "--shape", "24,22,20",
                 "--out", str(cohort)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "patch_shape": [16, 16, 12], "pipeline": [
        {"kind": "flip", "probability": 1.0},
        {"kind": "rotation", "probability": 1.0, "max_deg": 15.0},
        {"kind": "brightness", "probability": 1.0},
    ]}))

    def augment(out):
        return main(["augment", "--config", str(cfg), "--in", str(cohort),
                     "--out", str(tmp_path / out)])

    def files(out):
        return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}

    assert augment("plain") == 0
    with tracing.Tracer() as tracer:
        code = augment("traced")
    assert code == 0
    assert files("traced") == files("plain")
    metrics = tracing.layer_metrics(tracer, threads=2)
    assert [m for m in tracing._SOURCES if metrics[m] is None] == []
    assert metrics["nifti.read_mb"] > 0
    assert metrics["nifti.write_mb"] > 0
    assert metrics["nifti.write_calls"] == 10
    assert metrics["interp.coords_s"] > 0
