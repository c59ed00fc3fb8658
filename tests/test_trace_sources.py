"""The benchmark's traced run reads each per-layer metric from spans around
functions it looks up by name (``perfbench/tracing.py``). A function renamed
or deleted under ``src/`` silently turns its metrics absent, and
``perfbench/run.py --smoke`` accepts absent metrics. This guard does not."""

import importlib.util
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
