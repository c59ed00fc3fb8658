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
