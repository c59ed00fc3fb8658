"""In-memory span recorder for the traced benchmark run.

The tracer replaces voxaug functions with timing wrappers at the place the
caller looks them up (``voxaug.cli.write_volume``, ``voxaug.interp.map_coordinates``,
...), so nothing under ``src/`` has to know about it. Each call records a span:
name, start, end, thread id and parent span. Spans stay in memory until the
run ends; :func:`layer_metrics` turns them into the per-layer numbers.

A wrapped function that no longer exists is recorded as missing; every metric
that depends only on missing functions is then reported as absent.
"""

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field

# The package's modules; a span's layer is the part of its name before the dot.
LAYERS = ("cli", "config", "nifti", "volume", "augment", "interp", "metrics", "stats", "tables")

# (module, attribute, span name): each attribute is patched on the module its
# caller reads it from.
TARGETS = (
    ("voxaug.cli", "main", "cli.main"),
    ("voxaug.cli", "load_config", "config.load_config"),
    ("voxaug.cli", "read_volume", "nifti.read_volume"),
    ("voxaug.cli", "read_labels", "nifti.read_labels"),
    ("voxaug.cli", "write_volume", "nifti.write_volume"),
    ("voxaug.cli", "extract_center_patch", "volume.extract_center_patch"),
    ("voxaug.cli", "make_phantom", "volume.make_phantom"),
    ("voxaug.cli", "apply_pipeline", "augment.apply_pipeline"),
    ("voxaug.cli", "evaluate_sample", "metrics.evaluate_sample"),
    ("voxaug.cli", "sign_flip_test", "stats.sign_flip_test"),
    ("voxaug.cli", "rank_models", "stats.rank_models"),
    ("voxaug.cli", "read_metrics", "tables.read_metrics"),
    ("voxaug.cli", "write_metrics", "tables.write_metrics"),
    ("voxaug.cli", "write_ranks", "tables.write_ranks"),
    ("voxaug.augment", "flip_axis", "augment.flip_axis"),
    ("voxaug.augment", "rotate_by", "augment.rotate_by"),
    ("voxaug.augment", "scale_by", "augment.scale_by"),
    ("voxaug.augment", "brightness_by", "augment.brightness_by"),
    ("voxaug.augment", "elastic_by", "augment.elastic_by"),
    ("voxaug.interp", "resample_affine", "interp.resample_affine"),
    ("voxaug.interp", "resample_labels_affine", "interp.resample_labels_affine"),
    ("voxaug.interp", "warp", "interp.warp"),
    ("voxaug.interp", "warp_labels", "interp.warp_labels"),
    ("voxaug.interp", "bspline_upsample", "interp.bspline_upsample"),
    ("voxaug.interp", "map_coordinates", "interp.map_coordinates"),
    ("voxaug.metrics", "region_masks", "metrics.region_masks"),
    ("voxaug.metrics", "dice", "metrics.dice"),
    ("voxaug.metrics", "hausdorff95", "metrics.hausdorff95"),
    ("voxaug.metrics", "surface_voxels", "metrics.surface_voxels"),
)

MB = float(2**20)


def _data_mb(obj) -> float:
    return obj.data.nbytes / MB


def _count_attrs(name, args, kwargs, result) -> dict:
    """Work counts read from a call's inputs and result, outside its timing."""
    if name in ("nifti.read_volume", "nifti.read_labels"):
        return {"mb": _data_mb(result)}
    if name == "nifti.write_volume":
        return {"mb": _data_mb(args[0] if args else kwargs["obj"])}
    if name == "interp.map_coordinates":
        coords = args[1] if len(args) > 1 else kwargs["coordinates"]
        voxels = int(coords.size // coords.shape[0])
        return {"voxels": voxels, "coords_mb": 3 * voxels * 8 / MB}
    if name == "augment.apply_pipeline":
        return {"fired": sum(1 for r in result[1].records if r.fired)}
    if name == "metrics.surface_voxels":
        return {"points": int(result.shape[0])}
    if name == "metrics.hausdorff95":
        pred, truth = args[0], args[1]
        return {"sentinel": int(not (pred.mask.any() and truth.mask.any()))}
    if name == "stats.sign_flip_test":
        return {"flips": int(result.n_flips)}
    if name == "tables.read_metrics":
        return {"rows": len(result)}
    if name in ("tables.write_metrics", "tables.write_ranks"):
        return {"rows": len(args[0])}
    return {}


@dataclass
class Span:
    sid: int
    name: str
    phase: str
    start: float
    tid: int
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls into voxaug while installed.

    Use as a context manager: entering patches every target that exists,
    leaving restores the originals. ``phase`` labels the spans recorded next
    (the benchmark separates input set-up from the measured sequence).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.phase = "sequence"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(len(self.spans), name, self.phase, 0.0, threading.get_ident(), parent)
            self.spans.append(span)
        stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs.update(_count_attrs(name, args, kwargs, result))
            return result

        return wrapper

    def _wrap_map_subjects(self, fn):
        """Batch span around the worker pool, one subject span per task."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task, subjects, *args, **kwargs):
            batch = tracer.open("cli.batch")

            def traced_task(subject):
                span = tracer.open("cli.subject", parent=batch.sid)
                try:
                    return task(subject)
                finally:
                    tracer.close(span)

            try:
                return fn(traced_task, subjects, *args, **kwargs)
            finally:
                tracer.close(batch)

        return wrapper

    # installation -----------------------------------------------------

    def __enter__(self):
        for module_name, attr, name in TARGETS + (("voxaug.cli", "_map_subjects", "cli.batch"),):
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            if attr == "_map_subjects":
                wrapped = self._wrap_map_subjects(original)
            else:
                wrapped = self._wrap(name, original)
            setattr(module, attr, wrapped)
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.sid, "name": s.name, "phase": s.phase, "start": s.start,
                    "end": s.end, "thread": s.tid, "parent": s.parent, **s.attrs,
                }) + "\n")


# analysis -------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may run on other threads (subject tasks under a batch), so the
    covered part is the union of the children's intervals clipped to the span.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("cli.startup_s", "s", "lower"),
    ("cli.processes", "count", "lower"),
    ("cli.worker_busy_frac", "ratio", "higher"),
    ("config.load_s", "s", "lower"),
    ("nifti.read_calls", "count", "lower"),
    ("nifti.read_s", "s", "lower"),
    ("nifti.read_mb", "MB", "lower"),
    ("nifti.write_calls", "count", "lower"),
    ("nifti.write_s", "s", "lower"),
    ("nifti.write_mb", "MB", "lower"),
    ("volume.crop_s", "s", "lower"),
    ("volume.phantom_s", "s", "lower"),
    ("augment.pipeline_s", "s", "lower"),
    ("augment.flip_s", "s", "lower"),
    ("augment.rotation_s", "s", "lower"),
    ("augment.scale_s", "s", "lower"),
    ("augment.brightness_s", "s", "lower"),
    ("augment.elastic_s", "s", "lower"),
    ("augment.ops_fired", "count", "lower"),
    ("interp.coords_s", "s", "lower"),
    ("interp.sample_s", "s", "lower"),
    ("interp.sample_calls", "count", "lower"),
    ("interp.voxels_sampled", "count", "lower"),
    ("interp.coords_mb", "MB", "lower"),
    ("interp.bspline_s", "s", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.region_masks_s", "s", "lower"),
    ("metrics.dice_s", "s", "lower"),
    ("metrics.hd95_s", "s", "lower"),
    ("metrics.surface_s", "s", "lower"),
    ("metrics.surface_points", "count", "lower"),
    ("metrics.sentinel_ratio", "ratio", "lower"),
    ("stats.sign_flip_s", "s", "lower"),
    ("stats.flips", "count", "lower"),
    ("stats.rank_s", "s", "lower"),
    ("tables.read_s", "s", "lower"),
    ("tables.write_s", "s", "lower"),
    ("tables.rows", "count", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.overhead_s", "s", "lower"),
)

# metric -> (aggregate, span names): "time" sums durations, "self" sums self
# times, "calls" counts spans, anything else sums that span attribute.
_SOURCES = {
    "config.load_s": ("time", ("config.load_config",)),
    "nifti.read_calls": ("calls", ("nifti.read_volume", "nifti.read_labels")),
    "nifti.read_s": ("time", ("nifti.read_volume", "nifti.read_labels")),
    "nifti.read_mb": ("mb", ("nifti.read_volume", "nifti.read_labels")),
    "nifti.write_calls": ("calls", ("nifti.write_volume",)),
    "nifti.write_s": ("time", ("nifti.write_volume",)),
    "nifti.write_mb": ("mb", ("nifti.write_volume",)),
    "volume.crop_s": ("time", ("volume.extract_center_patch",)),
    "augment.pipeline_s": ("time", ("augment.apply_pipeline",)),
    "augment.flip_s": ("time", ("augment.flip_axis",)),
    "augment.rotation_s": ("time", ("augment.rotate_by",)),
    "augment.scale_s": ("time", ("augment.scale_by",)),
    "augment.brightness_s": ("time", ("augment.brightness_by",)),
    "augment.elastic_s": ("time", ("augment.elastic_by",)),
    "augment.ops_fired": ("fired", ("augment.apply_pipeline",)),
    "interp.coords_s": ("self", (
        "interp.resample_affine", "interp.resample_labels_affine",
        "interp.warp", "interp.warp_labels",
    )),
    "interp.sample_s": ("time", ("interp.map_coordinates",)),
    "interp.sample_calls": ("calls", ("interp.map_coordinates",)),
    "interp.voxels_sampled": ("voxels", ("interp.map_coordinates",)),
    "interp.coords_mb": ("coords_mb", ("interp.map_coordinates",)),
    "interp.bspline_s": ("time", ("interp.bspline_upsample",)),
    "metrics.evaluate_s": ("time", ("metrics.evaluate_sample",)),
    "metrics.region_masks_s": ("time", ("metrics.region_masks",)),
    "metrics.dice_s": ("time", ("metrics.dice",)),
    "metrics.hd95_s": ("time", ("metrics.hausdorff95",)),
    "metrics.surface_s": ("time", ("metrics.surface_voxels",)),
    "metrics.surface_points": ("points", ("metrics.surface_voxels",)),
    "stats.sign_flip_s": ("time", ("stats.sign_flip_test",)),
    "stats.flips": ("flips", ("stats.sign_flip_test",)),
    "stats.rank_s": ("time", ("stats.rank_models",)),
    "tables.read_s": ("time", ("tables.read_metrics",)),
    "tables.write_s": ("time", ("tables.write_metrics", "tables.write_ranks")),
    "tables.rows": ("rows", ("tables.read_metrics", "tables.write_metrics", "tables.write_ranks")),
}


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float | None]:
    """Per-layer numbers from the spans; None marks a metric as absent.

    Everything is computed over the measured sequence, except
    ``volume.phantom_s``, which times the input set-up. Times are busy
    seconds summed across threads.
    """
    spans = [s for s in tracer.spans if s.phase == "sequence"]
    selfs = self_times(tracer.spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    out: dict[str, float | None] = {}
    for metric, (agg, names) in _SOURCES.items():
        if all(n in tracer.missing for n in names):
            out[metric] = None
            continue
        chosen = [s for n in names for s in by_name.get(n, ())]
        if agg == "time":
            out[metric] = sum(s.duration for s in chosen)
        elif agg == "self":
            out[metric] = sum(selfs[s.sid] for s in chosen)
        elif agg == "calls":
            out[metric] = len(chosen)
        else:
            out[metric] = sum(s.attrs.get(agg, 0) for s in chosen)

    hd95 = by_name.get("metrics.hausdorff95", [])
    out["metrics.sentinel_ratio"] = (
        None if "metrics.hausdorff95" in tracer.missing
        else sum(s.attrs["sentinel"] for s in hd95) / len(hd95) if hd95 else 0.0
    )
    out["volume.phantom_s"] = (
        None if "volume.make_phantom" in tracer.missing
        else sum(s.duration for s in tracer.spans
                 if s.phase == "setup" and s.name == "volume.make_phantom")
    )
    batches = by_name.get("cli.batch", [])
    out["cli.worker_busy_frac"] = (
        None if "cli.batch" in tracer.missing or not batches
        else sum(s.duration for s in by_name.get("cli.subject", ()))
        / (threads * sum(s.duration for s in batches))
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(selfs[s.sid] for s in spans if s.name.split(".")[0] == layer)
    return out
