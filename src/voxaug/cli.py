"""Command-line surface: augment / evaluate / compare / rank / phantom.

Every subcommand prints a one-line ``error: <message>`` to stderr and exits
nonzero on invalid input. Batch subcommands (``augment``, ``evaluate``,
``phantom``) parallelize over subjects with a thread pool sized by the
``VOXAUG_THREADS`` environment variable; outputs are byte-identical for any
thread count because every subject draws from its own seed-derived random
substream and tables are sorted before writing. A batch runs every subject
to the end, and every failure of a subject is ``subject <id>: <message>``,
named by :func:`_map_subjects` alone: one failure is that line, several
are ``error: k of n subjects failed: <line>; <line>`` in subject order.
``augment`` refuses an output directory that resolves to its input
directory before it reads or writes anything. A seed outside what
:class:`~voxaug.rng.RandomStream` takes is refused by the stream built
before the batch, in one line that names no subject. ``evaluate`` and
``rank`` create the directory of their ``--out`` file.

``augment`` streams each subject. It checks every header's grid, draws the
pipeline and sets up its plan (matrices folded and inverted, x and y spline
passes run, control grids checked) once, before any voxel is read. Then, for
each channel in order and the label map last, it reads the patch window and
streams that array's output into the file's writer from the plan, which is a
function of the arrays: the slab loop that ``apply_pipeline`` also runs,
here called with that one array. One z-slab (``volume.SLAB_PLANES`` planes,
as many as each read and write moves) at a time, it moves the window there
(resampling it at that slab's sampling positions, reversing it along a lone
flip's axis, or neither), brightens a channel's slab and checks the output
voxels. It drops the window before the next read, so it holds one window at
a time. Only the position slabs are built again for each array, never the
plan's set-up, and no whole position array or whole output is held.

All of a subject's files are written into one atomic group, so a fault met
after earlier outputs were written (a bad voxel in a later file, a negative
intensity under brightness, a failed write) still leaves none of them
behind. The provenance JSON is written last and is the group's commit
marker: a subject's outputs are complete exactly when its provenance JSON
exists. An earlier run's JSON is removed before the first file is renamed
into place, the JSON is renamed last, and a failed rename removes the files
already renamed. A subject with one fault reports it as a whole-patch run
did; a bad output voxel is named by the output file being written and its
patch index, the first in (x, y, z) order, once that array's last slab is
done. One with several faults reports the first met in array order: a bad
output voxel of ``_t1``, say, comes before a bad input voxel of ``_flair``,
whose window is then never read.

Each file is written under a temp name beside it, ``tmp.<name>.tmp``. An
output directory has one writer at a time, so a file already at that temp
name is a killed run's leftover and is removed first: a rerun takes back
what a killed run left.

``augment`` and ``evaluate`` list each input directory once per suffix:
``_nifti_files`` maps each subject to its ``<subject><suffix>.nii.gz`` or
``.nii`` file, the ``.nii.gz`` one where there are both. ``augment`` builds
one such index per channel suffix and one for the label suffix, and a
subject is one with a file of the first channel suffix. ``evaluate`` builds
one for each of its two directories.

``phantom`` checks ``--shape`` (16 to NIfTI-1's 32767 voxels per axis)
before it builds anything. Each subject's arrays come from
``volume.phantom_arrays``, which builds them a few z-planes at a time in
NIfTI voxel order, so every file is written from a view with no
transposing copy, in the bytes ``make_phantom`` and ``write_volume`` give.
It holds one subject's four channels and labels (17 bytes per voxel, 152
MB at 240x240x155) per thread, and no full-grid temporary. A subject's
five files are written into one atomic group, the label map last, so a
subject that fails leaves none of them.

Each subcommand imports only the modules it runs, when it runs; importing
this module loads :mod:`voxaug.common` and no numpy:
- ``rank``: :mod:`~voxaug.tables`, and so no numpy at all;
- ``compare``: :mod:`~voxaug.tables` and :mod:`~voxaug.stats` (numpy and
  :mod:`~voxaug.rng`);
- ``evaluate``: :mod:`~voxaug.nifti`, :mod:`~voxaug.volume`,
  :mod:`~voxaug.metrics` and :mod:`~voxaug.tables`;
- ``phantom``: :mod:`~voxaug.nifti`, :mod:`~voxaug.volume` and
  :mod:`~voxaug.rng`;
- ``augment``: those and :mod:`~voxaug.config`, :mod:`~voxaug.augment` and
  :mod:`~voxaug.interp`.
The names a subcommand calls are bound in this module's globals on first
use, and a name bound here already (patched by a caller) is kept.
"""

import argparse
import importlib
import os
import sys
from pathlib import Path

from .common import DEFAULT_LABEL_SUFFIX, REGIONS, atomic_group, atomic_write_bytes, metric_cells, rank_models

# The names each subcommand takes from a module that needs numpy, bound in
# this module's globals on first use, so that a name patched here (the
# benchmark's tracer wraps these) is the one a subcommand calls.
# apply_pipeline, extract_center_patch and make_phantom are run by no
# subcommand; they resolve here because the tracer looks them up.
_LAZY = {
    "augment": ("apply_pipeline", "draw_pipeline", "plan_steps"),
    "config": ("load_config",),
    "metrics": ("evaluate_sample",),
    "nifti": ("MAX_DIM", "NIFTI_EXTS", "read_grid", "read_labels", "read_volume",
              "volume_writer", "write_volume"),
    "rng": ("RandomStream",),
    "stats": ("sign_flip_test",),
    "tables": ("read_metrics", "write_metrics", "write_ranks"),
    "volume": ("CHANNEL_NAMES", "LabelMap", "Volume", "center_box", "check_grids",
               "extract_center_patch", "make_phantom", "phantom_arrays"),
}


def _load(*modules) -> None:
    """Import ``modules`` and bind the names this module takes from each,
    keeping any name bound already."""
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name):  # PEP 562: a lazy name, looked up from outside
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _thread_count() -> int:
    raw = os.environ.get("VOXAUG_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            return min(4, len(os.sched_getaffinity(0)))
        return min(4, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"VOXAUG_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"VOXAUG_THREADS must be >= 1, got {n}")
    return n


def _map_subjects(fn, subjects):
    """``fn`` over every subject; every subject runs to the end. Each
    subject whose call raised an ``Exception`` is named in its line,
    ``subject <id>: <message>``: one such line is raised as a ``ValueError``
    chained to the original, several as ``k of n subjects failed: <line>;
    <line>`` in subject order. Any other ``BaseException`` propagates
    unchanged."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        futures = {s: pool.submit(fn, s) for s in subjects}
    failed = {s: f.exception() for s, f in futures.items() if f.exception() is not None}
    for exc in failed.values():
        if not isinstance(exc, Exception):
            raise exc
    lines = [f"subject {s}: {exc}" for s, exc in failed.items()]
    if len(lines) == 1:
        raise ValueError(lines[0]) from next(iter(failed.values()))
    if lines:
        raise ValueError(f"{len(lines)} of {len(futures)} subjects failed: " + "; ".join(lines))
    return [f.result() for f in futures.values()]


def _nifti_files(directory: Path, suffix: str) -> dict[str, Path]:
    """``{subject: path}`` of the files ``<subject><suffix>.nii.gz`` and
    ``<subject><suffix>.nii`` in ``directory``, sorted by subject; a subject
    with both gets the ``.nii.gz`` file."""
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    paths = list(directory.iterdir())
    files = {p.name[: -len(suffix + ext)]: p  # .nii.gz comes last, so it wins
             for ext in reversed(NIFTI_EXTS) for p in paths if p.name.endswith(suffix + ext)}
    return dict(sorted(files.items()))


# subcommands -----------------------------------------------------------

def _cmd_augment(args) -> int:
    _load("config", "augment", "nifti", "rng", "volume")
    cfg = load_config(args.config)
    if not (args.in_dir or cfg.input_dir):
        raise ValueError("input directory required (--in or config input_dir)")
    if not (args.out_dir or cfg.output_dir):
        raise ValueError("output directory required (--out or config output_dir)")
    in_dir = Path(args.in_dir or cfg.input_dir)
    out_dir = Path(args.out_dir or cfg.output_dir)
    if out_dir.resolve() == in_dir.resolve():
        raise ValueError(f"output directory {out_dir} is the input directory {in_dir}")
    channels = [_nifti_files(in_dir, suffix) for suffix in cfg.channel_suffixes]
    labels = _nifti_files(in_dir, cfg.label_suffix)
    subjects = list(channels[0])
    if not subjects:
        raise ValueError(f"no subjects with suffix {cfg.channel_suffixes[0]!r} under {in_dir}")
    stream = RandomStream(cfg.seed, ("augment",))  # refuses a bad seed before any file is made
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline = cfg.to_pipeline()

    def one(subject: str) -> None:
        paths = []
        for suffix, files in zip(cfg.channel_suffixes, channels):
            if subject not in files:
                raise ValueError(f"missing channel file {subject}{suffix}.nii(.gz)")
            paths.append(files[subject])
        label_path = labels.get(subject)
        # crop while reading: the window comes from the headers, so no
        # full-size array is ever held
        grids = [read_grid(p) for p in paths]
        check_grids(grids, None if label_path is None else read_grid(label_path))
        box = center_box(grids[0][0], cfg.patch_shape)
        steps, provenance = draw_pipeline(pipeline, stream.substream(subject), subject)
        plan = plan_steps(cfg.patch_shape, steps)
        arrays = [(read_volume, p, s) for p, s in zip(paths, cfg.channel_suffixes)]
        if label_path is not None:
            arrays.append((read_labels, label_path, cfg.label_suffix))
        with atomic_group():  # the subject's files appear together or not at all
            for read, path, suffix in arrays:  # one array at a time
                array = read(path, box=box)
                # z-slab by z-slab, any positions rebuilt for this array
                with volume_writer(out_dir / f"{subject}{suffix}.nii.gz", array) as write:
                    for _, _, slab in plan([array]):
                        write(slab)
                del array, slab  # before the next read; a flip's slab is a view of the window
            atomic_write_bytes(
                out_dir / f"{subject}_provenance.json",
                (provenance.to_json() + "\n").encode(),
            )

    _map_subjects(one, subjects)
    print(f"augmented {len(subjects)} subjects -> {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    _load("nifti", "metrics", "tables")
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    suffix = args.label_suffix
    preds = _nifti_files(pred_dir, suffix)
    truths = _nifti_files(truth_dir, suffix)
    if not truths:
        raise ValueError(f"no label files with suffix {suffix!r} under {truth_dir}")
    missing_pred = sorted(truths.keys() - preds.keys())
    missing_truth = sorted(preds.keys() - truths.keys())
    if missing_pred or missing_truth:
        raise ValueError(
            f"subject mismatch: missing predictions {missing_pred}, missing truth {missing_truth}"
        )

    def one(subject: str):
        pred, truth = read_labels(preds[subject]), read_labels(truths[subject])
        return evaluate_sample(pred, truth, subject_id=subject, model_id=args.model_id)

    records = [r for batch in _map_subjects(one, list(truths)) for r in batch]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics(records, out, append=args.append)
    print(f"evaluated {len(truths)} subjects ({len(records)} rows) -> {out}")
    return 0


_METRIC_ATTR = {"dice": "dice", "hd95": "hd95_mm"}


def _cmd_compare(args) -> int:
    if args.model_a == args.model_b:
        raise ValueError(f"--model-a and --model-b are the same model {args.model_a!r}")
    _load("tables", "stats")
    attr, models = _METRIC_ATTR[args.metric], (args.model_a, args.model_b)
    cells = metric_cells([r for r in read_metrics(args.metrics)
                          if r.region == args.region and r.model_id in models])
    per_model = {m: {s: getattr(r, attr) for (s, model, _), r in cells.items() if model == m} for m in models}
    for model_id, values in per_model.items():
        if not values:
            raise ValueError(f"model {model_id!r} has no {args.region} rows in {args.metrics}")
    a, b = per_model[args.model_a], per_model[args.model_b]
    if set(a) != set(b):
        raise ValueError(
            f"subject mismatch between models: only-a {sorted(set(a) - set(b))}, "
            f"only-b {sorted(set(b) - set(a))}"
        )
    subjects = sorted(a)
    d = [a[s] - b[s] for s in subjects]
    result = sign_flip_test(
        d,
        n_flips=None if args.exhaustive else args.flips,
        seed=args.seed,
        exhaustive=args.exhaustive,
        bonferroni_m=args.bonferroni,
    )
    print(
        f"model_a={args.model_a} model_b={args.model_b} metric={args.metric} "
        f"region={args.region} n_subjects={len(subjects)} "
        f"observed_mean={result.observed_stat!r} p_raw={result.p_raw!r} "
        f"p_adjusted={result.p_adjusted!r} n_flips={result.n_flips} "
        f"m={result.m} seed={result.seed}"
    )
    return 0


def _cmd_rank(args) -> int:
    _load("tables")
    records = read_metrics(args.metrics)
    entries = rank_models(records, normalize=args.normalize)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_ranks(entries, args.out)
    for e in entries:
        print(f"{e.model_id}={e.rank_score!r}")
    return 0


def _cmd_phantom(args) -> int:
    _load("nifti", "rng", "volume")
    try:
        shape = tuple(int(v) for v in args.shape.split(","))
    except ValueError:
        raise ValueError(f"--shape must be X,Y,Z integers, got {args.shape!r}") from None
    if len(shape) != 3 or any(not 16 <= v <= MAX_DIM for v in shape):
        raise ValueError(f"--shape must be three integers >= 16 and <= {MAX_DIM}, got {args.shape!r}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    batch = RandomStream(args.seed, ("phantom-batch",))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    indices = {f"phantom{i:03d}": i for i in range(args.count)}

    def one(subject: str) -> None:
        channels, labels = phantom_arrays(batch.substream(indices[subject]).derived_seed(), shape)
        # each array is laid out [z, y, x], so its .T is the grid in disk order
        with atomic_group():  # the subject's files appear together or not at all
            for name, array in zip(CHANNEL_NAMES, channels):
                write_volume(Volume(array.T, name=name, checked=True), out_dir / f"{subject}_{name}.nii.gz")
            write_volume(LabelMap(labels.T, checked=True), out_dir / f"{subject}{DEFAULT_LABEL_SUFFIX}.nii.gz")

    _map_subjects(one, list(indices))
    print(f"wrote {args.count} phantom subjects -> {out_dir}")
    return 0


# parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line machine-parsable errors
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voxaug", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="patch-extract and augment a directory of subjects")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--in", dest="in_dir", default=None, help="input directory")
    p.add_argument("--out", dest="out_dir", default=None, help="output directory")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("evaluate", help="score predictions against reference labels")
    p.add_argument("--pred", required=True, help="directory of predicted label maps")
    p.add_argument("--truth", required=True, help="directory of reference label maps")
    p.add_argument("--model-id", required=True, help="model identifier for the CSV rows")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--append", action="store_true", help="append to an existing table")
    p.add_argument("--label-suffix", default=DEFAULT_LABEL_SUFFIX)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="paired one-sided sign-flip test between two models")
    p.add_argument("--metrics", required=True, help="metrics CSV path")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--metric", choices=sorted(_METRIC_ATTR), required=True)
    p.add_argument("--region", choices=sorted(REGIONS), required=True)
    p.add_argument("--flips", type=int, default=100000)
    p.add_argument("--bonferroni", type=int, default=1, help="number of tests m")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true", help="enumerate all 2^n flips (ignores --flips)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rank", help="tie-handled rank aggregation over a metrics table")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True, help="rank CSV path")
    p.add_argument("--normalize", action="store_true", help="divide scores by the model count")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("phantom", help="generate synthetic test subjects")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--shape", default="64,64,64", help="volume shape X,Y,Z")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_phantom)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line contract for all domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
