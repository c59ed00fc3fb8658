"""Command-line surface: augment / evaluate / compare / rank / phantom.

Every subcommand prints a one-line ``error: <message>`` to stderr and exits
nonzero on invalid input. Batch subcommands parallelize over subjects with a
thread pool sized by the ``VOXAUG_THREADS`` environment variable; outputs are
byte-identical for any thread count because every subject draws from its own
seed-derived random substream and tables are sorted before writing. A batch
runs every subject to the end; one failure is reported with its own message,
several as ``error: k of n subjects failed: <msg>; <msg>`` in subject order.

``augment`` streams each subject. It checks every header's grid, draws the
pipeline and sets up its plan (matrices folded and inverted, x and y spline
passes run, control grids checked) once, before any voxel is read. Then,
for each channel in order and the label map last, it reads the patch
window and streams that array's output into the file's writer from the
plan, which is a function of the arrays: the slab loop that
``apply_pipeline`` also runs, here called with that one array. One z-slab
at a time, it moves the window there (resampling it at that slab's
sampling positions, reversing it along a lone flip's axis, or neither),
brightens a channel's slab and checks the output voxels. It drops the
window before the next read, so it holds one window at a time. Only the
position slabs are built again for each array, never the plan's set-up,
and no whole position array or whole output is held.

All of a subject's files are written into one atomic group, so a fault met
after earlier outputs were written (a bad voxel in a later file, a negative
intensity under brightness, a failed write) still leaves none of them
behind. A subject with one fault reports it as a whole-patch run did; a bad
output voxel is named by its patch index, the first in (x, y, z) order,
once that array's last slab is done. One with several faults reports the
first met in array order: a bad output voxel of ``_t1``, say, comes before
a bad input voxel of ``_flair``, whose window is then never read.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .augment import draw_pipeline, plan_steps
from .config import DEFAULT_LABEL_SUFFIX, load_config
from .metrics import REGIONS, evaluate_sample
from .nifti import (
    NIFTI_EXTS,
    atomic_group,
    atomic_write_bytes,
    read_grid,
    read_labels,
    read_volume,
    volume_writer,
    write_volume,
)
from .rng import RandomStream
from .stats import rank_models, sign_flip_test
from .tables import read_metrics, write_metrics, write_ranks
from .volume import center_box, check_grids, make_phantom
# augment crops while reading and applies a per-array plan; these names stay
# here, where the benchmark's tracer looks them up
from .augment import apply_pipeline  # noqa: F401
from .volume import extract_center_patch  # noqa: F401


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
    """``fn`` over every subject; every subject runs to the end, and each
    failure is reported, in subject order."""
    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        futures = [pool.submit(fn, s) for s in subjects]
    errors = [e for e in (f.exception() for f in futures) if e is not None]
    if len(errors) == 1:
        raise errors[0]
    if errors:
        raise ValueError(
            f"{len(errors)} of {len(futures)} subjects failed: "
            + "; ".join(str(e) for e in errors)
        )
    return [f.result() for f in futures]


def _resolve_nifti(directory: Path, stem: str) -> Path | None:
    for ext in NIFTI_EXTS:
        p = directory / f"{stem}{ext}"
        if p.exists():
            return p
    return None


def _subjects_with_suffix(directory: Path, suffix: str) -> list[str]:
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    ids = set()
    for p in directory.iterdir():
        name = p.name
        for ext in NIFTI_EXTS:
            marker = f"{suffix}{ext}"
            if name.endswith(marker):
                ids.add(name[: -len(marker)])
                break
    return sorted(ids)


# subcommands -----------------------------------------------------------

def _cmd_augment(args) -> int:
    cfg = load_config(args.config)
    if not (args.in_dir or cfg.input_dir):
        raise ValueError("input directory required (--in or config input_dir)")
    if not (args.out_dir or cfg.output_dir):
        raise ValueError("output directory required (--out or config output_dir)")
    in_dir = Path(args.in_dir or cfg.input_dir)
    out_dir = Path(args.out_dir or cfg.output_dir)
    subjects = _subjects_with_suffix(in_dir, cfg.channel_suffixes[0])
    if not subjects:
        raise ValueError(f"no subjects with suffix {cfg.channel_suffixes[0]!r} under {in_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline = cfg.to_pipeline()

    def one(subject: str) -> None:
        paths = []
        for suffix in cfg.channel_suffixes:
            path = _resolve_nifti(in_dir, f"{subject}{suffix}")
            if path is None:
                raise ValueError(f"subject {subject}: missing channel file {subject}{suffix}.nii(.gz)")
            paths.append(path)
        label_path = _resolve_nifti(in_dir, f"{subject}{cfg.label_suffix}")
        # crop while reading: the window comes from the headers, so no
        # full-size array is ever held
        grids = [read_grid(p) for p in paths]
        check_grids(grids, None if label_path is None else read_grid(label_path))
        box = center_box(grids[0][0], cfg.patch_shape)
        steps, provenance = draw_pipeline(
            pipeline, RandomStream(cfg.seed, ("augment", subject)), subject
        )
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
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    suffix = args.label_suffix
    pred_ids = _subjects_with_suffix(pred_dir, suffix)
    truth_ids = _subjects_with_suffix(truth_dir, suffix)
    if not truth_ids:
        raise ValueError(f"no label files with suffix {suffix!r} under {truth_dir}")
    missing_pred = sorted(set(truth_ids) - set(pred_ids))
    missing_truth = sorted(set(pred_ids) - set(truth_ids))
    if missing_pred or missing_truth:
        raise ValueError(
            f"subject mismatch: missing predictions {missing_pred}, missing truth {missing_truth}"
        )

    def one(subject: str):
        try:
            pred = read_labels(_resolve_nifti(pred_dir, f"{subject}{suffix}"))
            truth = read_labels(_resolve_nifti(truth_dir, f"{subject}{suffix}"))
            return evaluate_sample(pred, truth, subject_id=subject, model_id=args.model_id)
        except ValueError as exc:
            raise ValueError(f"subject {subject}: {exc}") from exc

    records = [r for batch in _map_subjects(one, truth_ids) for r in batch]
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics(records, out, append=args.append)
    print(f"evaluated {len(truth_ids)} subjects ({len(records)} rows) -> {out}")
    return 0


_METRIC_ATTR = {"dice": "dice", "hd95": "hd95_mm"}


def _cmd_compare(args) -> int:
    records = read_metrics(args.metrics)
    attr = _METRIC_ATTR[args.metric]
    per_model: dict[str, dict[str, float]] = {args.model_a: {}, args.model_b: {}}
    dupes = set()
    for r in records:
        if r.region == args.region and r.model_id in per_model:
            values = per_model[r.model_id]
            if r.subject_id in values:
                dupes.add((r.subject_id, r.model_id, r.region))
            values[r.subject_id] = getattr(r, attr)
    if dupes:
        raise ValueError(f"duplicate metric rows for {sorted(dupes)}")
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
    records = read_metrics(args.metrics)
    entries = rank_models(records, normalize=args.normalize)
    write_ranks(entries, args.out)
    for e in entries:
        print(f"{e.model_id}={e.rank_score!r}")
    return 0


def _cmd_phantom(args) -> int:
    try:
        shape = tuple(int(v) for v in args.shape.split(","))
    except ValueError:
        raise ValueError(f"--shape must be X,Y,Z integers, got {args.shape!r}") from None
    if len(shape) != 3 or any(v < 16 for v in shape):
        raise ValueError(f"--shape must be three integers >= 16, got {args.shape!r}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    batch = RandomStream(args.seed, ("phantom-batch",))

    def one(index: int) -> None:
        subject = f"phantom{index:03d}"
        sample = make_phantom(
            batch.substream(index).derived_seed(), shape=shape, subject_id=subject
        )
        for ch in sample.channels:
            write_volume(ch, out_dir / f"{subject}_{ch.name}.nii.gz")
        write_volume(sample.labels, out_dir / f"{subject}{DEFAULT_LABEL_SUFFIX}.nii.gz")

    _map_subjects(one, list(range(args.count)))
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
