"""What the subcommands share, in plain Python: this module imports no numpy.

- :class:`Rule` and :func:`whole`, the field rules of specs, configs and
  the permutation test's counts;
- ``DEFAULT_LABEL_SUFFIX`` and ``REGIONS``, which the command line offers
  as defaults and choices;
- :class:`MetricRecord` and :class:`RankEntry`, the rows of the metric and
  rank tables; :func:`metric_cells`, which holds the tables' one key rule
  (a (subject, model, region) key appears at most once) for
  ``write_metrics``, ``voxaug compare`` and :func:`rank_models`; and
  :func:`rank_models`, which turns the one kind of row into the other;
- :func:`atomic_write_bytes` and :func:`atomic_group`, through which every
  file voxaug writes appears.

``voxaug rank`` runs on this module and :mod:`voxaug.tables` alone, so it
never loads numpy.
"""

import contextlib
import contextvars
import math
import numbers
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

DEFAULT_LABEL_SUFFIX = "_seg"
REGIONS = ("WT", "TC", "ET")


class Rule(NamedTuple):
    """One config or spec field: what it must be, for the error; a test of
    its raw JSON value that coerces nothing; and the canonical form it is
    stored in."""

    what: str
    test: Callable[[object], bool]
    canonical: Callable = lambda value: value


def _real(value) -> bool:  # a bool is not a number here
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def whole(value) -> bool:
    """True for a whole number (4 or 4.0); a bool is not one."""
    return _real(value) and value % 1 == 0


# tables ------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRecord:
    subject_id: str
    model_id: str
    region: str
    dice: float
    hd95_mm: float

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}, expected one of {REGIONS}")
        if not 0.0 <= self.dice <= 1.0:
            raise ValueError(f"dice must be in [0, 1], got {self.dice}")
        if not 0.0 <= self.hd95_mm < math.inf:
            raise ValueError(f"hd95_mm must be finite and >= 0, got {self.hd95_mm}")


def metric_cells(records) -> dict[tuple[str, str, str], MetricRecord]:
    """The records keyed by (subject_id, model_id, region). A key may
    appear once: if any repeats, raise naming every repeated key, sorted."""
    keys = [(r.subject_id, r.model_id, r.region) for r in records]
    dupes = sorted(k for k, c in Counter(keys).items() if c > 1)
    if dupes:
        raise ValueError(f"duplicate metric rows for {dupes}")
    return dict(zip(keys, records))


@dataclass(frozen=True)
class RankEntry:
    model_id: str
    rank_score: float


def rank_models(records: list[MetricRecord], normalize: bool = False) -> list[RankEntry]:
    """BraTS-style rank aggregation with Kendall mid-ranks for ties.

    For every subject and every (metric, region) pair the models are ranked
    (Dice descending, HD95 ascending; rank 1 is best, tied values share the
    mean of the positions they span). Each model's score is the mean of its
    ranks over all subjects and all 6 metric-region cells; lower is better.
    ``normalize=True`` divides scores by the model count, mapping them into
    (0, 1].

    A model's mid-rank in a cell is ``below + (tied + 1) / 2``: ``below``
    counts the strictly lower values, ``tied`` the equal ones, itself
    included. Mid-ranks are half-integers, so every sum here is exact in
    float64 whatever the summation order, and a score is one correctly
    rounded division, as ``np.mean`` gives it.
    """
    if not records:
        raise ValueError("rank_models requires at least one metric record")
    models = sorted({r.model_id for r in records})
    subjects = sorted({r.subject_id for r in records})
    cells = metric_cells(records)
    missing = [
        (s, m, g)
        for s in subjects
        for m in models
        for g in REGIONS
        if (s, m, g) not in cells
    ]
    if missing:
        raise ValueError(f"missing metric cells (subject, model, region): {missing}")

    # one row per (subject, region, metric) cell; Dice is negated so that,
    # like HD95, the lowest value ranks first
    rows = [
        [sign * getattr(cells[(s, m, g)], metric) for m in models]
        for s in subjects
        for g in REGIONS
        for metric, sign in (("dice", -1.0), ("hd95_mm", 1.0))
    ]
    totals = [0.0] * len(models)
    for row in rows:
        for i, own in enumerate(row):
            below = sum(other < own for other in row)
            tied = sum(other == own for other in row)
            totals[i] += below + (tied + 1) / 2
    scores = [total / len(rows) for total in totals]
    if normalize:
        scores = [score / len(models) for score in scores]
    entries = [RankEntry(model_id=m, rank_score=s) for m, s in zip(models, scores)]
    entries.sort(key=lambda e: (e.rank_score, e.model_id))
    return entries


# atomic writes -----------------------------------------------------------

# temp files of the innermost active atomic_group, as (temp, target) pairs
_GROUP = contextvars.ContextVar("atomic_group", default=None)


@contextlib.contextmanager
def _atomic_file(path):
    """Yield a binary file that becomes ``path`` when the block ends: it is a
    temp file beside ``path``, renamed over it (or, inside :func:`atomic_group`,
    at the group's end). If the block raises, the temp file is removed and
    ``path`` is untouched.

    The temp file is named after its target, ``tmp.<name>.tmp``, so a target
    name may be at most 247 bytes. A file already at the temp name is the
    leftover of a killed writer (a directory has one writer at a time) and is
    removed first; so a group that writes the same target twice fails. The
    temp file is created with mode 0o666, so the written file gets the
    umask's default mode, as with a plain ``open(path, "wb")``."""
    path = Path(path)
    tmp = path.parent / f"tmp.{path.name}.tmp"
    tmp.unlink(missing_ok=True)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        group = _GROUP.get()
        if group is None:
            os.replace(tmp, path)
        else:
            group.append((tmp, path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def atomic_group():
    """Make the files written inside the block appear together.

    Each one stays under its temp name until the block ends. The last file
    written is the group's commit marker: when the block ends, a file at the
    marker's path is removed first, the other files are renamed over their
    targets in the order written, and the marker is renamed last. So where
    the marker exists, every file of its group is in place.

    If the block raises, every temp file it wrote is removed and no target
    is touched. If removing the old marker or a rename fails, every temp
    file and every target renamed so far is removed before the error is
    raised, so no file of the group remains. The group belongs to the
    thread (or asyncio task) that opened it."""
    group, renamed = [], []
    token = _GROUP.set(group)
    try:
        yield
        if group:
            group[-1][1].unlink(missing_ok=True)
        for tmp, path in group:
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for path in renamed:
            path.unlink(missing_ok=True)
        for tmp, _ in group:  # those not yet renamed
            tmp.unlink(missing_ok=True)
        raise
    finally:
        _GROUP.reset(token)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (see :func:`_atomic_file`)."""
    with _atomic_file(path) as f:
        f.write(payload)
