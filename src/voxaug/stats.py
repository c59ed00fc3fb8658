"""Paired sign-flipping permutation test, Bonferroni correction, rank tables.

The permutation test is one-sided ("greater"): it asks whether model A beats
model B on the paired per-subject differences d_i = metric_A(i) - metric_B(i).
The null distribution is built by randomly negating each difference. The
identity sign vector is always included among the draws, so the smallest
attainable p-value is 1/n_flips, and ties with the observed statistic count
as at-least-as-extreme (the all-zero case gives p = 1).

All comparisons are done on signed sums rather than means: for fixed n,
mean(s*d) >= mean(d) iff sum(s*d) >= sum(d), and staying on sums keeps the
Monte-Carlo and exhaustive paths bit-for-bit consistent.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .augment import whole
from .metrics import REGIONS, MetricRecord
from .rng import RandomStream

_MC_CHUNK = 65536


@dataclass(frozen=True)
class TestResult:
    observed_stat: float
    p_raw: float
    p_adjusted: float
    n_flips: int
    seed: int | None
    m: int = 1


@dataclass(frozen=True)
class RankEntry:
    model_id: str
    rank_score: float


def _test_count(value, name: str) -> int:
    """A count ``value`` (of tests, of flips) as an int: a whole number >= 1
    (4 or 4.0), not a bool; any other raises naming it ``name``."""
    if not (whole(value) and value >= 1):
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


def bonferroni(p_raw: float, m: int) -> float:
    """min(1, m * p_raw)."""
    if not 0.0 < p_raw <= 1.0:
        raise ValueError(f"p_raw must be in (0, 1], got {p_raw}")
    return min(1.0, _test_count(m, "m") * p_raw)


def _as_differences(d) -> np.ndarray:
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("differences must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("differences must be finite")
    return arr


def sign_flip_test(
    d,
    n_flips: int,
    seed: int = 0,
    exhaustive: bool = False,
    bonferroni_m: int = 1,
) -> TestResult:
    """One-sided paired permutation test by random sign flipping.

    With ``exhaustive=True`` all 2**n sign vectors are enumerated instead of
    sampled (requires n <= 20 and, if given, n_flips == 2**n; the result has
    ``seed=None``). ``n_flips`` and ``bonferroni_m`` are whole numbers >= 1,
    not bools, checked before any flip is drawn. The enumeration doubles an
    array of signed partial sums once per difference, so after step i it
    holds every sum over d[:i+1]. Entry 0 is the all-positive path, i.e. the
    observed sum accumulated in the identical left-to-right order, so the
    identity vector ties itself exactly even in float arithmetic.
    """
    m = _test_count(bonferroni_m, "m")
    if n_flips is not None or not exhaustive:
        n_flips = _test_count(n_flips, "n_flips")
    arr = _as_differences(d)
    n = arr.size

    if exhaustive:
        if n > 20:
            raise ValueError("exact mode limited to n <= 20")
        if n_flips is not None and n_flips != 2**n:
            raise ValueError(
                f"exhaustive mode over n={n} differences uses {2**n} flips, got n_flips={n_flips}"
            )
        sums = np.zeros(1, dtype=np.float64)
        for v in arr:
            sums = np.concatenate([sums + v, sums - v])
        observed = float(sums[0])
        count = int(np.sum(sums >= observed))
        n_flips, seed = sums.size, None
    else:
        observed = float(np.sum(arr))
        # the identity vector is draw 0 and trivially ties the observed sum
        count = 1
        remaining = n_flips - 1
        stream = RandomStream(seed, ("sign-flip",))
        chunk_index = 0
        while remaining > 0:
            k = min(_MC_CHUNK, remaining)
            signs = stream.substream(chunk_index).integers(0, 2, size=(k, n)).astype(np.int8)
            signs = signs * 2 - 1
            sums = np.sum(signs * arr, axis=1)
            count += int(np.sum(sums >= observed))
            remaining -= k
            chunk_index += 1
    p_raw = count / n_flips
    return TestResult(
        observed_stat=observed / n,
        p_raw=p_raw,
        p_adjusted=bonferroni(p_raw, m),
        n_flips=n_flips,
        seed=seed,
        m=m,
    )


def sign_flip_test_exact(d, bonferroni_m: int = 1) -> TestResult:
    """Exhaustive enumeration of all 2**n sign vectors (n <= 20)."""
    return sign_flip_test(d, None, exhaustive=True, bonferroni_m=bonferroni_m)


# ranking ---------------------------------------------------------------

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
    float64 whatever the summation order.
    """
    if not records:
        raise ValueError("rank_models requires at least one metric record")
    models = sorted({r.model_id for r in records})
    subjects = sorted({r.subject_id for r in records})
    keys = [(r.subject_id, r.model_id, r.region) for r in records]
    dupes = sorted(k for k, c in Counter(keys).items() if c > 1)
    if dupes:
        raise ValueError(f"duplicate metric rows for {dupes}")
    cells = dict(zip(keys, records))
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
    values = np.array(
        [
            [sign * getattr(cells[(s, m, g)], metric) for m in models]
            for s in subjects
            for g in REGIONS
            for metric, sign in (("dice", -1.0), ("hd95_mm", 1.0))
        ]
    )
    other, own = values[:, None, :], values[:, :, None]
    below = np.sum(other < own, axis=2)
    tied = np.sum(other == own, axis=2)
    scores = np.mean(below + (tied + 1) / 2, axis=0)
    if normalize:
        scores = scores / len(models)
    entries = [RankEntry(model_id=m, rank_score=float(s)) for m, s in zip(models, scores)]
    entries.sort(key=lambda e: (e.rank_score, e.model_id))
    return entries
