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
from scipy.stats import rankdata

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


def bonferroni(p_raw: float, m: int) -> float:
    """min(1, m * p_raw)."""
    if not 0.0 < p_raw <= 1.0:
        raise ValueError(f"p_raw must be in (0, 1], got {p_raw}")
    if int(m) < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return min(1.0, int(m) * p_raw)


def _as_differences(d) -> np.ndarray:
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("differences must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("differences must be finite")
    return arr


def _exhaustive_count(d: np.ndarray) -> tuple[int, int, float]:
    """Count sign vectors with sum(s*d) >= sum(d) over all 2**n of them.

    Enumerates by iterative doubling: after step i the array holds every
    signed partial sum over d[:i+1]. Entry 0 is the all-positive path, i.e.
    the observed sum accumulated in the identical left-to-right order, so
    the identity vector ties itself exactly even in float arithmetic.
    """
    sums = np.zeros(1, dtype=np.float64)
    for v in d:
        sums = np.concatenate([sums + v, sums - v])
    observed = float(sums[0])
    count = int(np.sum(sums >= observed))
    return count, sums.size, observed


def sign_flip_test(
    d,
    n_flips: int,
    seed: int = 0,
    exhaustive: bool = False,
    bonferroni_m: int = 1,
) -> TestResult:
    """One-sided paired permutation test by random sign flipping.

    With ``exhaustive=True`` all 2**n sign vectors are enumerated instead of
    sampled (requires n <= 20 and, if given, n_flips == 2**n) by delegating
    to :func:`sign_flip_test_exact`.
    """
    arr = _as_differences(d)
    n = arr.size

    if exhaustive:
        if n > 20:
            raise ValueError("exact mode limited to n <= 20")
        if n_flips is not None and int(n_flips) != 2**n:
            raise ValueError(
                f"exhaustive mode over n={n} differences uses {2**n} flips, got n_flips={n_flips}"
            )
        return sign_flip_test_exact(arr, bonferroni_m)

    n_flips = int(n_flips)
    if n_flips < 1:
        raise ValueError(f"n_flips must be >= 1, got {n_flips}")
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
        p_adjusted=bonferroni(p_raw, bonferroni_m),
        n_flips=n_flips,
        seed=seed,
        m=int(bonferroni_m),
    )


def sign_flip_test_exact(d, bonferroni_m: int = 1) -> TestResult:
    """Exhaustive enumeration of all 2**n sign vectors (n <= 20)."""
    arr = _as_differences(d)
    if arr.size > 20:
        raise ValueError("exact mode limited to n <= 20")
    count, total, observed = _exhaustive_count(arr)
    p_raw = count / total
    return TestResult(
        observed_stat=observed / arr.size,
        p_raw=p_raw,
        p_adjusted=bonferroni(p_raw, bonferroni_m),
        n_flips=total,
        seed=None,
        m=int(bonferroni_m),
    )


# ranking ---------------------------------------------------------------

_RANK_METRICS = ("dice", "hd95_mm")


def rank_models(records: list[MetricRecord], normalize: bool = False) -> list[RankEntry]:
    """BraTS-style rank aggregation with Kendall mid-ranks for ties.

    For every subject and every (metric, region) pair the models are ranked
    (Dice descending, HD95 ascending; rank 1 is best, tied values share the
    mean of the positions they span). Each model's score is the mean of its
    ranks over all subjects and all 6 metric-region cells; lower is better.
    ``normalize=True`` divides scores by the model count, mapping them into
    (0, 1].
    """
    if not records:
        raise ValueError("rank_models requires at least one metric record")
    models = sorted({r.model_id for r in records})
    subjects = sorted({r.subject_id for r in records})
    cells: dict[tuple[str, str, str], MetricRecord] = {}
    dupes = Counter()
    for r in records:
        key = (r.subject_id, r.model_id, r.region)
        if key in cells:
            dupes[key] += 1
        cells[key] = r
    if dupes:
        raise ValueError(f"duplicate metric rows for {sorted(dupes)}")
    missing = [
        (s, m, g)
        for s in subjects
        for m in models
        for g in REGIONS
        if (s, m, g) not in cells
    ]
    if missing:
        raise ValueError(f"missing metric cells (subject, model, region): {missing}")

    totals = np.zeros(len(models), dtype=np.float64)
    n_cells = 0
    for subject in subjects:
        for region in REGIONS:
            row = [cells[(subject, m, region)] for m in models]
            for metric in _RANK_METRICS:
                values = np.array([getattr(r, metric) for r in row], dtype=np.float64)
                if metric == "dice":
                    values = -values  # higher Dice is better -> ascending rank
                totals += rankdata(values, method="average")
                n_cells += 1
    scores = totals / n_cells
    if normalize:
        scores = scores / len(models)
    entries = [RankEntry(model_id=m, rank_score=float(s)) for m, s in zip(models, scores)]
    entries.sort(key=lambda e: (e.rank_score, e.model_id))
    return entries
