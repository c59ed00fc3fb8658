"""Paired sign-flipping permutation test and Bonferroni correction.

The permutation test is one-sided ("greater"): it asks whether model A beats
model B on the paired per-subject differences d_i = metric_A(i) - metric_B(i).
The null distribution is built by randomly negating each difference. The
identity sign vector is always included among the draws, so the smallest
attainable p-value is 1/n_flips, and ties with the observed statistic count
as at-least-as-extreme (the all-zero case gives p = 1).

All comparisons are done on signed sums rather than means: for fixed n,
mean(s*d) >= mean(d) iff sum(s*d) >= sum(d), and staying on sums keeps the
Monte-Carlo and exhaustive paths bit-for-bit consistent.

:func:`rank_models` and :class:`RankEntry` live in :mod:`voxaug.common`,
which needs no numpy, and are importable from here too.
"""

from dataclasses import dataclass

import numpy as np

from .common import RankEntry, rank_models, whole  # noqa: F401
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
