import itertools
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxaug
from oracles import oracle_rank_models
from voxaug.metrics import MetricRecord
from voxaug.rng import RandomStream
from voxaug.stats import (
    bonferroni,
    rank_models,
    sign_flip_test,
    sign_flip_test_exact,
)


# --- bonferroni --------------------------------------------------------------

def test_bonferroni_paper_floor_exact():
    p = 1.0 / 100000.0
    assert bonferroni(p, 36) == 0.00036


def test_bonferroni_clamp():
    assert bonferroni(0.5, 36) == 1.0


def test_bonferroni_identity():
    assert bonferroni(0.123, 1) == 0.123


def test_bonferroni_domain():
    with pytest.raises(ValueError):
        bonferroni(0.0, 2)
    with pytest.raises(ValueError):
        bonferroni(1.5, 2)
    with pytest.raises(ValueError):
        bonferroni(0.1, 0)


def test_bonferroni_m_is_a_whole_number_checked_before_any_flip(monkeypatch):
    """The number of tests is a whole number >= 1, not a bool, and
    sign_flip_test checks it before it draws a flip: no substream is taken,
    even when 2,000,000 flips are asked for."""
    chunks = []
    substream = RandomStream.substream
    monkeypatch.setattr(RandomStream, "substream",
                        lambda self, *t: chunks.append(t) or substream(self, *t))
    for m in (0, 2.5, True, -1):
        with pytest.raises(ValueError, match="m must be a whole number >= 1"):
            sign_flip_test([1.0, 2.0, -0.5], n_flips=2_000_000, bonferroni_m=m)
        with pytest.raises(ValueError, match="m must be a whole number >= 1"):
            bonferroni(0.1, m)
    assert chunks == []
    assert bonferroni(0.1, 4.0) == bonferroni(0.1, np.int64(4)) == bonferroni(0.1, 4)
    assert sign_flip_test([1.0, 2.0], n_flips=10, bonferroni_m=4.0).m == 4


def test_n_flips_is_a_whole_number_checked_before_any_flip(monkeypatch):
    """The number of flips is a whole number >= 1, not a bool, on the
    sampled and the exhaustive path alike, and is checked before any flip is
    drawn: 2.5 does not run 2 flips, True does not run 1, and 4.7 does not
    pass as the 4 sign vectors of two differences."""
    chunks = []
    substream = RandomStream.substream
    monkeypatch.setattr(RandomStream, "substream",
                        lambda self, *t: chunks.append(t) or substream(self, *t))
    for n_flips in (2.5, True, 0, -3, "10"):
        with pytest.raises(ValueError, match="n_flips must be a whole number >= 1"):
            sign_flip_test([1.0, 2.0, -0.5], n_flips=n_flips)
    for n_flips in (4.7, True, 0):
        with pytest.raises(ValueError, match="n_flips must be a whole number >= 1"):
            sign_flip_test([1.0, 2.0], n_flips=n_flips, exhaustive=True)
    with pytest.raises(ValueError, match="n_flips must be a whole number >= 1"):
        sign_flip_test([1.0, 2.0], n_flips=None)
    assert chunks == []
    assert sign_flip_test([1.0, 2.0], n_flips=4.0, exhaustive=True).n_flips == 4
    assert sign_flip_test([1.0, 2.0], n_flips=np.int64(10)).n_flips == 10


# --- exact test ----------------------------------------------------------------

def test_exact_single_positive_difference():
    assert sign_flip_test_exact([1.0]).p_raw == 0.5


def test_exact_all_zero_differences():
    for n in (1, 4, 9):
        assert sign_flip_test_exact([0.0] * n).p_raw == 1.0


def test_exact_five_positive_equal():
    res = sign_flip_test_exact([1.0] * 5)
    assert res.p_raw == 1.0 / 32.0
    assert res.n_flips == 32
    assert res.observed_stat == 1.0


def test_exact_size_limit():
    with pytest.raises(ValueError, match="exact mode limited to n <= 20"):
        sign_flip_test_exact([1.0] * 21)


def test_exact_rejects_empty_or_nonfinite():
    with pytest.raises(ValueError):
        sign_flip_test_exact([])
    with pytest.raises(ValueError):
        sign_flip_test_exact([1.0, np.nan])


def _fraction_oracle(d):
    """Exact rational enumeration over all sign vectors via itertools."""
    fr = [Fraction(x) for x in d]  # floats convert exactly
    observed = sum(fr)
    count = 0
    total = 0
    for signs in itertools.product((1, -1), repeat=len(fr)):
        total += 1
        if sum(s * x for s, x in zip(signs, fr)) >= observed:
            count += 1
    return Fraction(count, total)


@given(
    st.lists(
        st.integers(-4, 4).map(lambda k: k / 8.0),  # dyadic values: float sums exact
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60)
def test_exact_matches_fraction_oracle(d):
    got = sign_flip_test_exact(d)
    want = _fraction_oracle(d)
    # dyadic inputs: both the statistic and count/2**n are exact in float64
    assert Fraction(got.p_raw) == want
    assert got.p_raw == float(want)


# --- Monte-Carlo test --------------------------------------------------------------

def test_mc_identity_floor():
    # maximally significant vector: only the identity draw ties
    res = sign_flip_test([1.0] * 30, n_flips=2000, seed=0)
    assert res.p_raw == 1.0 / 2000.0
    assert res.p_raw >= 1.0 / res.n_flips


def test_mc_all_zero_gives_one():
    assert sign_flip_test([0.0, 0.0, 0.0], n_flips=500, seed=1).p_raw == 1.0


def test_mc_exhaustive_equals_exact():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 11))
        d = rng.integers(-5, 6, n).astype(float)
        a = sign_flip_test(d, n_flips=2**n, exhaustive=True)
        b = sign_flip_test_exact(d)
        assert a.p_raw == b.p_raw
        assert a.observed_stat == b.observed_stat
        assert a.n_flips == b.n_flips


def test_mc_exhaustive_flip_count_must_match():
    with pytest.raises(ValueError):
        sign_flip_test([1.0, 2.0], n_flips=5, exhaustive=True)
    assert sign_flip_test([1.0, 2.0], n_flips=None, exhaustive=True).n_flips == 4


def test_mc_seed_determinism():
    d = np.linspace(-1, 2, 9)
    a = sign_flip_test(d, 5000, seed=3)
    b = sign_flip_test(d, 5000, seed=3)
    c = sign_flip_test(d, 5000, seed=4)
    assert a == b
    assert a.p_raw != c.p_raw or a.seed != c.seed


def test_mc_convergence_over_seeds():
    # |p_mc - p*| < 3 sqrt(p*(1-p*)/n_flips) in >= 99 of 100 seeds
    d = np.array([1.5, -0.5, 2.0, 0.25, -1.0, 0.75, 1.25, -0.25])
    p_star = sign_flip_test_exact(d).p_raw
    bound = 3.0 * np.sqrt(p_star * (1 - p_star) / 10000.0)
    hits = sum(
        abs(sign_flip_test(d, 10000, seed=s).p_raw - p_star) < bound for s in range(100)
    )
    assert hits >= 99


def test_scale_invariance_in_exact_mode():
    d = [3.0, -1.0, 2.0, 2.0, -4.0]
    base = sign_flip_test_exact(d).p_raw
    assert sign_flip_test_exact([2.0 * x for x in d]).p_raw == base
    assert sign_flip_test_exact([3.0 * x for x in d]).p_raw == base


def test_mc_validation():
    with pytest.raises(ValueError):
        sign_flip_test([1.0], n_flips=0)
    with pytest.raises(ValueError):
        sign_flip_test([], n_flips=10)


def test_bonferroni_wired_into_result():
    res = sign_flip_test([1.0] * 25, n_flips=100, seed=0, bonferroni_m=36)
    assert res.p_adjusted == min(1.0, 36 * res.p_raw)
    assert res.m == 36


# --- ranking ------------------------------------------------------------------------

def _table(rows):
    return [MetricRecord(*row) for row in rows]


def _full_table(values):
    """values: {model: (dice, hd95)} applied to every cell of 2 subjects."""
    rows = []
    for subject in ("s1", "s2"):
        for model, (d, h) in values.items():
            for region in ("ET", "TC", "WT"):
                rows.append(MetricRecord(subject, model, region, d, h))
    return rows


def test_rank_strict_dominance():
    table = _full_table({"A": (0.9, 2.0), "B": (0.5, 8.0)})
    entries = rank_models(table)
    assert [(e.model_id, e.rank_score) for e in entries] == [("A", 1.0), ("B", 2.0)]


def test_rank_three_way_tie_midrank():
    table = _full_table({"A": (0.7, 3.0), "B": (0.7, 3.0), "C": (0.7, 3.0)})
    entries = rank_models(table)
    assert all(e.rank_score == 2.0 for e in entries)  # (1+2+3)/3


def test_rank_identical_pair():
    table = _full_table({"A": (0.7, 3.0), "B": (0.7, 3.0)})
    entries = rank_models(table)
    assert all(e.rank_score == 1.5 for e in entries)


def test_rank_hd95_lower_is_better():
    table = _full_table({"A": (0.5, 1.0), "B": (0.5, 9.0)})
    entries = rank_models(table)
    scores = {e.model_id: e.rank_score for e in entries}
    assert scores["A"] < scores["B"]


def test_rank_missing_cells_listed():
    table = _full_table({"A": (0.9, 2.0), "B": (0.5, 8.0)})
    removed = table.pop(3)
    with pytest.raises(ValueError) as err:
        rank_models(table)
    assert removed.subject_id in str(err.value) and removed.model_id in str(err.value)


def test_rank_duplicate_cells_rejected():
    table = _full_table({"A": (0.9, 2.0)})
    table.append(table[0])
    with pytest.raises(ValueError, match="duplicate"):
        rank_models(table)


def test_rank_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    rows = []
    for subject in ("s1", "s2", "s3"):
        for model in ("A", "B", "C"):
            for region in ("ET", "TC", "WT"):
                rows.append(
                    MetricRecord(subject, model, region, float(rng.random()), float(rng.random() * 10))
                )
    base = rank_models(rows)
    squashed = [
        MetricRecord(r.subject_id, r.model_id, r.region, float(np.tanh(2 * r.dice)), r.hd95_mm)
        for r in rows
    ]
    assert rank_models(squashed) == base


def test_rank_normalize_flag():
    table = _full_table({"A": (0.9, 2.0), "B": (0.5, 8.0)})
    entries = rank_models(table, normalize=True)
    assert [(e.model_id, e.rank_score) for e in entries] == [("A", 0.5), ("B", 1.0)]


@pytest.mark.parametrize("normalize", [False, True])
def test_rank_bit_equal_to_rankdata_oracle_on_tie_heavy_tables(normalize):
    rng = np.random.default_rng(11)
    for _ in range(150):
        n_subjects, n_models = (int(v) for v in rng.integers(1, [5, 6]))
        rows = [
            MetricRecord(
                f"s{s}",
                f"m{m}",
                region,
                float(rng.choice([0.0, 1.0, 0.5, rng.random()])),
                float(rng.choice([0.0, 373.0, 2.0, 10.0 * rng.random()])),
            )
            for s in range(n_subjects)
            for m in range(n_models)
            for region in ("ET", "TC", "WT")
        ]
        rng.shuffle(rows)
        got = [(e.model_id, e.rank_score) for e in rank_models(rows, normalize=normalize)]
        assert got == oracle_rank_models(rows, normalize=normalize)


# --- dependencies -------------------------------------------------------------------

def test_importing_the_cli_does_not_load_scipy_stats():
    code = (
        "import sys, voxaug.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_src_has_no_scipy_stats_import():
    pattern = re.compile(r"^\s*(from|import)\s+scipy\.stats\b|^\s*from\s+scipy\s+import\b.*\bstats\b", re.M)
    package = Path(voxaug.__file__).resolve().parent
    assert [p.name for p in sorted(package.rglob("*.py")) if pattern.search(p.read_text())] == []
