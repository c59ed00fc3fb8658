"""Which scipy submodules a process loads, and when.

Every ``voxaug`` module is numpy-only at import time; each scipy submodule is
imported by the one function that uses it. Each check below runs in a fresh
interpreter, because this test session has scipy loaded already.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voxaug
from voxaug.cli import main

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _scipy_loaded_after(statement: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after ``statement``."""
    code = f"import json, sys\n{statement}\nprint(json.dumps({SCIPY_MODULES}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["voxaug", "voxaug.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_loaded_after(f"import {module}") == []


def test_src_has_no_module_level_scipy_import():
    pattern = re.compile(r"^(from|import)\s+scipy\b", re.M)
    package = Path(voxaug.__file__).resolve().parent
    assert [p.name for p in sorted(package.rglob("*.py")) if pattern.search(p.read_text())] == []


# --- subcommands ------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Two phantom subjects and a metrics table holding two models."""
    root = tmp_path_factory.mktemp("campaign")
    subjects, table = root / "subjects", root / "metrics.csv"
    assert main(["phantom", "--seed", "2", "--count", "2", "--shape", "20,20,16",
                 "--out", str(subjects)]) == 0
    for model in ("A", "B"):
        assert main(["evaluate", "--pred", str(subjects), "--truth", str(subjects),
                     "--model-id", model, "--out", str(table), "--append"]) == 0
    return {"root": root, "subjects": subjects, "table": table}


def _scipy_loaded_by_main(argv: list[str]) -> list[str]:
    statement = f"from voxaug.cli import main\nassert main({argv!r}) == 0"
    return _scipy_loaded_after(statement)


def test_compare_and_rank_load_no_scipy(campaign):
    table = str(campaign["table"])
    compare = ["compare", "--metrics", table, "--model-a", "A", "--model-b", "B",
               "--metric", "hd95", "--region", "WT", "--flips", "100"]
    rank = ["rank", "--metrics", table, "--out", str(campaign["root"] / "ranks.csv")]
    assert _scipy_loaded_by_main(compare) == []
    assert _scipy_loaded_by_main(rank) == []


def test_evaluate_loads_no_scipy(campaign):
    subjects = str(campaign["subjects"])
    loaded = _scipy_loaded_by_main(
        ["evaluate", "--pred", subjects, "--truth", subjects, "--model-id", "C",
         "--out", str(campaign["root"] / "c.csv")]
    )
    assert loaded == []


def test_hausdorff95_loads_no_scipy():
    statement = (
        "from voxaug import metrics\n"
        "from voxaug.volume import make_phantom\n"
        "a, b = (metrics.region_masks(make_phantom(s, (20, 18, 16)).labels)['WT'] for s in (1, 2))\n"
        "assert metrics.hausdorff95(a, b) > 0"
    )
    assert _scipy_loaded_after(statement) == []


# --- concurrent first use ---------------------------------------------------------
# Three threads make their first calls at the same moment: two of them load
# scipy.ndimage and scipy.interpolate, and hausdorff95, which loads nothing,
# runs beside them. Per-module import locks make this safe as long as the
# imports form no cycle: scipy.interpolate imports scipy.spatial, and neither
# scipy.spatial nor scipy.ndimage imports another.

_FIRST_USE = """
import hashlib, json, sys, threading
import numpy as np
from voxaug import interp, metrics
from voxaug.volume import make_phantom

sample = make_phantom(1, (20, 18, 16))
other = make_phantom(2, (20, 18, 16))
grid = np.random.default_rng(0).normal(scale=2.0, size=(4, 4, 4, 3))
pred, truth = metrics.region_masks(sample.labels)["WT"], metrics.region_masks(other.labels)["WT"]

def digest(s):
    arrays = [ch.data for ch in s.channels] + [s.labels.data]
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

jobs = {
    "warp": lambda: digest(sample.map(
        *interp.warp(sample.shape, [interp.AffineTransform.rotation_xyz((12.0, -20.0, 7.0))])
    )),
    "bspline_upsample": lambda: hashlib.sha256(
        interp.bspline_upsample(grid, sample.shape).tobytes()
    ).hexdigest(),
    "hausdorff95": lambda: repr(metrics.hausdorff95(pred, truth)),
}
before = %s
results = {}
if sys.argv[1] == "threads":
    sys.setswitchinterval(1e-5)  # interleave the three imports finely
    barrier = threading.Barrier(len(jobs), timeout=60)

    def run(name, job):
        barrier.wait()
        try:
            results[name] = job()
        except Exception as exc:
            results[name] = f"raised {exc!r}"

    threads = [threading.Thread(target=run, args=item, daemon=True) for item in jobs.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
else:
    results = {name: job() for name, job in jobs.items()}
print(json.dumps({"before": before, "results": results}))
""" % SCIPY_MODULES


def _first_use(mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_USE, mode], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_concurrent_first_use_matches_a_sequential_run():
    threaded, sequential = _first_use("threads"), _first_use("sequential")
    assert threaded["before"] == sequential["before"] == []
    assert sorted(threaded["results"]) == ["bspline_upsample", "hausdorff95", "warp"]
    assert threaded["results"] == sequential["results"]
