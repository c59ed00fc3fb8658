import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import voxaug as vx
from voxaug.volume import extract_center_patch

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def _subprocess_pythonpath():
    """Let `python -m voxaug` children import the package this session imported.

    A relative PYTHONPATH entry (e.g. `PYTHONPATH=src`) stops resolving once a
    test starts a child with `cwd=tmp_path`, so the absolute directory holding
    the imported package is put first; existing entries are kept after it.
    """
    root = str(Path(vx.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, old])))
        yield


@pytest.fixture(scope="session")
def phantom_sample():
    """Moderate-size 4-channel phantom shared by read-only tests."""
    return vx.make_phantom(0, shape=(48, 48, 40), subject_id="fixture0")


@pytest.fixture(scope="session")
def small_sample(phantom_sample):
    return extract_center_patch(phantom_sample, (32, 32, 32))


@pytest.fixture()
def tiny_sample():
    """Single-channel 8^3 sample for cheap pipeline statistics."""
    data = np.linspace(0.0, 1.0, 512, dtype=np.float32).reshape(8, 8, 8)
    return vx.Sample(channels=(vx.Volume(data),), subject_id="tiny")


# --- acceptance summary -------------------------------------------------
# test_acceptance.py test names look like test_c03_sentinel_rules; after the
# run we print one PASS/FAIL line per criterion.

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid or report.when != "call":
        return
    m = re.search(r"test_c(\d+)_(\w+)", report.nodeid)
    if m:
        _ACCEPTANCE[int(m.group(1))] = (m.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        name, outcome = _ACCEPTANCE[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{name}]: {status}")
