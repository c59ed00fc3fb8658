import os
import re

import pytest

from voxaug.cli import main
from voxaug.metrics import MetricRecord
from voxaug.stats import RankEntry
from voxaug.tables import read_metrics, write_metrics, write_ranks


def _rec(subject, model, region, dice, hd95):
    return MetricRecord(subject, model, region, dice, hd95)


ROWS = [
    _rec("s2", "A", "WT", 0.9, 1.5),
    _rec("s1", "B", "ET", 0.25, 373.0),
    _rec("s1", "A", "TC", 1.0, 0.0),
]


def test_round_trip_and_sorting(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics(ROWS, path)
    back = read_metrics(path)
    assert back == sorted(ROWS, key=lambda r: (r.subject_id, r.model_id, r.region))
    header = path.read_text().splitlines()[0]
    assert header == "subject_id,model_id,region,dice,hd95_mm"


def test_floats_survive_exactly(tmp_path):
    path = tmp_path / "m.csv"
    rows = [_rec("s", "m", "WT", 1 / 3, 2.0 / 7.0)]
    write_metrics(rows, path)
    back = read_metrics(path)
    assert back[0].dice == 1 / 3
    assert back[0].hd95_mm == 2.0 / 7.0


def test_append_extends_table(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics(ROWS[:2], path)
    write_metrics(ROWS[2:], path, append=True)
    assert len(read_metrics(path)) == 3
    assert path.read_text().count("subject_id") == 1


def test_append_to_missing_file_writes_header(tmp_path):
    path = tmp_path / "fresh.csv"
    write_metrics(ROWS, path, append=True)
    assert read_metrics(path) == sorted(ROWS, key=lambda r: (r.subject_id, r.model_id, r.region))


@pytest.mark.parametrize("rows", [ROWS[:2], []], ids=["rows", "header-only"])
def test_append_onto_table_without_final_newline(tmp_path, rows):
    stripped, terminated = tmp_path / "stripped.csv", tmp_path / "terminated.csv"
    write_metrics(rows, terminated)
    stripped.write_bytes(terminated.read_bytes().rstrip(b"\n"))
    for path in (stripped, terminated):
        write_metrics(ROWS[2:], path, append=True)
    assert stripped.read_bytes() == terminated.read_bytes()
    assert read_metrics(stripped) == [*sorted(rows, key=lambda r: (r.subject_id, r.model_id, r.region)), *ROWS[2:]]


def test_append_rejects_keys_already_in_the_table(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics(ROWS, path)
    before = path.read_bytes()
    again = [_rec("s3", "A", "WT", 0.5, 2.0), _rec("s1", "B", "ET", 0.5, 2.0)]
    with pytest.raises(ValueError, match=re.escape("duplicate metric rows for [('s1', 'B', 'ET')]")):
        write_metrics(again, path, append=True)
    assert path.read_bytes() == before


@pytest.mark.parametrize("append", [False, True])
def test_write_rejects_repeated_keys_among_the_records(tmp_path, append):
    path = tmp_path / "m.csv"
    rows = [*ROWS, _rec("s2", "A", "WT", 0.5, 2.0)]
    with pytest.raises(ValueError, match=re.escape("duplicate metric rows for [('s2', 'A', 'WT')]")):
        write_metrics(rows, path, append=append)
    assert not path.exists()


def test_append_rejects_foreign_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="existing header"):
        write_metrics(ROWS, path, append=True)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("subject,model,region,dice,hd95\n")
    with pytest.raises(ValueError, match="bad header"):
        read_metrics(path)


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "subject_id,model_id,region,dice,hd95_mm\n"
        "s1,A,WT,0.5,1.0\n"
        "s1,A,TC,0.5\n"
    )
    with pytest.raises(ValueError, match=r"m\.csv:3: expected 5 fields"):
        read_metrics(path)


def test_read_validates_values_with_line_numbers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "subject_id,model_id,region,dice,hd95_mm\n"
        "s1,A,WT,1.5,1.0\n"
    )
    with pytest.raises(ValueError, match=r"m\.csv:2:"):
        read_metrics(path)


def test_write_ranks(tmp_path):
    path = tmp_path / "r.csv"
    write_ranks([RankEntry("A", 1.0), RankEntry("B", 2.5)], path)
    assert path.read_text() == "model_id,rank_score\nA,1.0\nB,2.5\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_read_rejects_non_finite_hd95_with_line_numbers(tmp_path, capsys, value):
    path = tmp_path / "m.csv"
    path.write_text(
        "subject_id,model_id,region,dice,hd95_mm\n"
        "s1,A,WT,0.5,1.0\n"
        f"s1,B,WT,0.5,{value}\n"
    )
    with pytest.raises(ValueError, match=r"m\.csv:3: hd95_mm must be finite"):
        read_metrics(path)
    code = main(["rank", "--metrics", str(path), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code != 0
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def _failing_replace(src, dst):
    raise OSError("disk gone")


@pytest.mark.parametrize(
    "write",
    [
        lambda p: write_metrics(ROWS[2:], p),
        lambda p: write_metrics(ROWS[2:], p, append=True),
        lambda p: write_ranks([RankEntry("A", 1.0)], p),
    ],
    ids=["metrics", "append", "ranks"],
)
def test_failed_write_leaves_previous_table_intact(tmp_path, monkeypatch, write):
    path = tmp_path / "m.csv"
    write_metrics(ROWS[:2], path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]
