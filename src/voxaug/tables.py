"""CSV exchange formats for metric and rank tables.

Metric tables use the header ``subject_id,model_id,region,dice,hd95_mm``
with one row per (subject, model, region): the key rule is
:func:`voxaug.common.metric_cells`, which ``write_metrics`` applies to the
records it writes. Rows are sorted by that key triple before writing so
parallel producers yield byte-identical files.
Floats are rendered with ``repr`` (shortest round-trip form). Tables are
written whole to a temp file and renamed into place, so a failed write
leaves any previous table intact.
"""

import csv
import io
from pathlib import Path

from .common import MetricRecord, RankEntry, atomic_write_bytes, metric_cells

METRIC_HEADER = ("subject_id", "model_id", "region", "dice", "hd95_mm")
RANK_HEADER = ("model_id", "rank_score")


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def write_metrics(records: list[MetricRecord], path, append: bool = False) -> None:
    """Write (or append) a metric table; the appended block is itself sorted.

    A (subject, model, region) key may appear once in the table: records
    that repeat a key among themselves are refused before the table is
    read, and then those that repeat a key of the existing table. The
    existing table is read and keyed as ``compare`` and ``rank`` read it
    (:func:`read_metrics`, then ``metric_cells``), so a table they would
    refuse is refused here too, with their message. Either way the file is
    left as it was.
    """
    path = Path(path)
    cells = metric_cells(records)
    rows = [[*key, repr(r.dice), repr(r.hd95_mm)] for key, r in sorted(cells.items())]
    existing = b""
    if append and path.exists() and path.stat().st_size > 0:
        existing = path.read_bytes()
        dupes = sorted(metric_cells(read_metrics(path)).keys() & cells.keys())
        if dupes:
            raise ValueError(f"duplicate metric rows for {dupes}")
        if not existing.endswith(b"\n"):
            existing += b"\n"
    else:
        rows.insert(0, METRIC_HEADER)
    atomic_write_bytes(path, existing + _csv_bytes(rows))


def read_metrics(path) -> list[MetricRecord]:
    """The records of the metric table at ``path``. Every refusal names the
    file: a row's by ``<path>:<line>:``, a bad header, undecodable bytes and
    a CSV syntax error by ``<path>:``."""
    path = Path(path)
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != list(METRIC_HEADER):
        raise ValueError(f"{path}: bad header {header}, expected {list(METRIC_HEADER)}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(METRIC_HEADER):
            raise ValueError(f"{path}:{lineno}: expected {len(METRIC_HEADER)} fields, got {len(row)}")
        subject_id, model_id, region, dice_s, hd95_s = row
        try:
            rec = MetricRecord(
                subject_id=subject_id,
                model_id=model_id,
                region=region,
                dice=float(dice_s),
                hd95_mm=float(hd95_s),
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        records.append(rec)
    return records


def write_ranks(entries: list[RankEntry], path) -> None:
    rows = [[e.model_id, repr(e.rank_score)] for e in entries]
    atomic_write_bytes(path, _csv_bytes([RANK_HEADER, *rows]))
