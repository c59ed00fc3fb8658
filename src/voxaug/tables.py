"""CSV exchange formats for metric and rank tables.

Metric tables use the header ``subject_id,model_id,region,dice,hd95_mm``
with one row per (subject, model, region). Rows are sorted by that key
triple before writing so parallel producers yield byte-identical files.
Floats are rendered with ``repr`` (shortest round-trip form). Tables are
written whole to a temp file and renamed into place, so a failed write
leaves any previous table intact.
"""

import csv
import io
from collections import Counter
from pathlib import Path

from .metrics import MetricRecord
from .nifti import atomic_write_bytes
from .stats import RankEntry

METRIC_HEADER = ("subject_id", "model_id", "region", "dice", "hd95_mm")
RANK_HEADER = ("model_id", "rank_score")


def _sorted_rows(records: list[MetricRecord]) -> list[MetricRecord]:
    return sorted(records, key=lambda r: (r.subject_id, r.model_id, r.region))


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def write_metrics(records: list[MetricRecord], path, append: bool = False) -> None:
    """Write (or append) a metric table; the appended block is itself sorted.

    A (subject, model, region) key may appear once in the table: a record
    that repeats a key of the existing table, or of another record, is
    refused and the file is left as it was.
    """
    path = Path(path)
    rows = [
        [r.subject_id, r.model_id, r.region, repr(r.dice), repr(r.hd95_mm)]
        for r in _sorted_rows(records)
    ]
    keys = Counter(tuple(row[:3]) for row in rows)
    existing = b""
    if append and path.exists() and path.stat().st_size > 0:
        existing = path.read_bytes()
        reader = csv.reader(io.StringIO(existing.decode()))
        first = next(reader, None)
        if first != list(METRIC_HEADER):
            raise ValueError(f"{path}: existing header {first} does not match {list(METRIC_HEADER)}")
        keys.update({tuple(row[:3]) for row in reader if row} & set(keys))
        if not existing.endswith(b"\n"):
            existing += b"\n"
    else:
        rows.insert(0, METRIC_HEADER)
    dupes = sorted(k for k, c in keys.items() if c > 1)
    if dupes:
        raise ValueError(f"duplicate metric rows for {dupes}")
    atomic_write_bytes(path, existing + _csv_bytes(rows))


def read_metrics(path) -> list[MetricRecord]:
    path = Path(path)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(METRIC_HEADER):
            raise ValueError(f"{path}: bad header {header}, expected {list(METRIC_HEADER)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
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
