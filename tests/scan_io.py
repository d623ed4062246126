"""Readers for the CSV and JSON files that ncqo.scan.emit writes, and row equality.

Test helpers: the package only writes scan tables, the tests read them back.
"""

import json
import math

from ncqo.errors import ConfigError
from ncqo.scan import CSV_HEADER, ScanRow, ScanTable


def parse_csv(path: str) -> ScanTable:
    """Read back a CSV emitted by emit(); metadata is not stored in CSV."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} is not an ncqo scan CSV")
    rows = []
    for ln in lines[1:]:
        re_a, im_a, tau, value, valid, warn = ln.split(",")
        rows.append(
            ScanRow(
                float(re_a), float(im_a), float(tau), float(value),
                valid == "true", warn == "true",
            )
        )
    return ScanTable(rows=tuple(rows))


def parse_json(path: str) -> ScanTable:
    with open(path) as fh:
        payload = json.load(fh)
    rows = tuple(
        ScanRow(r["re_alpha"], r["im_alpha"], r["tau"], r["value"], r["valid"], r["warn"])
        for r in payload["rows"]
    )
    return ScanTable(rows=rows, metadata=payload.get("metadata", {}))


def rows_equal(a: ScanRow, b: ScanRow) -> bool:
    """Field-for-field equality treating NaN == NaN."""
    def feq(x, y):
        return (math.isnan(x) and math.isnan(y)) or x == y

    return (
        feq(a.re_alpha, b.re_alpha)
        and feq(a.im_alpha, b.im_alpha)
        and feq(a.tau, b.tau)
        and feq(a.value, b.value)
        and a.valid == b.valid
        and a.warn == b.warn
    )


def tables_equal(a: ScanTable, b: ScanTable) -> bool:
    return len(a.rows) == len(b.rows) and all(
        rows_equal(x, y) for x, y in zip(a.rows, b.rows)
    )
