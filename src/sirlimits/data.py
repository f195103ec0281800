"""Daily case-count ingestion.

Input files are plain CSV with header ``date,count``, ISO-8601 dates, one row
per day, in any order. Validation is strict: dates must be unique, the rows
are sorted by date and must then be daily-spaced, and counts must be
nonnegative integers. Missing days are a hard error; nothing is imputed.

A fixture with New York City's reported daily cases for the first two weeks
of the 2020 outbreak (2020-02-29 through 2020-03-14) ships with the package
so the case study runs offline; see ``nyc_fixture_path``. The upstream source
is the NYC Health Department's public coronavirus-data repository; note that
the repository revised early counts over time, so snapshots differ slightly.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CaseDataError

#: Standard 2019 population estimate for New York City.
NYC_POPULATION = 8_399_000


@dataclass(frozen=True)
class CaseData:
    """Validated daily counts for one jurisdiction."""

    dates: tuple
    counts: np.ndarray
    population: int

    def __post_init__(self):
        if len(self.dates) != len(self.counts):
            raise CaseDataError("dates and counts differ in length", code="malformed-csv")
        if len(self.dates) == 0:
            raise CaseDataError("no rows in range", code="empty-series")

    def __len__(self) -> int:
        return len(self.counts)


def _parse_date(raw: str, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(raw.strip())
    except ValueError as exc:
        raise CaseDataError(f"line {line}: bad date {raw!r}: {exc}", code="bad-date") from exc


def load_cases(path, population: int) -> CaseData:
    """Load and validate a daily case-count CSV, its rows sorted by date.

    Raises CaseDataError with a machine-readable ``code`` on any defect: a
    duplicate date, or a gap between consecutive dates once sorted.
    """
    path = Path(path)
    rows: list[tuple[dt.date, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CaseDataError(f"{path}: empty file", code="malformed-csv") from None
        header = [h.strip().lower() for h in header]
        if header[:2] != ["date", "count"]:
            raise CaseDataError(
                f"{path}: expected header 'date,count', got {','.join(header)!r}",
                code="missing-column",
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CaseDataError(f"line {lineno}: expected 2 fields", code="malformed-csv")
            date = _parse_date(row[0], lineno)
            try:
                count = int(row[1])
            except ValueError as exc:
                raise CaseDataError(
                    f"line {lineno}: count {row[1]!r} is not an integer", code="malformed-csv"
                ) from exc
            if count < 0:
                raise CaseDataError(
                    f"line {lineno}: negative count {count} on {date}", code="negative-count"
                )
            rows.append((date, count))

    if not rows:
        raise CaseDataError(f"{path}: no data rows", code="empty-series")

    seen = set()
    for d, _ in rows:
        if d in seen:
            raise CaseDataError(f"duplicate date {d}", code="duplicate-date")
        seen.add(d)
    rows.sort(key=lambda item: item[0])
    for (d_prev, _), (d_next, _) in zip(rows, rows[1:]):
        gap = (d_next - d_prev).days
        if gap != 1:
            raise CaseDataError(
                f"missing day(s) between {d_prev} and {d_next}", code="missing-date"
            )

    return CaseData(
        dates=tuple(d for d, _ in rows),
        counts=np.array([c for _, c in rows], dtype=np.int64),
        population=int(population),
    )


def nyc_fixture_path() -> Path:
    """Path to the vendored NYC daily-case fixture (2020-02-29 .. 2020-03-14)."""
    return Path(resources.files("sirlimits") / "_data" / "nyc_daily_cases_2020.csv")


def load_nyc_fixture(population: int = NYC_POPULATION) -> CaseData:
    return load_cases(nyc_fixture_path(), population)
