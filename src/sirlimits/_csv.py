"""The one number format and CSV writer behind every ``write_*_csv``."""

from __future__ import annotations


def fmt(x) -> str:
    """Round-trip decimal of a number; None becomes an empty cell."""
    return "" if x is None else format(float(x), ".17g")


def write_csv(path, header: str, lines) -> None:
    """Write the header, then each formatted line, each ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
