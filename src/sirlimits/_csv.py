"""The one number format, CSV writer and JSON writer behind every output file."""

from __future__ import annotations

import json


#: The one number format, as a printf field: round-trip decimals. Row
#: templates use it to format many cells with one ``%``.
CELL = "%.17g"


def fmt(x) -> str:
    """Round-trip decimal of a number; None becomes an empty cell."""
    return "" if x is None else CELL % float(x)


def write_csv(path, header: str, lines) -> None:
    """Write the header, then each formatted line, each ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_json(path, payload) -> None:
    """Write payload as JSON indented by 2 with sorted keys, ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
