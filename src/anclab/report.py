"""One writer for every report: JSON text and a CSV table.

Each report writes its own to_dict of plain JSON values: dicts with str
keys, lists, str, int, float, bool and None, a node as its "layer:index"
text.  json_text is the package's one JSON writer: two-space indent, sorted
keys, a final LF.  It refuses NaN and the infinities, which JSON has no
number for, with a ValueError that the CLI prints as one error: line.  The
one infinite value a report is known to build is an agreement check's z
when a standard error is exactly 0 and the two values differ.

CSV cell rule (cell): floats are written with 12 significant digits
(".12g"), booleans in lowercase, None as an empty cell, and anything else,
a string included, through str().  A column with another float format
hands its cells in as strings, as AgreementReport.to_csv does for z with
".6g".  A table is a header line plus one line per row, joined with commas
and ended with LF.
"""

from __future__ import annotations

import json
from typing import Iterable


def json_text(value) -> str:
    """Indented JSON with sorted keys and a final LF; NaN and infinities are refused."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cell(value) -> str:
    """One CSV cell under the module's cell rule."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def csv_table(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Header line plus one line per row."""
    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
