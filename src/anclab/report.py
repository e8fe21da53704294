"""One writer for every report: a JSON rule and a CSV table.

JSON rule (as_json): a dataclass becomes a dict of its fields in order, a
NodeId becomes its "layer:index" text, dict keys become str, tuples become
lists, and every other value is kept as it is.  dataclasses.asdict is not
used because it would expand a NodeId into {"layer", "index"}.

CSV cell rule (cell): floats are written with 12 significant digits
(".12g"), booleans in lowercase, None as an empty cell, and anything else
through str().  A table is a header line plus one line per row, joined with
commas and ended with LF.  A table may give a column its own float format;
the one that does is the z column of AgreementReport.to_csv, with ".6g".
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Iterable

from .network import NodeId

FLOAT_FORMAT = ".12g"


def as_json(value):
    """JSON-ready copy of a report value under the module's JSON rule."""
    if isinstance(value, NodeId):
        return str(value)
    if is_dataclass(value):
        return {f.name: as_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): as_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [as_json(v) for v in value]
    return value


def json_text(value) -> str:
    """Indented JSON with sorted keys, no trailing newline."""
    return json.dumps(as_json(value), indent=2, sort_keys=True)


def cell(value, float_format: str) -> str:
    """One CSV cell under the module's cell rule."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def csv_table(
    header: Iterable[str], rows: Iterable[Iterable], float_formats: list[str] | None = None
) -> str:
    """Header line plus one line per row; float_formats sets each column's float format."""
    header = list(header)
    float_formats = float_formats or [FLOAT_FORMAT] * len(header)
    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row, float_formats)) for row in rows)
    return "\n".join(lines) + "\n"
