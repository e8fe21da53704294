"""report.json_text is the package's one JSON writer.

No module of the package other than report calls json.dump or json.dumps,
and report.as_json, the walk over dataclass fields that once turned a report
into JSON, is gone: no module of the package, its tests, demos or benchmark
imports or calls it.  The rules are read from each module's syntax tree, as
in test_power_leaves.  json_text refuses NaN and the infinities, which JSON
has no number for.
"""

import math

import pytest
from test_power_leaves import EVERY_FILE, MODULES, ROOT, used_names

from anclab.report import json_text

WRITERS = {"dump", "dumps"}


@pytest.mark.parametrize(
    "source, names",
    [
        ("json.dump(data, fh, indent=2)", WRITERS),
        ("text = json.dumps(data)", WRITERS),
        ("from json import dumps", WRITERS),
        ("report.as_json(value)", {"as_json"}),
        ("from .report import as_json", {"as_json"}),
    ],
)
def test_every_use_form_is_seen(source, names):
    assert set.union(*used_names(source)) & names


def test_only_report_writes_json():
    writers = [
        path.name
        for path in MODULES
        if path.stem != "report" and set.union(*used_names(path.read_text())) & WRITERS
    ]
    assert writers == []


def test_nothing_uses_as_json():
    users = [
        str(path.relative_to(ROOT))
        for path in EVERY_FILE
        if "as_json" in set.union(*used_names(path.read_text()))
    ]
    assert users == []


def test_json_text_sorts_keys_indents_and_ends_with_a_line_feed():
    assert json_text({"b": [1, None], "a": True}) == (
        '{\n  "a": true,\n  "b": [\n    1,\n    null\n  ]\n}\n'
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_non_finite_values(value):
    with pytest.raises(ValueError):
        json_text({"rate": value})
