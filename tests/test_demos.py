"""The checked-in sweep tables regenerate byte for byte.

demos/07_sweep_experiments.py is the only producer of demos/output/*.csv;
its argument lists are run through the CLI into a temporary directory and
compared with the committed files.
"""

import importlib.util
from pathlib import Path

import pytest

from anclab.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _sweep_jobs():
    spec = importlib.util.spec_from_file_location(
        "sweep_experiments", DEMOS / "07_sweep_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


JOBS = _sweep_jobs()


@pytest.mark.parametrize("label, name, args", JOBS, ids=[name for _, name, _ in JOBS])
def test_sweep_tables_regenerate_byte_identical(label, name, args, tmp_path):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0, label
    assert out.read_bytes() == (DEMOS / "output" / name).read_bytes(), label
