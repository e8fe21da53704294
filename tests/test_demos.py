"""The checked-in artifacts regenerate byte for byte.

demos/07_sweep_experiments.py is the only producer of demos/output/*.csv;
its argument lists are run through the CLI into a temporary directory and
compared with the committed files.  demos/regenerate_configs.py is the only
producer of configs/*.json; each of its builders is saved the same way.
Demos 01-06 print to stdout only; each one's output is compared with
tests/data/demo-0N.txt.
"""

import importlib.util
import runpy
from pathlib import Path

import pytest

from anclab import save_network
from anclab.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CONFIGS = DEMOS.parent / "configs"
DATA = Path(__file__).resolve().parent / "data"
PRINTING_DEMOS = sorted(DEMOS.glob("0[1-6]_*.py"))


def _demo_module(name, filename):
    spec = importlib.util.spec_from_file_location(name, DEMOS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = _demo_module("sweep_experiments", "07_sweep_experiments.py").JOBS
BUILDERS = _demo_module("regenerate_configs", "regenerate_configs.py").BUILDERS


@pytest.mark.parametrize("label, name, args", JOBS, ids=[name for _, name, _ in JOBS])
def test_sweep_tables_regenerate_byte_identical(label, name, args, tmp_path):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0, label
    assert out.read_bytes() == (DEMOS / "output" / name).read_bytes(), label


def test_builders_cover_every_config():
    assert sorted(name for name, _ in BUILDERS) == sorted(p.name for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name, build", BUILDERS, ids=[name for name, _ in BUILDERS])
def test_configs_regenerate_byte_identical(name, build, tmp_path):
    out = tmp_path / name
    save_network(build(), str(out))
    assert out.read_bytes() == (CONFIGS / name).read_bytes(), name


@pytest.mark.parametrize("path", PRINTING_DEMOS, ids=[p.stem[:2] for p in PRINTING_DEMOS])
def test_demo_stdout_unchanged(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    expected = (DATA / f"demo-{path.stem[:2]}.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected
