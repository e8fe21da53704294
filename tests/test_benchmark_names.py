"""The functions the benchmark tracer wraps still exist.

perfbench/tracer.py names, per anclab module, the entry points whose calls
and time make up each per-layer metric.  A name that disappears makes the
tracer report zero for it instead of failing, so this checks every name
against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _tracer_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_are_callable(layer):
    module = importlib.import_module(f"anclab.{layer}")
    for name in LAYERS[layer]:
        assert callable(getattr(module, name, None)), f"anclab.{layer}.{name}"
