"""The network's arrays are the one way to read received powers, margins and boxes.

power's per-node functions are leaves: no module of the package outside
power calls or imports received_power, node_delta, max_safe_gain or
exact_transmit_power, and no module calls downstream_gains.  The array
wrappers received_powers, safe_gains and power_margin are gone, and no
module of the package, its tests, demos or benchmark imports or calls them.
The rules are read from each module's syntax tree, so a new call fails here
before any test runs it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anclab"
MODULES = sorted(PACKAGE.glob("*.py"))
EVERY_FILE = sorted(
    path for folder in (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench")
    for path in folder.rglob("*.py")
)
PER_NODE = {"received_power", "node_delta", "max_safe_gain", "exact_transmit_power"}
DELETED = {"received_powers", "safe_gains", "power_margin"}


def used_names(source: str) -> tuple[set[str], set[str]]:
    """Names a source calls, bare or as an attribute, and names it imports from a module."""
    called, imported = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                called.add(func.id)
            elif isinstance(func, ast.Attribute):
                called.add(func.attr)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
    return called, imported


@pytest.mark.parametrize(
    "source, seen",
    [
        ("received_power(net, net.destination)", "called"),
        ("power.max_safe_gain(net, k)", "called"),
        ("def f():\n    return node_delta(net, k)", "called"),
        ("from .power import exact_transmit_power", "imported"),
        ("from anclab.power import received_power as p_r", "imported"),
    ],
)
def test_every_use_form_is_seen(source, seen):
    called, imported = used_names(source)
    assert (called if seen == "called" else imported) & PER_NODE


def test_no_module_outside_power_reads_a_per_node_function():
    # The package's __init__ re-exports them; that import is not a read.
    readers = {
        path.name: sorted(set.union(*used_names(path.read_text())) & PER_NODE)
        for path in MODULES
        if path.stem not in ("power", "__init__")
    }
    assert {name: used for name, used in readers.items() if used} == {}


def test_no_module_calls_downstream_gains():
    callers = [path.name for path in MODULES if "downstream_gains" in used_names(path.read_text())[0]]
    assert callers == []


def test_nothing_uses_the_deleted_array_wrappers():
    users = {
        str(path.relative_to(ROOT)): sorted(set.union(*used_names(path.read_text())) & DELETED)
        for path in EVERY_FILE
    }
    assert {name: used for name, used in users.items() if used} == {}
