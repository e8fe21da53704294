"""The path oracle stays independent of the fast path it checks.

anclab.oracle may import only network and gains from the package, and no
other module of the package may import it.  Both rules are read from each
module's syntax tree, so a new import fails here before any test runs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "anclab").glob("*.py"))


def package_imports(source: str) -> set[str]:
    """Names of the anclab modules that a module's source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "anclab" and len(parts) > 1:
                    names.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "anclab":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                names.add(parts[0])
            else:  # from . import x, from anclab import x
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "source",
    [
        "from .oracle import path_coefficient",
        "from . import oracle",
        "import anclab.oracle",
        "from anclab.oracle import count_paths",
        "from anclab import network, oracle",
        "def f():\n    from .oracle import enumerate_paths",
    ],
)
def test_every_import_form_is_seen(source):
    assert "oracle" in package_imports(source)


def test_no_other_module_imports_the_oracle():
    importers = [
        path.name
        for path in MODULES
        if path.stem != "oracle" and "oracle" in package_imports(path.read_text())
    ]
    assert importers == []


def test_oracle_imports_only_network_and_gains():
    assert package_imports((SRC / "anclab" / "oracle.py").read_text()) <= {"network", "gains"}


def test_importing_the_package_does_not_load_the_oracle():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, anclab; print('anclab.oracle' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
