"""Each plkernel module imports alone in a fresh interpreter, so that an
import cycle fails here whichever module a program imports first."""

import importlib.util
import os
import subprocess
import sys

import pytest

# found without importing any plkernel module, which could hide a cycle
PACKAGE = list(importlib.util.find_spec("plkernel").submodule_search_locations)[0]
SRC = os.path.dirname(PACKAGE)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import plkernel.{module}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
