"""Every ``repro`` subpackage imports as a process's first ``repro`` import.

An import cycle between subpackages only shows when the import order is
unlucky, and the suite's own imports fix one order for the whole session;
each case therefore imports one module in a fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(module.name for module in pkgutil.iter_modules(repro.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_process(module):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.dirname(repro.__path__[0])
    completed = subprocess.run(
        [sys.executable, "-c", "import repro.{}".format(module)],
        capture_output=True, text=True, env=environment, timeout=120)
    assert completed.returncode == 0, completed.stderr
