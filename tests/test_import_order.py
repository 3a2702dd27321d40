"""Every ``repro`` subpackage imports cleanly when it is imported first.

An import cycle between two packages fails only when a fresh
interpreter enters it from one particular side; inside the test
process everything is already imported, so each import here runs in a
new interpreter.  For the same reason, so does the check that building
an in-process oracle imports no server.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
) + ["repro.sat.solver"]


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_an_oracle_imports_no_server():
    """An in-process oracle compiles its circuit itself: importing the
    attacks and building one imports neither the serving stack nor
    asyncio."""
    code = "\n".join([
        "import sys",
        "from repro.attacks import CombinationalOracle",
        "from repro.bench import iwls_benchmark",
        "CombinationalOracle(iwls_benchmark('s1238').circuit)",
        "print(sorted({'repro.serve', 'asyncio'} & set(sys.modules)))",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
