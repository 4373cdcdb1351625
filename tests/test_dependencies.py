"""lelab's sources import nothing beyond the standard library and numpy.

scipy, mpmath and hypothesis may serve the tests as oracles or generators,
but they stay out of src/.  The check imports every lelab module in a fresh
interpreter, where nothing else has imported them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_ALL = """
import importlib, pkgutil, sys
import lelab
names = sorted({"lelab.cli", *(f"lelab.{m.name}" for m in pkgutil.iter_modules(lelab.__path__))})
for name in names:
    importlib.import_module(name)
print(" ".join(names))
print(" ".join(m for m in ("scipy", "mpmath", "hypothesis") if m in sys.modules))
"""


def test_sources_import_no_test_only_dependency():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    imported, forbidden = done.stdout.split("\n")[:2]
    modules = {file.stem for file in (SRC / "lelab").glob("*.py")} - {"__init__"}
    assert imported.split() == sorted(f"lelab.{name}" for name in modules)
    assert forbidden == ""
