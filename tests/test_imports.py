import os
import subprocess
import sys
from pathlib import Path

import lefschetz

SCRIPT = """
import importlib, pkgutil, sys
import lefschetz
names = [info.name for info in
         pkgutil.iter_modules(lefschetz.__path__, "lefschetz.")]
for name in names:
    importlib.import_module(name)
print(len(names), "numpy" in sys.modules, "fractions" in sys.modules)
"""


def test_importing_lefschetz_does_not_import_numpy_or_fractions():
    # a fresh interpreter, so that nothing this test run imported counts
    src = str(Path(lefschetz.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    count, numpy_loaded, fractions_loaded = proc.stdout.split()
    assert int(count) >= 11
    assert numpy_loaded == "False"
    # every coefficient is an int, in every field
    assert fractions_loaded == "False"
