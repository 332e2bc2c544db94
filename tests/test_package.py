"""The package's lazy re-exports, checked in a fresh interpreter."""

import os
import subprocess
import sys

import quivrep

CHILD = """
import sys
import quivrep
loaded = sorted(m for m in sys.modules if m == "quivrep" or m.startswith("quivrep."))
assert loaded == ["quivrep"], loaded
for name in quivrep.__all__:
    assert getattr(quivrep, name) is not None, name
    assert name in vars(quivrep), name  # cached after the first access
try:
    quivrep.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
print("ok", len(quivrep.__all__))
"""


def test_import_loads_no_submodule_and_every_export_resolves():
    # The child imports the same quivrep as this process.
    src = os.path.dirname(os.path.dirname(quivrep.__file__))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")
