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


FOOTPRINT_CHILD = """
import sys
import quivrep.cli as cli
code = cli.main(["validate", "--quiver", sys.argv[1]])
absent = ["quivrep.family", "quivrep.geometry", "quivrep.homology",
          "dataclasses", "inspect", "typing"]
loaded = [name for name in absent if name in sys.modules]
assert code == 0, code
assert "quivrep.textio" in sys.modules
assert loaded == [], loaded
"""


def test_validate_process_loads_only_its_layers(tmp_path):
    # -S keeps site-packages (and what their .pth files import) out of the child.
    quiver = tmp_path / "a2.quiver"
    quiver.write_text("vertex a\nvertex b\narrow x b a\n")
    src = os.path.dirname(os.path.dirname(quivrep.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT_CHILD, str(quiver)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("quiver OK: vertices=2 arrows=1")
