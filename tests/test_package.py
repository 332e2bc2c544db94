"""The package's lazy re-exports, checked in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

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
code = cli.main(sys.argv[1:])
absent = ["quivrep.family", "quivrep.geometry", "quivrep.homology",
          "dataclasses", "inspect", "typing"]
loaded = [name for name in absent if name in sys.modules]
assert code == 0, code
assert "quivrep.textio" in sys.modules
assert loaded == [], loaded
"""


@pytest.mark.parametrize("argv, first_line", [
    (["validate"], "quiver OK: vertices=2 arrows=1"),
    (["euler", "--dim", "a=1,b=1", "--assume-tame-quasitilted"], "d1 = a=1,b=1"),
], ids=["validate", "euler-classification"])
def test_cli_process_loads_only_its_layers(tmp_path, argv, first_line):
    # -S keeps site-packages (and what their .pth files import) out of the child.
    quiver = tmp_path / "a2.quiver"
    quiver.write_text("vertex a\nvertex b\narrow x b a\n")
    src = os.path.dirname(os.path.dirname(quivrep.__file__))
    args = [argv[0], "--quiver", str(quiver), *argv[1:]]
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT_CHILD, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(first_line)


def test_quiver_import_loads_only_the_value_gate_and_errors():
    # The survey set-up builds its quivers from these modules alone, so the
    # number gate must not pull linalg (or anything else) into it.
    src = os.path.dirname(os.path.dirname(quivrep.__file__))
    child = ("import sys, quivrep.quiver; print(sorted(m for m in sys.modules "
             "if m == 'quivrep' or m.startswith('quivrep.')))")
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['quivrep', 'quivrep._value', 'quivrep.errors', 'quivrep.quiver']\n"


def test_every_export_is_defined_where_it_is_listed():
    # One public name per object: a module lists only what it defines.
    import importlib

    for module, names in quivrep._EXPORTS.items():
        sub = importlib.import_module(f"quivrep.{module}")
        assert not hasattr(sub, "__all__"), module  # _EXPORTS is the one list
        for name in names:
            assert getattr(sub, name).__module__ == f"quivrep.{module}", (module, name)
