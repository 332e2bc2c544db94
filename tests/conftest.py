"""Puts `src/` on the PYTHONPATH of the subprocesses the tests start.

`pyproject.toml` puts `src/` on this process's `sys.path`; a test that runs
`python -m quivrep.cli` inherits only the environment, so a fresh checkout
without an install needs this too.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
