"""The benchmark's own smoke test, run as part of the test suite.

``perfbench/selftest.py`` runs every workload small, traced and untraced,
and checks the pinned report digests, so a change in ``src/`` that drops
a traced function or alters a pinned report fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
