"""The benchmark's own smoke test, run as part of the test suite.

``perfbench/selftest.py`` runs every workload small, traced and untraced,
and checks the pinned report digests, so a change in ``src/`` that drops
a traced function or alters a pinned report fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


def test_perfbench_cli_script_reproduces_every_pinned_output():
    # The selftest runs five cli ops; the benchmark's full cli script runs all
    # 51 and checks the stdout digest of every family, validate, invariants,
    # certify, bisect, iso and euler call pinned in perfbench/refs.json.
    argv = [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout + proc.stderr
    assert proc.returncode == 0, proc.stderr
