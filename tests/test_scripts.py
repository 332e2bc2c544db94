"""The runnable scripts under ``scripts/``, run as subprocesses."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_family_sweep_stdout_is_deterministic():
    # Wall times go to stderr, so two runs print the same stdout byte for byte.
    argv = [sys.executable, os.path.join(ROOT, "scripts", "family_sweep.py"),
            "--params", "1,1,1,1,1", "--params", "2,1,1,1,1"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count(" pass\n") == 2


def test_regularity_survey_stdout_is_deterministic():
    # Hereditary points all certify regular; a fixed seed prints the same bytes.
    argv = [sys.executable, os.path.join(ROOT, "scripts", "regularity_survey.py"),
            "--count", "20", "--hereditary"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert "surveyed 20 points" in runs[0].stdout
    assert "CertifiedRegular      20  (100.0%)" in runs[0].stdout
