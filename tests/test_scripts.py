"""The runnable scripts under ``scripts/``, run as subprocesses."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_family_sweep_prints_its_pinned_report():
    # The passing branch, a grid with flagged pairs and a mixed tuple, and
    # the sweep over every tuple of arms 1..2, pinned by digest: a change to
    # a form, a bound, a verdict or a pair changes it.
    script = os.path.join(ROOT, "scripts", "family_sweep.py")
    for args, want in [
        (["--params", "1,1,1,1,1", "--params", "2,2,2,2,2", "--params", "1,2,1,2,1"],
         "d90be70925a34eb6"),
        (["--max-arm", "2", "--seed", "1"], "3d4378e551555051"),
    ]:
        proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "InequalityViolated at (u=alpha2, v=xi2), (u=gamma2, v=delta2)" in proc.stdout
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest[:16] == want, args


def test_family_sweep_refuses_an_arm_length_below_one_as_a_usage_error():
    script = os.path.join(ROOT, "scripts", "family_sweep.py")
    for args, message in [
        (["--params", "0,1,1,1,1"], "arm length p must be an integer >= 1, got 0"),
        (["--max-arm", "0"], "argument --max-arm: arm length p must be an integer >= 1, got 0"),
        (["--max-arm", "-3"], "argument --max-arm: arm length p must be an integer >= 1, got -3"),
    ]:
        proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


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


def test_regularity_survey_with_relations_prints_its_pinned_report():
    # The docstring example, non-regular points and histogram included,
    # pinned by digest: a change to a certificate number changes the bytes.
    argv = [sys.executable, os.path.join(ROOT, "scripts", "regularity_survey.py"),
            "--count", "300", "--seed", "7"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "surveyed 300 points (seed 7, with relations)" in proc.stdout
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest[:16] == "487496332624afc1"


@pytest.mark.parametrize("args, message", [
    (["--count", "-3"], "argument --count: must be an integer >= 1, got -3"),
    (["--hereditary", "--count", "0"], "argument --count: must be an integer >= 1, got 0"),
    (["--show-gaps", "-1"], "argument --show-gaps: must be an integer >= 0, got -1"),
], ids=["negative-count", "zero-count", "negative-gaps"])
def test_regularity_survey_refuses_a_bad_count_as_a_usage_error(args, message):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "regularity_survey.py"),
                           *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_bench_pairs_refuses_an_unknown_claim_before_the_first_run(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: calls.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ROOT, "--change", ROOT, "--workload", "survey",
                          "--seeds", "1", "2", "--claim", "ops_per_sec", "--out", str(out)])
    assert exc.value.code == 2
    assert calls == [] and not out.exists()


def test_bench_pairs_runs_one_survey_pair_and_writes_the_comparison(tmp_path):
    # The current tree on both sides: one short pair, judged on ops_per_s.
    out = tmp_path / "bench.json"
    argv = [sys.executable, os.path.join(ROOT, "scripts", "bench_pairs.py"),
            "--parent", ROOT, "--change", ROOT, "--workload", "survey", "--seeds", "7",
            "--seconds", "1", "--claim", "ops_per_s", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    survey = bench["end_to_end"]["survey"]
    assert survey["seeds"] == [7] and survey["pairs"] == 1
    spec = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    assert list(survey["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for side in ("parent", "change"):
        runs = survey["runs"][side]
        assert runs["all_correct"] and runs["failed"] == 0
        assert runs["passes_per_run"][0] >= 3
    for name, m in survey["metrics"].items():
        parent, change = m["parent"]["median"], m["change"]["median"]
        worse = (change - parent) / parent * (1 if m["better"] == "lower" else -1)
        assert m["regression"] == round(worse, 4), name
        assert m["within_bound"] == (m["regression"] <= m["bound"]), name
    ops = survey["metrics"]["ops_per_s"]
    assert ops["per_seed"]["7"] == [ops["parent"]["median"], ops["change"]["median"]]
    assert bench["claim"]["metric"] == "ops_per_s"
    assert bench["claim"]["change_wins"] in ("0/1", "1/1")
    # Both sides are this tree: the same line count and the same modules.
    modules = sorted(path.name for path in (Path(ROOT) / "src" / "quivrep").glob("*.py"))
    lines = sum(len((Path(ROOT) / "src" / "quivrep" / name).read_text().splitlines())
                for name in modules)
    for side in ("parent", "change"):
        source = bench["source"][side]
        assert source["lines"] == lines
        assert sorted(source["compile_ms"]) == modules
        assert all(ms > 0 for ms in source["compile_ms"].values())
        assert source["compile_ms_total"] > 0
        assert source["cli_import_modules"] == ["quivrep", "quivrep._value", "quivrep.cli",
                                                "quivrep.errors", "quivrep.quiver",
                                                "quivrep.textio"]
        cli_files = ("__init__.py", "_value.py", "cli.py", "errors.py", "quiver.py", "textio.py")
        assert source["cli_import_compile_ms"] == pytest.approx(
            sum(source["compile_ms"][name] for name in cli_files), abs=1e-4)
