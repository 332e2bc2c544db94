#!/usr/bin/env python3
"""Write ``perfbench/refs.json``, the references every run is checked against.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are the accepted answers: the
references make a change that alters any answer fail the benchmark, so
re-pinning is itself a benchmark change and must say why.  It records:

* grid: sha256 of ``FamilyReport.to_kv()`` and ``to_text()`` and of each
  row, for (2,2,2,2,2) and for the self-test's (1,1,1,1,1), after checking
  the documented facts and that the audit seed does not change the report;
* survey: the digest of every certificate's ``lines()`` for every shape
  and entry variant a seed can choose;
* cli: exit code, stdout digest and written-file digests of every
  invocation any seed's script can contain, run as real subprocesses;
* seed_counters: the traced exact counters at seed 0, so later traced
  runs can name what an optimisation changed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, fresh_import, run
from workloads import (BROKEN_QUIVER, CLI_EPISODES, FIXED_OPS, GRID_FACTS,
                       SURVEY_SHAPES, SURVEY_VARIANTS, cert_digest, digest,
                       episode_ops, grid_fact_problems, grid_key, op_outcome,
                       row_digests, survey_point, survey_shape)


def pin_grid(q, params) -> dict:
    entries = {}
    for seed in (0, 1):
        try:
            report, outcome = q.verify_family(q.FamilyParams(*params), seed=seed), "ok"
        except (q.InequalityViolated, q.DecompositionMismatch) as exc:
            report, outcome = exc.report, type(exc).__name__
        problems = grid_fact_problems(report, GRID_FACTS[grid_key(params)])
        if problems:
            raise SystemExit(f"grid {params}: {problems}")
        kv = report.to_kv()
        rows = row_digests(kv)
        entries[seed] = {"outcome": outcome, "kv": digest(kv),
                         "text": digest(report.to_text()),
                         "rows": [rows[i] for i in range(len(rows))]}
    if entries[0] != entries[1]:
        raise SystemExit(f"grid {params}: report depends on the audit seed")
    return entries[0]


def pin_survey(q) -> list:
    out = []
    for i in range(SURVEY_SHAPES):
        shape = survey_shape(q, i)
        out.append([cert_digest(q.regularity_certificate(
            survey_point(q, shape, i, v), shape.bq, assert_gldim2=True))
            for v in range(SURVEY_VARIANTS)])
    return out


def pin_cli() -> dict:
    work = OUT / "pin-work"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ops = list(FIXED_OPS) + [op for e in range(len(CLI_EPISODES)) for op in episode_ops(e)]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "broken.quiver").write_text(BROKEN_QUIVER)
    pins = {}
    for op in ops:
        proc = subprocess.run([sys.executable, "-m", "quivrep.cli", *op.argv], cwd=work,
                              env=env, capture_output=True, text=True, timeout=120)
        pins[op.key] = op_outcome(op, proc.returncode, proc.stdout, work)
    shutil.rmtree(work)
    expected_exit = {"paper-verify": 0, "parse-error": 2, "usage-error": 2}
    for key, code in expected_exit.items():
        if pins[key]["exit"] != code:
            raise SystemExit(f"cli {key}: exit {pins[key]['exit']}, expected {code}")
    return pins


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    q = fresh_import(True)
    refs = {"grid": {grid_key(p): pin_grid(q, p) for p in ((2, 2, 2, 2, 2), (1, 1, 1, 1, 1))},
            "survey": pin_survey(q),
            "cli": pin_cli(),
            "seed_counters": {}}
    path = HERE / "refs.json"
    path.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")
    for name in ("grid", "survey", "cli"):
        result, record = run(name, 0, 0, True)
        if not result["correct"]:
            raise SystemExit(f"{name}: traced run failed its checks: {record['problems']}")
        refs["seed_counters"][name] = {"0": record["counters"]}
    path.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
