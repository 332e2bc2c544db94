#!/usr/bin/env python3
"""Seconds-long smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload small (``grid`` on (1,1,1,1,1), 20 ``survey`` points,
5 ``cli`` calls), untraced and traced, and asserts that the checks pass
and that every metric BENCHMARK.json names is reported.  Then it feeds
altered reports to the comparators and asserts that they are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import HERE, ROOT, fresh_import, run
from workloads import cert_digest, grid_mismatches, survey_point, survey_shape


def check_runs(spec: dict) -> None:
    for name in ("grid", "survey", "cli"):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run(name, 3, 0, trace, small=True)
            assert result["correct"], (name, trace, record["problems"])
            assert result["failed"] == 0 and result["attempted"] > 0, (name, trace, result)
            wanted = [m["name"] for m in spec[kind]]
            assert list(result["metrics"]) == wanted, (name, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            print(f"ok {name} trace={int(trace)} ops={result['attempted']}")


def check_comparators(refs: dict) -> None:
    q = fresh_import(False)
    try:
        report = q.verify_family(q.FamilyParams(1, 1, 1, 1, 1))
    except q.QuivrepError as exc:
        raise AssertionError(f"(1,1,1,1,1) grid no longer passes: {exc}") from None
    pins = refs["grid"]["1,1,1,1,1"]
    kv, text = report.to_kv(), report.to_text()
    assert grid_mismatches(kv, text, pins) == []
    line = next(x for x in kv.splitlines() if x.startswith("row.3.direct = "))
    value = int(line.rsplit(" ", 1)[1])
    altered = kv.replace(line, f"row.3.direct = {value + 1}")
    assert grid_mismatches(altered, text, pins) == [3], "altered row accepted"
    assert grid_mismatches(kv, text.replace("ALL CHECKS PASSED", "ALL CHECKS PASS"),
                           pins) == list(range(len(pins["rows"]))), "altered text accepted"

    shape = survey_shape(q, 0)
    cert = q.regularity_certificate(survey_point(q, shape, 0, 0), shape.bq,
                                    assert_gldim2=True)
    assert cert_digest(cert) == refs["survey"][0][0]
    forged = dataclasses.replace(cert, z_self_dim=cert.z_self_dim + 1)
    assert cert_digest(forged) != refs["survey"][0][0], "altered certificate accepted"
    print("ok comparators reject altered reports")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "refs.json").read_text())
    check_runs(spec)
    check_comparators(refs)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
