#!/usr/bin/env python3
"""Layered benchmark for quivrep: one command, three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid|survey|cli --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json, with
every time scaled by the host's speed as ``hostspeed`` probes it;
``--trace 1`` measures its per-layer metrics instead.  Every output is
checked against the pinned references in ``perfbench/refs.json``.  The
last stdout line is the result object; the line before it is the run
record (interpreter, CPU count, source digest, load average, seeds, op
counts), also written to ``perfbench/out/``.  The exit code is 0 only
when every check passed, and 2 when the checkout has no quivrep sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe
from tracing import Tracer
from workloads import Cli, Grid, Survey

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 4  # per pass
MIN_PASSES = 3
TRACED_PASSES = 2
PROBE_REPS = 5
# Speed probes whose median scales an op (see hostspeed.SpeedProbe): about
# a quarter second of probes for in-process ops, three seconds for `cli`.
PROBE_WINDOW = {"grid": 5, "survey": 5, "cli": 15}


def fresh_import(with_cli: bool):
    """Import quivrep from the checkout anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "quivrep" or n.startswith("quivrep.")]:
        del sys.modules[name]
    q = importlib.import_module("quivrep")
    if with_cli:
        importlib.import_module("quivrep.cli")
    return q


def make_workload(name: str, q, seed: int, refs: dict, small: bool = False):
    if name == "grid":
        return Grid(q, seed, refs, (1, 1, 1, 1, 1) if small else (2, 2, 2, 2, 2))
    if name == "survey":
        return Survey(q, seed, refs, 20 if small else 300)
    return Cli(q, seed, refs, ROOT, OUT / f"cli-work-{os.getpid()}", 5 if small else None)


def setup(name: str, seed: int, refs: dict, reps: int, small: bool, probe=None):
    """Import plus input construction, repeated, with a speed probe before
    each repeat; returns the last workload and each repeat's (start, wall)."""
    times = []
    for _ in range(reps):
        if probe is not None:
            probe.probe()
        start = time.perf_counter()
        workload = make_workload(name, fresh_import(name == "cli"), seed, refs, small)
        times.append((start, time.perf_counter() - start))
    return workload, times


def p80(values):
    """Nearest-rank 80th percentile; at 50 or more samples at least 10 lie above."""
    ordered = sorted(values)
    return ordered[math.ceil(0.8 * len(ordered)) - 1]


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timing_metrics(setup_times: list, latencies: list) -> dict:
    """Set-up and op timings of a run; ``latencies`` holds one list per pass.

    Each op's latency is the median of its repeats across passes, so that
    a burst of load from other tenants of the host moves one pass, not the
    reported figures.  Throughput is ops over the sum of those latencies.
    """
    per_op = [statistics.median(lat) for lat in zip(*latencies)]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p80_ms": p80(per_op) * 1e3,
    }


def end_to_end(name, seed, refs, seconds, small):
    """Passes until `seconds` would be exceeded, at least MIN_PASSES of them.

    Set-up is repeated before every pass.  Every time is scaled by the
    host's speed at that moment (see ``hostspeed``); the unscaled figures
    go into the run record.
    """
    probe = SpeedProbe(PROBE_WINDOW[name])
    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1].wall <= seconds:
        workload, times = setup(name, seed, refs, SETUP_REPS, small, probe)
        setups += times
        try:
            passes.append(workload.run_pass(len(passes), probe))
        finally:
            workload.close()
        probe.probe()
    setup_times = [probe.scaled(t0, dt) for t0, dt in setups]
    scaled = [[probe.scaled(t0, dt) for t0, dt in zip(p.starts, p.latencies)] for p in passes]
    metrics = timing_metrics(setup_times, scaled)
    metrics["peak_rss_mb"] = peak_rss_mb(name)
    unscaled = timing_metrics([dt for _, dt in setups], [p.latencies for p in passes])
    return metrics, passes, {"unscaled": unscaled, "host_speed": probe.summary(),
                             "setup_samples_s": setup_times, "op_samples": len(scaled[0]),
                             "pass_walls_s": [p.wall for p in passes]}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def interpreter_start_s() -> float:
    """Median wall of a bare ``python -c pass`` child."""
    values = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                       timeout=60, check=True)
        values.append(time.perf_counter() - start)
    return statistics.median(values)


IMPORT_PROBE = ("import time; t = time.perf_counter(); import quivrep.cli; "
                "print(time.perf_counter() - t)")


def cli_import_s() -> float:
    """Median time a fresh child takes to ``import quivrep.cli``, as it reports it."""
    values = []
    for _ in range(PROBE_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        values.append(float(proc.stdout))
    return statistics.median(values)


def per_layer(name, workload, seed, refs, small):
    passes = [workload.trace_pass(0)]
    tracer = Tracer()
    tracer.install()
    counters = []
    try:
        for _ in range(TRACED_PASSES):
            tracer.reset()
            passes.append(workload.trace_pass(0))
            counters.append(tracer.counters())
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-{seed}.tsv")
    last = counters[-1]
    metrics = dict(last)
    metrics.update({f"{n}.self_s": s for n, s in tracer.self_seconds().items()})
    constrained = last["geometry.constrained_cocycles.calls"]
    under = tracer.calls_under("linalg.rank", "geometry.constrained_cocycles")
    metrics["geometry.constrained_cocycles.rank_calls_per_call"] = (
        under / constrained if constrained else 0.0)
    metrics["cli.interp_s"] = interpreter_start_s()
    metrics["cli.import_s"] = cli_import_s()
    traced_wall = statistics.mean(p.wall for p in passes[1:])
    metrics["trace_overhead_ratio"] = traced_wall / passes[0].wall

    problems = [f"counters differ between traced passes: "
                f"{sorted(k for k in last if counters[0][k] != last[k])}"
                ] if counters[0] != last else []
    problems += [f"{key} = {last[key]} on {name}, predicted {want}"
                 for key, want in workload.predicted_calls.items() if last[key] != want]
    record = {"counters": last, "bindings_wrapped": dict(tracer.bindings),
              "pass_walls_s": [p.wall for p in passes]}
    seed_counters = refs["seed_counters"].get(name, {}).get(str(seed))
    if seed_counters is not None and not small:
        record["counters_differing_from_seed_commit"] = {
            k: [v, last.get(k)] for k, v in seed_counters.items() if last.get(k) != v}
    return metrics, passes, record, problems


def source_identity() -> dict:
    """Digest of the quivrep sources, and the git commit when .git is present."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quivrep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        sha = ref
    return {"src_sha256": h.hexdigest(), "git_sha": sha}


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run; returns (result, record)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "refs.json").read_text())
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "affinity_cpus": len(os.sched_getaffinity(0)),
              "loadavg_start": os.getloadavg(), **source_identity()}
    if trace:
        workload, _ = setup(name, seed, refs, 1, small)
        try:
            metrics, passes, extra, problems = per_layer(name, workload, seed, refs, small)
        finally:
            workload.close()
        wanted = spec["per_layer"]
    else:
        metrics, passes, extra = end_to_end(name, seed, refs, seconds, small)
        problems = []
        wanted = spec["end_to_end"]
    problems += [msg for p in passes for msg in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(extra, passes=len(passes), ops=attempted, failed=failed,
                  problems=problems[:20])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "survey", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "quivrep" / "__init__.py").is_file():
        print(f"no quivrep sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-{args.seed}-{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
