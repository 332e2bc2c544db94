#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Runs ``perfbench/run.py`` of a parent tree and of a change tree, one run
at a time, once per seed and side.  The parent runs first at the 1st,
3rd, 5th... seed, the change at the others.  Each tree runs its own
``perfbench/``, ``BENCHMARK.json`` and ``src/``.  The children get
``PYTHONDONTWRITEBYTECODE=1``, so every fresh import compiles its source.

Per metric the output records each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the change/parent ratio of the
medians, the pairs the change wins (ties count for neither side), the
parent's interquartile range and every pair's values.  It also judges the
metric's bound from ``BENCHMARK.json``: ``regression`` is the relative
change of the medians, signed so that positive means worse, and
``within_bound`` says whether it is at most the bound.  Per side it
records the pass counts, op counts and source digests.  Results merge by
workload into the output file, so one file can hold several invocations.
The ``source`` section holds, per side, the line count of ``src/quivrep``
and each module's median ``compile()`` time: a fresh import under
``PYTHONDONTWRITEBYTECODE=1`` compiles every module it loads, so source
size shows up in ``setup_s`` and in every ``cli`` child.  It also names
the ``quivrep`` modules that ``python -S -c "import quivrep.cli"`` loads,
which every ``cli`` child compiles, and the sum of their compile times.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload survey --seeds 13101 13102 13103 13104 13105 \\
        --seconds 40 --trace-seed 0 --claim ops_per_s --out BENCH_13.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1"
METHOD = ("Each side ran from its own copy of perfbench/, BENCHMARK.json and src/, one run "
          "at a time, in alternating pairs: the parent ran first at the 1st, 3rd, 5th... "
          "seed of each workload, the change at the others. Medians and quartiles over the "
          "runs of each side; quartiles from statistics.quantiles(values, n=4). Times are "
          "the benchmark's host-speed-scaled figures; 'unscaled' holds the raw ones. "
          "change_wins counts pairs where the change is better, ties counting for neither "
          "side. regression = (change - parent) / parent of the medians, negated for "
          "higher-is-better metrics so that positive means worse; within_bound = "
          "regression <= the metric's BENCHMARK.json bound. 'source' holds each side's "
          "src/quivrep line count and the median in-process compile() time of each module, "
          "both sides alternating, and the quivrep modules a 'python -S -c \"import "
          "quivrep.cli\"' child loads with the sum of their compile times.")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One ``perfbench/run.py`` run in `tree`; returns (record, result)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{tree}: run.py {workload} seed {seed} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


CLI_IMPORT_PROBE = ("import sys, quivrep.cli; print(*sorted(m for m in sys.modules "
                    "if m == 'quivrep' or m.startswith('quivrep.')))")


def cli_import_modules(tree: Path) -> list:
    """The quivrep modules a ``python -S -c "import quivrep.cli"`` child of `tree` loads."""
    proc = subprocess.run([sys.executable, "-S", "-c", CLI_IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


def source_stats(trees: dict, repeats: int = 21) -> dict:
    """Per side: the line count of src/quivrep, each module's median
    compile() time in ms, the sides alternating within each repeat, and
    the modules that importing ``quivrep.cli`` loads with their total."""
    texts = {side: {path.name: path.read_text()
                    for path in sorted((tree / "src" / "quivrep").glob("*.py"))}
             for side, tree in trees.items()}
    times = {side: {name: [] for name in files} for side, files in texts.items()}
    for _ in range(repeats):
        for side, files in texts.items():
            for name, text in files.items():
                start = time.perf_counter()
                compile(text, name, "exec", dont_inherit=True)
                times[side][name].append(time.perf_counter() - start)
    out = {}
    for side, files in texts.items():
        compile_ms = {name: r(statistics.median(ts) * 1e3) for name, ts in times[side].items()}
        cli_modules = cli_import_modules(trees[side])
        cli_files = ["__init__.py" if m == "quivrep" else m.removeprefix("quivrep.") + ".py"
                     for m in cli_modules]
        out[side] = {"lines": sum(text.count("\n") for text in files.values()),
                     "compile_ms_total": r(sum(compile_ms.values())),
                     "compile_ms": compile_ms,
                     "cli_import_modules": cli_modules,
                     "cli_import_compile_ms": r(sum(compile_ms[name] for name in cli_files))}
    return out


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": r(values[0]), "q1": r(values[0]), "q3": r(values[0])}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": r(statistics.median(values)), "q1": r(q1), "q3": r(q3)}


def r(x: float) -> float:
    return round(x, 5)


def wins(parent: list, change: list, better: str) -> int:
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def regression(parent: float, change: float, better: str) -> float:
    """(change - parent) / parent, signed so that positive means worse."""
    sign = 1 if better == "lower" else -1
    return round(sign * (change - parent) / parent, 4)


def compare(workload: str, seeds: list, runs: dict, spec: dict) -> dict:
    """The end-to-end section of one workload; `runs[side]` lists (record, result)."""
    sides = {}
    for side in SIDES:
        records = [rec for rec, _ in runs[side]]
        results = [res for _, res in runs[side]]
        unscaled = {name: spread([rec["unscaled"][name] for rec in records])
                    for name in records[0]["unscaled"]}
        sides[side] = {
            "attempted": sum(res["attempted"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "all_correct": all(res["correct"] for res in results),
            "passes_per_run": [rec["passes"] for rec in records],
            "src_sha256": sorted({rec["src_sha256"] for rec in records}),
            "unscaled": unscaled,
        }
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [res["metrics"][name]["value"] for _, res in runs[side]]
                  for side in SIDES}
        parent, change = spread(values["parent"]), spread(values["change"])
        worse = regression(parent["median"], change["median"], m["better"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4),
            "regression": worse, "within_bound": worse <= m["bound"],
            "change_wins": f"{wins(values['parent'], values['change'], m['better'])}"
                           f"/{len(seeds)}",
            "parent_iqr": r(parent["q3"] - parent["q1"]),
            "per_seed": {str(s): [r(p), r(c)]
                         for s, p, c in zip(seeds, values["parent"], values["change"])},
        }
    return {"seeds": seeds, "pairs": len(seeds), "runs": sides, "metrics": metrics}


def claim(workload: str, metric: str, section: dict) -> dict:
    """Whether the change beats the parent on at least nine pairs in ten,
    and in the median by more than the parent's interquartile range."""
    m = section["metrics"][metric]
    sign = 1 if m["better"] == "higher" else -1
    won, pairs = (int(x) for x in m["change_wins"].split("/"))
    gain = sign * (m["change"]["median"] - m["parent"]["median"])
    return {"workload": workload, "metric": metric,
            "parent_median": m["parent"]["median"], "change_median": m["change"]["median"],
            "ratio": m["change_over_parent"], "change_wins": m["change_wins"],
            "parent_iqr": m["parent_iqr"],
            "met": won >= math.ceil(0.9 * pairs) and gain > m["parent_iqr"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--workload", required=True, choices=("grid", "survey", "cli"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one per pair")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace-seed", type=int, help="also one traced run per side")
    parser.add_argument("--claim", metavar="METRIC", help="judge a claimed gain on METRIC")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    if args.claim is not None and args.claim not in [m["name"] for m in spec["end_to_end"]]:
        parser.error(f"argument --claim: {args.claim!r} is not an end_to_end metric "
                     "of the change's BENCHMARK.json")
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(args.seeds):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            record, result = run_once(trees[side], args.workload, seed, args.seconds, 0)
            runs[side].append((record, result))
            figures = " ".join(f"{name}={m['value']:.5g}"
                               for name, m in result["metrics"].items())
            print(f"{args.workload} seed {seed} {side}: passes {record['passes']} "
                  f"correct {result['correct']} {figures}", file=sys.stderr)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    first = runs["parent"][0][0]
    out.update(command=COMMAND, method=METHOD,
               parent_commit=first["git_sha"],
               machine={"nproc": first["nproc"], "python": first["python"]},
               source=source_stats(trees))
    section = compare(args.workload, args.seeds, runs, spec)
    out.setdefault("end_to_end", {})[args.workload] = section
    if args.claim:
        out["claim"] = claim(args.workload, args.claim, section)
    if args.trace_seed is not None:
        traced = {}
        for side in SIDES:
            _, result = run_once(trees[side], args.workload, args.trace_seed, 1, 1)
            traced[side] = {"seed": args.trace_seed, "correct": result["correct"],
                            "failed": result["failed"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        out.setdefault("traced", {})[args.workload] = traced
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(side["all_correct"] for side in section["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
