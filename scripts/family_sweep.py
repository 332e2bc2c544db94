#!/usr/bin/env python3
"""Sweep arm-length parameter tuples and summarize the grid verification.

For each tuple (p, q, r, s, t) this prints the canonical form values, the
dimension budget of the total dimension vector, and the verdict of the
full grid verification -- including which label pairs (if any) break the
four-summand decomposition or the dimension bound.  Stdout depends only on
the tuples; ``--seed`` is printed in its header and changes nothing else.
Each tuple's verification wall time goes to stderr, one
``<params> <seconds>s`` line per tuple.

Example:
    python3 scripts/family_sweep.py --max-arm 2 --seed 1
    python3 scripts/family_sweep.py --params 2,2,2,2,2 --params 3,2,4,1,2
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quivrep import FamilyParams, verify_family  # noqa: E402
from quivrep.errors import (DecompositionMismatch, InequalityViolated,  # noqa: E402
                            QuivrepError)


def parse_params(text: str) -> FamilyParams:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("expected five comma-separated integers")
    try:
        return FamilyParams(*parts)
    except QuivrepError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_max_arm(text: str) -> int:
    """The arm-length bound, refused unless its largest tuple is a family."""
    return parse_params(",".join([text] * 5)).p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", action="append", type=parse_params,
                        metavar="P,Q,R,S,T",
                        help="explicit tuple; may repeat (overrides --max-arm)")
    parser.add_argument("--max-arm", type=parse_max_arm, default=2,
                        help="sweep all tuples with arms in 1..MAX (default 2)")
    parser.add_argument("--seed", type=int, default=1, help="printed; has no effect")
    args = parser.parse_args(argv)

    if args.params:
        grid = args.params
    else:
        grid = [FamilyParams(*tup) for tup in
                itertools.product(range(1, args.max_arm + 1), repeat=5)]

    print(f"sweeping {len(grid)} parameter tuples (seed {args.seed})")
    print(f"{'params':<14} {'forms':<14} {'q(d)':>4} {'gl':>3} {'a(d)':>4} "
          f"{'rows':>4}  verdict")
    n_bad = 0
    for params in grid:
        start = time.perf_counter()
        try:
            report, verdict = verify_family(params), "pass"
        except (DecompositionMismatch, InequalityViolated) as exc:
            report, verdict = exc.report, type(exc).__name__
        seconds = time.perf_counter() - start
        bound = report.expected_total
        bad_pairs = sorted({row.pair for row in report.rows if row.status(bound) != "ok"})
        if bad_pairs:
            verdict += " at " + ", ".join(bad_pairs)
            n_bad += 1
        forms = (report.tits_h1, report.tits_h2, report.euler_h1_h2, report.euler_h2_h1)
        print(f"{str(params):<14} {str(forms):<14} {report.tits_total:>4} "
              f"{report.glsum_total:>3} {bound:>4} {len(report.rows):>4}  {verdict}")
        print(f"{params} {seconds:.2f}s", file=sys.stderr)
    print(f"done: {len(grid) - n_bad} clean, {n_bad} with flagged pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
