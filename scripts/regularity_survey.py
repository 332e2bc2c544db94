#!/usr/bin/env python3
"""Survey regularity certificates over random bound-quiver variety points.

Draws random acyclic quivers with up to two admissible relations, builds
exact variety points by zeroing one arrow in every relation term, and
tallies the certificate verdicts.  With --hereditary the relations are
dropped, in which case every point should certify regular.

Example:
    python3 scripts/regularity_survey.py --count 300 --seed 7
    python3 scripts/regularity_survey.py --count 200 --hereditary
"""

import argparse
import sys
from collections import Counter
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from quivrep import (  # noqa: E402
    BoundQuiver,
    make_rep,
    random_matrix,
    regularity_certificate,
)
from util import (  # noqa: E402
    hitting_set_point,
    random_acyclic_quiver,
    random_bound_quiver,
    random_dims,
)


def draw_point(rng: Random, hereditary: bool):
    if hereditary:
        quiver = random_acyclic_quiver(rng)
        bq = BoundQuiver.of(quiver, ())
        dims = random_dims(rng, quiver)
        mats = {a.name: random_matrix(dims[a.target], dims[a.source], rng)
                for a in quiver.arrows}
        return bq, make_rep(quiver, dims, mats)
    bq = random_bound_quiver(rng)
    return bq, hitting_set_point(rng, bq, random_dims(rng, bq.quiver))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hereditary", action="store_true",
                        help="no relations: every verdict should be regular")
    parser.add_argument("--show-gaps", type=int, default=5, metavar="N",
                        help="print the first N non-regular points (default 5)")
    args = parser.parse_args(argv)
    for flag, value, least in (("--count", args.count, 1), ("--show-gaps", args.show_gaps, 0)):
        if value < least:
            parser.error(f"argument {flag}: must be an integer >= {least}, got {value}")

    rng = Random(args.seed)
    verdicts = Counter()
    gap_hist = Counter()
    shown = 0
    for _ in range(args.count):
        bq, m = draw_point(rng, args.hereditary)
        cert = regularity_certificate(m, bq, assert_gldim2=True)
        verdicts[cert.verdict] += 1
        gap = cert.z_self_dim - cert.expected
        gap_hist[gap] += 1
        if cert.verdict != "CertifiedRegular" and shown < args.show_gaps:
            shown += 1
            print(f"non-regular point #{shown}: dim {m.dim} "
                  f"tangent {cert.z_self_dim} expected "
                  f"{cert.expected} ext2 {cert.ext2_self} "
                  f"({len(bq.relations)} relations)")

    print(f"\nsurveyed {args.count} points (seed {args.seed}, "
          f"{'hereditary' if args.hereditary else 'with relations'})")
    for verdict, n in verdicts.most_common():
        print(f"  {verdict:<18} {n:>5}  ({100.0 * n / args.count:5.1f}%)")
    print("tangent-minus-expected histogram:")
    for gap in sorted(gap_hist):
        print(f"  {gap:+3d}: {gap_hist[gap]}")
    if args.hereditary and set(verdicts) != {"CertifiedRegular"}:
        print("UNEXPECTED: non-regular verdict without relations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
