"""One relation evaluator: `rep._relation_value` on integer forms.

`Representation.is_variety_point` asks that every value be zero, and
`twisted_evaluate` reads block (0, 1) of the value at the middle term
[[U, Z], [0, V]].  Both are checked against the Fraction code they
replaced: `twisted_evaluate` against its old factor-by-factor body, kept
in `tests/util.py`, and the evaluator's rows over its scale against
`util.evaluate_relation`.  A scan of the package's source, in the style of
`tests/test_names.py`, keeps `rep.py` the only module that reads a
relation's terms to evaluate it: `quiver.py` builds relations and
`textio.py` writes them.
"""

import ast
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from quivrep import CocycleElement, Quiver, Relation, make_rep, twisted_evaluate
from quivrep.errors import QuivrepError
from quivrep.rep import _relation_value, cocycle_ambient_dim
from util import (_paths_by_endpoints, evaluate_relation, random_acyclic_quiver,
                  random_quiver_with_cycles, random_rep, twisted_evaluate_by_factors,
                  with_rational_entries)

ROOT = Path(__file__).resolve().parent.parent
CASES = 600


def random_relation(rng: Random, quiver) -> Relation:
    """One to three terms with rational coefficients, on paths of length
    one to three that share a source and a target."""
    groups = defaultdict(list)
    for arrow in quiver.arrows:
        groups[(arrow.source, arrow.target)].append((arrow.name,))
    for ends, paths in _paths_by_endpoints(quiver).items():
        groups[ends].extend(paths)
    _, paths = rng.choice(sorted(groups.items()))
    chosen = rng.sample(paths, k=min(len(paths), rng.randint(1, 3)))
    return Relation.of([(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7])),
                         quiver.path(names)) for names in chosen])


def seeded_case(i: int):
    """Quiver (with cycles on odd i), relation, U and V (rational entries
    on i = 1, 2 mod 4) and a random Z, which is almost never a cocycle."""
    rng = Random(f"relation-evaluator:{i}")
    quiver = random_quiver_with_cycles(rng) if i % 2 else random_acyclic_quiver(rng, 4, 5)
    rel = random_relation(rng, quiver)
    u, v = random_rep(rng, quiver), random_rep(rng, quiver)
    if i % 4 in (1, 2):
        u, v = with_rational_entries(u, rng), with_rational_entries(v, rng)
    coords = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
              for _ in range(cocycle_ambient_dim(quiver, u.dim, v.dim))]
    return rel, u, v, CocycleElement.from_flat(quiver, u.dim, v.dim, coords)


def test_twisted_evaluate_matches_the_factor_by_factor_body():
    seen = defaultdict(int)
    for i in range(CASES):
        rel, u, v, z = seeded_case(i)
        got = twisted_evaluate(z, rel, u, v)
        assert got == twisted_evaluate_by_factors(z, rel, u, v), i
        seen["nonzero"] += not got.is_zero()
        seen["zero-dim vertex"] += 0 in u.dim.entries + v.dim.entries
        seen["U, V apart"] += u.dim != v.dim
        seen["repeated arrow"] += any(len(set(p.arrow_names)) < p.length for _, p in rel.terms)
        seen["fractional coefficient"] += any(c.denominator > 1 for c, _ in rel.terms)
    assert min(seen.values()) >= 50 and len(seen) == 5, dict(seen)


def test_the_evaluator_over_its_scale_is_the_fraction_evaluation():
    nonzero = 0
    for i in range(CASES):
        rel, u, _, _ = seeded_case(i)
        scale, rows = _relation_value(u, rel)
        want = evaluate_relation(u, rel)
        assert tuple(tuple(Fraction(x, scale) for x in row) for row in rows) == want.data, i
        nonzero += not want.is_zero()
    assert nonzero >= 100


def test_twisted_evaluate_refuses_as_the_old_body_did():
    rel, u, v, z = next(case for case in map(seeded_case, range(CASES)) if case[1].dim != case[2].dim)
    elsewhere = make_rep(Quiver.build(("p",), []), (0,))
    for args in [(z, rel, elsewhere, v), (z, rel, v, u)]:  # another quiver; swapped dimensions
        with pytest.raises(QuivrepError) as new:
            twisted_evaluate(*args)
        with pytest.raises(QuivrepError) as old:
            twisted_evaluate_by_factors(*args)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


def relation_term_reads(source: str):
    """Lines that read a `.terms` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "terms")


READERS = ("quiver.py", "textio.py", "rep.py")


@pytest.mark.parametrize("module", sorted(
    str(path.relative_to(ROOT)) for pattern in ("src/quivrep/*.py", "scripts/*.py")
    for path in ROOT.glob(pattern) if path.name not in READERS))
def test_only_rep_reads_relation_terms_to_evaluate_them(module):
    assert relation_term_reads((ROOT / module).read_text()) == []


def test_scan_flags_a_relation_term_read():
    source = ("def longest(rel):\n"
              "    lengths = [path.length for _, path in rel.terms]\n"
              "    return max(lengths)\n")
    assert relation_term_reads(source) == [2]
    assert relation_term_reads((ROOT / "src/quivrep/rep.py").read_text()) != []
