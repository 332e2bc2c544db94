"""Differential tests of the certificate's integer glue.

`Representation.is_variety_point` checks each relation on the kept integer
form; `tests/util.py` keeps the Fraction evaluation it replaced as the
oracle.  `euler_form` and `expected_dim` read the dimension entries through
the vertex-index pairs `Quiver.arrow_ends` and `BoundQuiver.relation_ends`;
`oracle_euler_form` and `oracle_expected_dim` below are the formulas they
replaced, kept verbatim, which look every endpoint up through the arrow and
relation properties.  `regularity_certificate` takes its naive count from
the Euler value of its own `ext_report`; `expected_dim` is its oracle.
"""

from fractions import Fraction
from random import Random

from quivrep import (Arrow, BoundQuiver, DimVector, MatrixQ, Quiver, Relation, conjugate,
                     euler_form, expected_dim, make_rep, random_invertible, random_matrix,
                     regularity_certificate, tits_form)
from quivrep.linalg import inverse
from util import (evaluate_relation, hitting_set_point, random_bound_quiver, random_dims,
                  random_quiver_with_cycles, random_relations, random_rep,
                  with_rational_coefficients, with_rational_entries)


def oracle_is_variety_point(m, bq) -> bool:
    return all(evaluate_relation(m, rel).is_zero() for rel in bq.relations)


def oracle_euler_form(d1, d2, bq) -> int:
    value = sum(a * b for a, b in zip(d1.entries, d2.entries))
    for arrow in bq.quiver.arrows:
        value -= d1[arrow.source] * d2[arrow.target]
    for rel in bq.relations:
        value += d1[rel.source] * d2[rel.target]
    return value


def oracle_expected_dim(d, bq) -> int:
    value = sum(d[a.source] * d[a.target] for a in bq.quiver.arrows)
    value -= sum(d[r.source] * d[r.target] for r in bq.relations)
    return value


def perturbed(m, bq, rng: Random):
    """M with one entry of one arrow on a relation path moved by a nonzero
    rational, or M itself when no such arrow has an entry.  A zero matrix
    is moved when there is one, since a hitting-set point stays a variety
    point under most other moves."""
    names = [name for rel in bq.relations for _, path in rel.terms
             for name in path.arrow_names
             if m.matrix(name).rows and m.matrix(name).cols]
    if not names:
        return m
    names = [name for name in names if m.matrix(name).is_zero()] or names
    name = rng.choice(names)
    mat = m.matrix(name)
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    rows = [list(row) for row in mat.data]
    rows[i][j] += Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3, 5]))
    mats = {a.name: mm for a, mm in zip(m.quiver.arrows, m.matrices)}
    mats[name] = MatrixQ.from_rows(rows)
    return make_rep(m.quiver, m.dim, mats)


def test_integer_variety_check_matches_the_fraction_evaluation_on_seeded_points():
    """Hitting-set points on bound quivers with at least one relation, with
    integer and fractional entries and coefficients, and the same points
    with one entry perturbed."""
    rng = Random(14401)
    verdicts = {True: 0, False: 0}
    for i in range(150):
        bq = random_bound_quiver(rng, max_relations=3)
        while not bq.relations:
            bq = random_bound_quiver(rng, max_relations=3)
        if i % 2:
            bq = with_rational_coefficients(bq, rng)
        dims = random_dims(rng, bq.quiver) if i % 3 else DimVector.of(
            bq.quiver, {v: rng.randint(1, 3) for v in bq.quiver.vertices})
        m = hitting_set_point(rng, bq, dims)
        for point in (m, with_rational_entries(m, rng)):
            for candidate in (point, perturbed(point, bq, rng)):
                got = candidate.is_variety_point(bq)
                assert got == oracle_is_variety_point(candidate, bq)
                verdicts[got] += 1
    assert verdicts[True] > 250 and verdicts[False] > 100, verdicts


def test_integer_variety_check_matches_when_the_terms_cancel():
    """Relations whose terms cancel without vanishing: a square
    c1 * alpha.beta + c2 * gamma.delta (delta solved from the other three)
    and a triangle c1 * alpha.beta + c2 * eps (eps solved), whose terms have
    different lengths, so the scale powers d^(L - m) differ.  Fractional
    coefficients and entries, a base change of each point (which keeps it
    a variety point), then one entry perturbed."""
    quiver = Quiver.build(("s", "l", "r", "t"), (
        Arrow("beta", "s", "l"), Arrow("alpha", "l", "t"), Arrow("delta", "s", "r"),
        Arrow("gamma", "r", "t"), Arrow("eps", "s", "t")))
    rng = Random(14402)
    verdicts = {True: 0, False: 0}
    for i in range(80):
        c1 = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 7]))
        c2 = Fraction(rng.choice([-1, 2, 5]), rng.choice([1, 3]))
        n, k, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        alpha, beta = random_matrix(n, k, rng), random_matrix(k, s, rng)
        gamma = random_invertible(n, rng)
        mats = {"alpha": alpha, "beta": beta, "gamma": gamma}
        if i % 2:
            other = quiver.path(["gamma", "delta"])
            mats["delta"] = (inverse(gamma) @ alpha @ beta).scale(-c1 / c2)
        else:
            other = quiver.path(["eps"])
            mats["eps"] = (alpha @ beta).scale(-c1 / c2)
        bq = BoundQuiver.of(quiver, [Relation.of([(c1, quiver.path(["alpha", "beta"])),
                                                  (c2, other)])])
        m = make_rep(quiver, {"s": s, "l": k, "r": n, "t": n}, mats)
        g = {v: random_invertible(x, rng) for v, x in zip(quiver.vertices, m.dim.entries)}
        for candidate in (m, conjugate(m, g), perturbed(m, bq, rng)):
            got = candidate.is_variety_point(bq)
            assert got == oracle_is_variety_point(candidate, bq)
            verdicts[got] += 1
    assert verdicts[True] >= 160 and verdicts[False] > 50, verdicts


def test_integer_variety_check_matches_with_loops_and_repeated_arrows():
    """Random matrices on quivers with loops and parallel arrows, so that
    relation paths repeat an arrow; a few nilpotent loops make variety points."""
    rng = Random(14403)
    verdicts = {True: 0, False: 0}
    for i in range(150):
        quiver = random_quiver_with_cycles(rng)
        bq = BoundQuiver.of(quiver, random_relations(rng, quiver, 3))
        if i % 2:
            bq = with_rational_coefficients(bq, rng)
        m = random_rep(rng, quiver)
        for candidate in (m, with_rational_entries(m, rng)):
            got = candidate.is_variety_point(bq)
            assert got == oracle_is_variety_point(candidate, bq)
            verdicts[got] += 1
    loop = Quiver.build(("x",), (Arrow("a", "x", "x"),))
    square = BoundQuiver.of(loop, [Relation.of([(Fraction(1, 3), loop.path(["a", "a"]))])])
    nilpotent = make_rep(loop, (2,), {"a": [[0, Fraction(5, 7)], [0, 0]]})
    assert nilpotent.is_variety_point(square) and oracle_is_variety_point(nilpotent, square)
    assert verdicts[True] > 20 and verdicts[False] > 100


def test_euler_form_and_expected_dim_match_the_property_formulas():
    """Quivers with loops and parallel arrows, random relations and
    dimension vectors; the kept index pairs give the same integers."""
    rng = Random(14404)
    kronecker = Quiver.build(("a", "b"), (Arrow("x", "a", "b"), Arrow("y", "a", "b"),
                                          Arrow("l", "b", "b")))
    cases = [BoundQuiver.of(kronecker, [Relation.of([(1, kronecker.path(["l", "x"])),
                                                     (-1, kronecker.path(["l", "y"]))]),
                                        Relation.of([(1, kronecker.path(["l", "l"]))])])]
    for _ in range(80):
        quiver = random_quiver_with_cycles(rng)
        cases.append(BoundQuiver.of(quiver, random_relations(rng, quiver, 3)))
    for bq in cases:
        for _ in range(4):
            d1, d2 = random_dims(rng, bq.quiver, 4), random_dims(rng, bq.quiver, 4)
            assert euler_form(d1, d2, bq) == oracle_euler_form(d1, d2, bq)
            assert euler_form(d2, d1, bq) == oracle_euler_form(d2, d1, bq)
            assert tits_form(d1, bq) == oracle_euler_form(d1, d1, bq)
            assert expected_dim(d1, bq) == oracle_expected_dim(d1, bq)
        zero = DimVector.of(bq.quiver, [0] * len(bq.quiver.vertices))
        assert euler_form(zero, zero, bq) == expected_dim(zero, bq) == 0
    assert any(a.source == a.target for bq in cases for a in bq.quiver.arrows)
    assert sum(bool(bq.relations) for bq in cases) > 30


def test_the_certificate_count_is_expected_dim():
    """dim GL(d) - ext_report(M, M).euler is expected_dim(d): on variety
    points of acyclic and cyclic bound quivers, every other one with
    fractional coefficients, with and without the gl.dim 2 hypothesis."""
    rng = Random(31401)
    with_relations = 0
    for i in range(90):
        if i % 3:
            bq = random_bound_quiver(rng, max_relations=3)
        else:
            quiver = random_quiver_with_cycles(rng)
            bq = BoundQuiver.of(quiver, random_relations(rng, quiver, 3))
        bq = with_rational_coefficients(bq, rng) if i % 2 else bq
        m = with_rational_entries(hitting_set_point(rng, bq, random_dims(rng, bq.quiver)), rng)
        for assert_gldim2 in (False, True):
            cert = regularity_certificate(m, bq, assert_gldim2)
            assert cert.expected == expected_dim(m.dim, bq)
        with_relations += bool(bq.relations)
    assert with_relations > 25
