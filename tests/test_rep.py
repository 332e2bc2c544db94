from fractions import Fraction as F
from random import Random

import pytest

from quivrep import (
    Arrow,
    BoundQuiver,
    CocycleElement,
    DimVector,
    MatrixQ,
    Quiver,
    Relation,
    Representation,
    conjugate,
    direct_sum,
    make_rep,
    middle_term,
    simple_rep,
    twisted_evaluate,
)
from quivrep.errors import QuivrepError, ShapeMismatch
from quivrep.rep import cocycle_ambient_dim
from util import evaluate_path


def a3_bound():
    q = Quiver.build(
        ("x1", "x2", "x3"),
        (Arrow("alpha", "x2", "x1"), Arrow("beta", "x3", "x2")),
    )
    rel = Relation.of([(F(1), q.path(["alpha", "beta"]))])
    return BoundQuiver.of(q, [rel])


def test_make_rep_shapes_and_zero_fill():
    bq = a3_bound()
    m = make_rep(bq.quiver, {"x1": 1, "x2": 2, "x3": 1}, {"alpha": [[1, 0]]})
    assert m.matrix("alpha").shape == (1, 2)
    assert m.matrix("beta").is_zero() and m.matrix("beta").shape == (2, 1)
    with pytest.raises(ShapeMismatch):
        make_rep(bq.quiver, {"x1": 1, "x2": 2, "x3": 1}, {"alpha": [[1]]})


@pytest.mark.parametrize("literal", [
    [1],        # a row that is a number
    5,          # a literal that is a number
    "1",        # a string literal, once split into the row of its characters
    ["1"],      # a string row, once split into its characters
    ("12",),    # once read as the 1 x 2 row [1, 2]
], ids=repr)
def test_make_rep_refuses_a_matrix_literal_that_is_not_a_list_of_rows(literal):
    q = Quiver.build(("a", "b"), [("x", "b", "a")])
    with pytest.raises(QuivrepError, match="matrix literal must be a list"):
        make_rep(q, (1, 2), {"x": literal})


def test_make_rep_and_of_refuse_a_dimvector_of_another_quiver():
    """A DimVector of another quiver is refused before any entry is read,
    whether it shares the vertex names (it once built a rep whose dim.quiver
    was the other quiver) or not (it once raised a bare KeyError)."""
    q2 = Quiver.build(("a", "b", "c"), [("x", "b", "a"), ("y", "c", "b")])
    mats = make_rep(q2, (1, 1, 0), {"x": [[1]]}).matrices
    for q1 in (Quiver.build(("a", "b", "c"), [("x", "b", "a")]),
               Quiver.build(("u", "v", "w"), [("x", "v", "u")])):
        foreign = DimVector.of(q1, (1, 1, 0))
        with pytest.raises(QuivrepError, match="dimension vector on a different quiver"):
            make_rep(q2, foreign, {"x": [[1]]})
        with pytest.raises(QuivrepError, match="dimension vector on a different quiver"):
            Representation.of(q2, foreign, mats)
    own = DimVector.of(q2, (1, 1, 0))
    assert make_rep(q2, own, {"x": [[1]]}) == Representation.of(q2, own, mats)


def test_make_rep_reads_string_entries_as_rationals():
    q = Quiver.build(("a", "b"), [("x", "b", "a")])
    assert make_rep(q, (1, 1), {"x": [["2/3"]]}).matrix("x") == MatrixQ.from_rows([[F(2, 3)]])


def test_evaluate_path_applies_rightmost_first():
    bq = a3_bound()
    q = bq.quiver
    m = make_rep(q, {"x1": 1, "x2": 1, "x3": 1},
                 {"alpha": [[2]], "beta": [[3]]})
    p = q.path(["alpha", "beta"])
    assert evaluate_path(m, p) == MatrixQ.from_rows([[6]])
    # alpha: 1 x 2 and beta: 2 x 1, so alpha.beta is the 1 x 1 product
    # alpha @ beta, which vanishes here while beta @ alpha would not.
    m = make_rep(q, {"x1": 1, "x2": 2, "x3": 1},
                 {"alpha": [[1, 1]], "beta": [[1], [-1]]})
    assert evaluate_path(m, p) == MatrixQ.from_rows([[0]])
    assert m.is_variety_point(bq)


def test_variety_point_detection():
    bq = a3_bound()
    good = make_rep(bq.quiver, (1, 1, 1), {"alpha": [[1]], "beta": [[0]]})
    bad = make_rep(bq.quiver, (1, 1, 1), {"alpha": [[1]], "beta": [[1]]})
    assert good.is_variety_point(bq)
    assert not bad.is_variety_point(bq)


def test_direct_sum_blocks():
    q = a3_bound().quiver
    m = make_rep(q, (1, 1, 0), {"alpha": [[2]]})
    n = make_rep(q, (1, 1, 1), {"alpha": [[3]], "beta": [[1]]})
    s = direct_sum(m, n)
    assert s.dim.entries == (2, 2, 1)
    assert s.matrix("alpha") == MatrixQ.from_rows([[2, 0], [0, 3]])
    # the beta block only has the n-part
    assert s.matrix("beta") == MatrixQ.from_rows([[0], [1]])


def test_conjugate_preserves_relations_and_acts_as_expected():
    bq = a3_bound()
    m = make_rep(bq.quiver, (1, 2, 1),
                 {"alpha": [[1, 0]], "beta": [[0], [1]]})
    assert m.is_variety_point(bq)
    g = {
        "x1": MatrixQ.from_rows([[2]]),
        "x2": MatrixQ.from_rows([[1, 1], [0, 1]]),
        "x3": MatrixQ.identity(1),
    }
    c = conjugate(m, g)
    assert c.is_variety_point(bq)
    # g_target M g_source^{-1}
    assert c.matrix("alpha") == MatrixQ.from_rows([[2, -2]])
    assert c.matrix("beta") == MatrixQ.from_rows([[1], [1]])


@pytest.mark.parametrize("g", [
    {"a": MatrixQ.identity(1)},                      # no matrix at b: once KeyError
    {"a": MatrixQ.identity(1), "b": [[1]]},          # a list: once AttributeError
    [MatrixQ.identity(1), MatrixQ.identity(1)],      # not a mapping: once TypeError
], ids=["missing vertex", "list entry", "not a mapping"])
def test_conjugate_refuses_a_family_without_a_matrixq_at_every_vertex(g):
    m = make_rep(Quiver.build(("a", "b"), [("x", "a", "b")]), (1, 1), {"x": [[1]]})
    with pytest.raises(QuivrepError, match="MatrixQ at every vertex"):
        conjugate(m, g)


def test_zero_and_simple():
    q = a3_bound().quiver
    z = make_rep(q, {})
    assert z.dim.total == 0
    s = simple_rep(q, "x2")
    assert s.dim.entries == (0, 1, 0)
    assert s.matrix("alpha").shape == (0, 1)


def test_cocycle_element_flatten():
    bq = a3_bound()
    q = bq.quiver
    sub = DimVector.of(q, (1, 1, 0))
    quot = DimVector.of(q, (0, 1, 1))
    # arrow alpha: sub[x1] x quot[x2] = 1x1; beta: sub[x2] x quot[x3] = 1x1
    z = CocycleElement.from_flat(q, sub, quot, (F(5), F(7)))
    assert z.matrix("alpha") == MatrixQ.from_rows([[5]])
    assert z.matrix("beta") == MatrixQ.from_rows([[7]])
    assert cocycle_ambient_dim(q, sub, quot) == 2
    assert z.flatten() == (F(5), F(7))
    doubled = z + z
    assert doubled.matrix("alpha")[0, 0] == 10


def test_twisted_evaluate_is_linear():
    bq = a3_bound()
    q = bq.quiver
    rng = Random(11)
    u = make_rep(q, (2, 1, 1), {"alpha": [[1], [0]], "beta": [[0]]})
    v = make_rep(q, (1, 2, 1), {"alpha": [[0, 1]], "beta": [[1], [0]]})
    rel = bq.relations[0]
    sub, quot = u.dim, v.dim

    def rand_flat():
        return [F(rng.randint(-4, 4)) for _ in range(cocycle_ambient_dim(q, sub, quot))]

    for _ in range(20):
        flat1, flat2 = rand_flat(), rand_flat()
        z1 = CocycleElement.from_flat(q, sub, quot, flat1)
        z2 = CocycleElement.from_flat(q, sub, quot, flat2)
        c = F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        cz2 = CocycleElement.from_flat(q, sub, quot, [c * x for x in flat2])
        lhs = twisted_evaluate(z1 + cz2, rel, u, v)
        rhs = twisted_evaluate(z1, rel, u, v) + twisted_evaluate(z2, rel, u, v).scale(c)
        assert lhs == rhs


def test_middle_term_blocks():
    bq = a3_bound()
    q = bq.quiver
    u = make_rep(q, (1, 1, 1), {"alpha": [[1]], "beta": [[0]]})
    v = make_rep(q, (1, 1, 1), {"alpha": [[0]], "beta": [[1]]})
    sub, quot = u.dim, v.dim
    # twisted constraint for z = (z_alpha, z_beta):
    #   Z_alpha V_beta + U_alpha Z_beta = z_alpha * 1 + 1 * z_beta
    good = CocycleElement.from_flat(q, sub, quot, (F(2), F(-2)))
    w = middle_term(good, u, v)
    assert w.dim.entries == (2, 2, 2)
    assert w.matrix("alpha") == MatrixQ.from_rows([[1, 2], [0, 0]])
    assert w.is_variety_point(bq)
    # the cocycle condition is not checked: a non-cocycle glues a non-point
    bad = CocycleElement.from_flat(q, sub, quot, (F(1), F(1)))
    raw = middle_term(bad, u, v)
    assert not raw.is_variety_point(bq)
    # a missing or wrongly shaped Z matrix is refused
    with pytest.raises(ShapeMismatch):
        middle_term(CocycleElement(q, sub, quot, good.matrices[:1]), u, v)
    with pytest.raises(ShapeMismatch):
        middle_term(CocycleElement(q, sub, quot, (MatrixQ.zeros(1, 2), good.matrices[1])), u, v)
