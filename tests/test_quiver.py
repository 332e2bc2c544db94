import graphlib
from decimal import Decimal
from fractions import Fraction as F
from random import Random

import pytest

from quivrep import (
    Arrow,
    BoundQuiver,
    DimVector,
    FamilyParams,
    Quiver,
    Relation,
    euler_form,
    expected_dim,
    is_triangular,
    make_rep,
    minimal_convex,
    parse_dimvec,
    parse_quiver,
    parse_rep,
    tits_form,
    verify_family,
)
from quivrep.errors import MixedEndpoints, NonComposable, QuivrepError


def a3():
    """x3 --beta--> x2 --alpha--> x1."""
    return Quiver.build(
        ("x1", "x2", "x3"),
        (Arrow("alpha", "x2", "x1"), Arrow("beta", "x3", "x2")),
    )


def kronecker():
    return Quiver.build(("s", "t"), (Arrow("a1", "s", "t"), Arrow("a2", "s", "t")))


def test_build_rejects_duplicates_and_dangling():
    with pytest.raises(QuivrepError):
        Quiver.build(("v", "v"), ())
    with pytest.raises(QuivrepError):
        Quiver.build(("v",), (Arrow("a", "v", "w"),))
    with pytest.raises(QuivrepError):
        Quiver.build(("v", "w"), (Arrow("a", "v", "w"), Arrow("a", "w", "v")))


def test_path_composability():
    q = a3()
    p = q.path(["alpha", "beta"])  # beta applied first
    assert p.source == "x3" and p.target == "x1" and p.length == 2
    assert str(p) == "alpha.beta"
    with pytest.raises(NonComposable):
        q.path(["beta", "alpha"])


def test_relation_validation():
    q = a3()
    full = q.path(["alpha", "beta"])
    rel = Relation.of([(F(1), full)])
    assert rel.source == "x3" and rel.target == "x1"
    assert (rel.source, rel.target) == ("x3", "x1")
    assert rel.is_admissible
    with pytest.raises(QuivrepError):
        Relation.of([(F(0), full)])
    with pytest.raises(MixedEndpoints):
        Relation.of([(F(1), full), (F(1), q.path(["alpha"]))])
    # 0.1 is a binary fraction, not 1/10; exponent notation, a Decimal and a
    # bool are no exact rationals either.
    for coeff in (0.1, "1e5", Decimal("0.1"), True):
        with pytest.raises(QuivrepError, match="exact rational"):
            Relation.of([(coeff, full)])


MALFORMED = {
    "build-four-names": (lambda: Quiver.build(("a", "b"), [("x", "a", "b", "c")]),
                         "an arrow must have 3 entries, got ('x', 'a', 'b', 'c')"),
    "build-two-names": (lambda: Quiver.build(("a", "b"), [("x", "a")]),
                        "an arrow must have 3 entries, got ('x', 'a')"),
    "build-int-arrow": (lambda: Quiver.build(("a", "b"), [5]), "an arrow must be a sequence, got 5"),
    "build-int-arrows": (lambda: Quiver.build(("a", "b"), 5), "arrows must be a sequence, got 5"),
    "relation-bare-str": (lambda: Relation.of("ab"),
                          "relation terms must be a sequence, not the string 'ab'"),
    "relation-none": (lambda: Relation.of(None), "relation terms must be a sequence, got None"),
    "relation-one-entry": (lambda: Relation.of([(1,)]),
                           "a relation term must have 2 entries, got (1,)"),
    "relation-int-term": (lambda: Relation.of([1]), "a relation term must be a sequence, got 1"),
    "relation-str-path": (lambda: Relation.of([(1, "x")]),
                          "a relation term's path must be a Path, got 'x'"),
    "bound-none": (lambda: BoundQuiver.of(a3(), None), "relations must be a sequence, got None"),
    "bound-int": (lambda: BoundQuiver.of(a3(), [5]), "a relation must be a Relation, got 5"),
    "bound-path": (lambda: BoundQuiver.of(a3(), [a3().path(["alpha", "beta"])]),
                   "a relation must be a Relation, got Path("),
    # The same gate reads every other sequence of names.
    "build-none": (lambda: Quiver.build(None, []), "vertices must be a sequence, got None"),
    "path-none": (lambda: a3().path(None), "arrow names must be a sequence, got None"),
    "convex-none": (lambda: minimal_convex(a3(), None), "seed vertices must be a sequence, got None"),
    "dimvector-none": (lambda: DimVector.of(a3(), None), "dimension vector must be a sequence, got None"),
    "dimvector-int": (lambda: DimVector.of(a3(), 5), "dimension vector must be a sequence, got 5"),
    "dimvector-bare-str": (lambda: DimVector.of(a3(), "111"),
                           "dimension vector must be a sequence, not the string '111'"),
    "make-rep-none-dims": (lambda: make_rep(a3(), None), "dimension vector must be a sequence, got None"),
    "make-rep-str-mats": (lambda: make_rep(a3(), (1, 1, 1), "xy"),
                          "arrow matrices must be a mapping from arrow names, got 'xy'"),
    "make-rep-list-mats": (lambda: make_rep(a3(), (1, 1, 1), [1, 2]),
                           "arrow matrices must be a mapping from arrow names, got [1, 2]"),
    "verify-family-none": (lambda: verify_family(FamilyParams(1, 1, 1, 1, 1), u_scalars=None),
                           "u scalars must be a sequence, got None"),
    "verify-family-bare-str": (lambda: verify_family(FamilyParams(1, 1, 1, 1, 1), v_scalars="23"),
                               "v scalars must be a sequence, not the string '23'"),
    # A parser reads a str; anything else is refused before a line is read.
    "parse-quiver-none": (lambda: parse_quiver(None), "the text to parse must be a str, got NoneType"),
    "parse-quiver-bytes": (lambda: parse_quiver(b"vertex a\n"), "the text to parse must be a str, got bytes"),
    "parse-rep-none": (lambda: parse_rep(None, a3()), "the text to parse must be a str, got NoneType"),
    "parse-dimvec-none": (lambda: parse_dimvec(None, a3()), "the text to parse must be a str, got NoneType"),
}


@pytest.mark.parametrize("call, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_containers_are_quivrep_errors(call, message):
    with pytest.raises(QuivrepError) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_relation_merges_like_terms():
    q = kronecker()
    a1, a2 = q.path(["a1"]), q.path(["a2"])
    rel = Relation.of([(2, a2), (F(1), a1), ("1/2", a2)])
    assert rel.terms == ((F(5, 2), a2), (F(1), a1))  # first-occurrence order
    rel = Relation.of([(1, a1), (3, a2), (2, a1), (-3, a2)])
    assert rel.terms == ((F(3), a1),)  # the cancelled a2 is dropped


def test_relation_whose_terms_cancel_is_refused():
    q = kronecker()
    a1, a2 = q.path(["a1"]), q.path(["a2"])
    with pytest.raises(QuivrepError, match="cancel"):
        Relation.of([(2, a1), (-2, a1)])
    with pytest.raises(QuivrepError, match="cancel"):
        Relation.of([(1, a1), (1, a2), (-1, a1), (-1, a2)])


def test_bound_quiver_admissibility():
    q = a3()
    rel_len1 = Relation.of([(F(1), q.path(["alpha"]))])
    bq = BoundQuiver.of(q, [rel_len1])
    assert not bq.is_admissible
    bq2 = BoundQuiver.of(q, [Relation.of([(F(1), q.path(["alpha", "beta"]))])])
    assert bq2.is_admissible


def test_dimvector_basics():
    q = a3()
    d = DimVector.of(q, {"x1": 1, "x3": 2})
    assert d["x2"] == 0 and d.total == 3 and d.glsum() == 5
    e = DimVector.of(q, (1, 1, 0))
    assert (d + e).entries == (2, 1, 2)
    assert str(e) == "x1=1,x2=1,x3=0"


def test_forms_on_a3_with_relation():
    q = a3()
    bq = BoundQuiver.of(q, [Relation.of([(F(1), q.path(["alpha", "beta"]))])])
    one = DimVector.of(q, (1, 1, 1))
    # <d,d> = sum d^2 - arrows + relations = 3 - 2 + 1
    assert tits_form(one, bq) == 2
    e1 = DimVector.of(q, (1, 0, 0))
    e3 = DimVector.of(q, (0, 0, 1))
    assert euler_form(e3, e1, bq) == 1  # only the relation contributes
    assert euler_form(e1, e3, bq) == 0
    assert expected_dim(one, bq) == 1  # two arrow cells minus one relation cell


def test_euler_form_is_bilinear():
    q = kronecker()
    bq = BoundQuiver.of(q, [])
    d1 = DimVector.of(q, (1, 2))
    d2 = DimVector.of(q, (2, 1))
    d3 = DimVector.of(q, (3, 5))
    lhs = euler_form(d1 + d2, d3, bq)
    assert lhs == euler_form(d1, d3, bq) + euler_form(d2, d3, bq)
    rhs = euler_form(d3, d1 + d2, bq)
    assert rhs == euler_form(d3, d1, bq) + euler_form(d3, d2, bq)


def test_tits_form_kronecker():
    q = kronecker()
    bq = BoundQuiver.of(q, [])
    # q(m, n) = m^2 + n^2 - 2mn = (m - n)^2
    for m, n in ((1, 1), (2, 3), (5, 2)):
        d = DimVector.of(q, (m, n))
        assert tits_form(d, bq) == (m - n) ** 2


def test_is_triangular():
    assert is_triangular(a3())
    loop = Quiver.build(("v", "w"), (Arrow("a", "v", "w"), Arrow("b", "w", "v")))
    assert not is_triangular(loop)


def test_is_triangular_agrees_with_graphlib_and_is_kept_per_quiver():
    """`graphlib.TopologicalSorter` is the oracle, on seeded quivers whose
    arrows join any two vertices, so loops and 2-cycles are common."""
    rng = Random(1301)
    seen = {"loop": 0, "two_cycle": 0, "acyclic": 0, "cyclic": 0}
    for _ in range(400):
        vertices = [f"v{i}" for i in range(rng.randint(1, 6))]
        arrows = [(f"a{k}", rng.choice(vertices), rng.choice(vertices))
                  for k in range(rng.randint(0, 7))]
        quiver = Quiver.build(vertices, arrows)
        sorter = graphlib.TopologicalSorter({v: [] for v in vertices})
        for _, source, target in arrows:
            sorter.add(target, source)
        try:
            sorter.prepare()
            want = True
        except graphlib.CycleError:
            want = False
        assert is_triangular(quiver) is want
        assert quiver.__dict__["_triangular"] is want
        ends = {(s, t) for _, s, t in arrows}
        seen["loop"] += any(s == t for s, t in ends)
        seen["two_cycle"] += any(s != t and (t, s) in ends for s, t in ends)
        seen["acyclic" if want else "cyclic"] += 1
    assert min(seen.values()) > 50, seen


def test_minimal_convex():
    q = a3()
    assert minimal_convex(q, {"x1", "x3"}) == ("x1", "x2", "x3")
    assert minimal_convex(q, {"x2"}) == ("x2",)
