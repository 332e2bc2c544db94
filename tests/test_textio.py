from fractions import Fraction as F
from random import Random

import pytest

from quivrep import (
    BoundQuiver,
    Family,
    FamilyParams,
    Quiver,
    Relation,
    make_rep,
    parse_dimvec,
    parse_quiver,
    parse_rep,
    serialize_quiver,
    serialize_rep,
)
from quivrep.errors import ParseError, QuivrepError

from util import hitting_set_point, random_bound_quiver, random_dims

A2_TEXT = """\
# a two-vertex quiver
vertex v1
vertex v2
arrow al v2 v1
"""

BOUND_TEXT = """\
vertex x1
vertex x2
vertex x3
arrow alpha x2 x1
arrow beta x3 x2
rel 1*alpha.beta
"""


def test_parse_minimal_quiver():
    bq = parse_quiver(A2_TEXT)
    assert bq.quiver.vertices == ("v1", "v2")
    assert [a.name for a in bq.quiver.arrows] == ["al"]
    assert bq.relations == ()


def test_parse_relation_and_roundtrip():
    bq = parse_quiver(BOUND_TEXT)
    assert len(bq.relations) == 1
    rel = bq.relations[0]
    assert str(rel.terms[0][1]) == "alpha.beta"
    out = serialize_quiver(bq)
    again = parse_quiver(out)
    assert again == bq
    assert serialize_quiver(again) == out  # canonical form is stable


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_quiver("vertex v\nvertex v\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_quiver("vertex v\narrow a v w\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_quiver(A2_TEXT + "rel 1*al.al\n")  # not composable
    assert exc.value.line == 5
    with pytest.raises(ParseError):
        parse_quiver("vertex v\nnonsense line\n")


def test_mixed_endpoint_relation_rejected():
    text = A2_TEXT + "rel 1*al + 1*al.al\n"
    with pytest.raises(ParseError):
        parse_quiver(text)


def test_cancelling_relation_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_quiver("vertex a\nvertex b\narrow x a b\nrel 2*x - 2*x\n")
    assert exc.value.line == 4
    assert "cancel" in exc.value.reason


def test_coefficient_normalization():
    text = BOUND_TEXT.replace("rel 1*alpha.beta", "rel 2/4*alpha.beta")
    bq = parse_quiver(text)
    assert bq.relations[0].terms[0][0] == F(1, 2)
    assert "1/2*alpha.beta" in serialize_quiver(bq)


def test_signs_between_terms():
    q = """\
vertex a
vertex b
vertex c
arrow f b a
arrow g c b
arrow h c b
rel 1*f.g - 1*f.h
"""
    bq = parse_quiver(q)
    rel = bq.relations[0]
    assert [c for c, _ in rel.terms] == [F(1), F(-1)]
    assert "1*f.g - 1*f.h" in serialize_quiver(bq)


def test_coefficient_free_term_has_coefficient_one():
    square = ("vertex w\nvertex x\nvertex y\nvertex z\n"
              "arrow a x w\narrow b z x\narrow c y w\narrow d z y\n")
    bare = parse_quiver(square + "rel a.b - c.d\n")
    assert bare == parse_quiver(square + "rel 1*a.b - 1*c.d\n")
    assert [c for c, _ in bare.relations[0].terms] == [F(1), F(-1)]


def test_rep_roundtrip_and_shape_check():
    bq = parse_quiver(BOUND_TEXT)
    m = make_rep(bq.quiver, (1, 2, 1),
                 {"alpha": [[1, F(1, 2)]], "beta": [[0], [3]]})
    text = serialize_rep(m)
    back = parse_rep(text, bq.quiver)
    assert back == m
    with pytest.raises(ParseError):
        parse_rep("dim x1 1\ndim x2 1\ndim x3 1\nmat alpha 2 2 : 1 0 0 1\n",
                  bq.quiver)


def test_rep_missing_entries_are_zero():
    bq = parse_quiver(BOUND_TEXT)
    m = parse_rep("dim x2 2\n", bq.quiver)
    assert m.dim.entries == (0, 2, 0)
    assert all(m.matrix(a.name).is_zero() for a in bq.quiver.arrows)


def test_parse_dimvec():
    bq = parse_quiver(BOUND_TEXT)
    d = parse_dimvec("x1=1,x3=2", bq.quiver)
    assert d.entries == (1, 0, 2)
    with pytest.raises(ParseError):
        parse_dimvec("nope=1", bq.quiver)


def test_family_quiver_roundtrip():
    bq = Family(FamilyParams(2, 2, 2, 2, 2)).bound_quiver
    text = serialize_quiver(bq)
    assert parse_quiver(text) == bq


def test_random_roundtrips():
    rng = Random(40)
    for _ in range(25):
        bq = random_bound_quiver(rng)
        assert parse_quiver(serialize_quiver(bq)) == bq
        m = hitting_set_point(rng, bq, random_dims(rng, bq.quiver))
        assert parse_rep(serialize_rep(m), bq.quiver) == m


def _chain(vertices, arrows, rel_path=None):
    """Bound quiver on `vertices` with (name, source, target) `arrows`, and
    the relation 1*`rel_path` when given."""
    q = Quiver.build(vertices, arrows)
    return BoundQuiver.of(q, [Relation.of([(F(1), q.path(rel_path))])] if rel_path else [])


@pytest.mark.parametrize("bq, name", [
    (_chain(("u", "v", "w"), (("x.y", "v", "u"), ("z", "w", "v")), ["x.y", "z"]), "x.y"),
    (_chain(("a b", "c"), (("f", "c", "a b"),)), "a b"),
    (_chain(("a#", "c"), (("f", "c", "a#"),)), "a#"),
    (_chain(("u", "v"), (("", "v", "u"),)), ""),
], ids=["dot-in-relation", "space", "hash", "empty"])
def test_serializers_refuse_names_that_do_not_read_back(bq, name):
    with pytest.raises(QuivrepError) as exc:
        serialize_quiver(bq)
    assert repr(name) in str(exc.value)
    if "." not in name:
        with pytest.raises(QuivrepError) as exc:
            serialize_rep(make_rep(bq.quiver, [1] * len(bq.quiver.vertices), {}))
        assert repr(name) in str(exc.value)


def test_names_with_star_slash_and_colon_round_trip():
    # The coefficient is split off at the first '*', so '*' and '/' inside
    # a name read back, and so does ':' outside the mat separator position.
    bq = _chain(("v:1", "v/2", "v*3"), (("a*b", "v/2", "v:1"), ("c/d:", "v*3", "v/2")),
                ["a*b", "c/d:"])
    text = serialize_quiver(bq)
    assert "rel 1*a*b.c/d:" in text
    again = parse_quiver(text)
    assert again == bq and serialize_quiver(again) == text
    m = make_rep(bq.quiver, (1, 2, 1), {"a*b": [[1, F(1, 2)]], "c/d:": [[0], [3]]})
    rep_text = serialize_rep(m)
    assert parse_rep(rep_text, bq.quiver) == m
    assert serialize_rep(parse_rep(rep_text, bq.quiver)) == rep_text
