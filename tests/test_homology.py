from fractions import Fraction as F
from random import Random

import pytest

from quivrep import (
    Arrow,
    BoundQuiver,
    Quiver,
    Relation,
    coboundary_space,
    cocycle_space,
    conjugate,
    direct_sum,
    end_dim,
    euler_form,
    ext1_dim,
    ext2_dim_via_euler,
    ext_report,
    hom_basis,
    hom_dim,
    iso_probable,
    make_rep,
    orbit_dim,
    random_invertible,
    rank,
    regularity_certificate,
    simple_rep,
    twisted_evaluate,
)

from quivrep.homology import cocycle_system
from util import random_bound_quiver, random_variety_pair


def a2():
    q = Quiver.build(("v1", "v2"), (Arrow("al", "v2", "v1"),))
    return BoundQuiver.of(q, [])


def a3_bound():
    q = Quiver.build(
        ("x1", "x2", "x3"),
        (Arrow("alpha", "x2", "x1"), Arrow("beta", "x3", "x2")),
    )
    return BoundQuiver.of(q, [Relation.of([(F(1), q.path(["alpha", "beta"]))])])


def test_hom_dims_on_a2():
    bq = a2()
    q = bq.quiver
    p = make_rep(q, (1, 1), {"al": [[1]]})
    s1 = simple_rep(q, "v1")
    s2 = simple_rep(q, "v2")
    assert hom_dim(p, p) == 1
    assert hom_dim(s1, p) == 1   # socle inclusion
    assert hom_dim(p, s1) == 0
    assert hom_dim(p, s2) == 1   # top projection
    assert hom_dim(s2, p) == 0
    assert hom_dim(s1, s2) == 0


def test_hom_basis_elements_intertwine():
    rng = Random(21)
    for _ in range(25):
        bq = random_bound_quiver(rng)
        m, n = random_variety_pair(rng, bq)
        basis = hom_basis(m, n)
        assert len(basis.elements) == hom_dim(m, n)
        for f in basis.elements:
            for arr in bq.quiver.arrows:
                lhs = n.matrix(arr.name) @ f[arr.source]
                rhs = f[arr.target] @ m.matrix(arr.name)
                assert lhs == rhs


def test_ext1_classic_a2_extension():
    bq = a2()
    q = bq.quiver
    s1 = simple_rep(q, "v1")
    s2 = simple_rep(q, "v2")
    # 0 -> S1 -> P -> S2 -> 0 is the unique non-split extension
    assert ext1_dim(s2, s1, bq) == 1
    assert ext1_dim(s1, s2, bq) == 0
    assert euler_form(s2.dim, s1.dim, bq) == hom_dim(s2, s1) - ext1_dim(s2, s1, bq)


def test_end_and_orbit_dim():
    one = Quiver.build(("v",), ())
    bq = BoundQuiver.of(one, [])
    ss = make_rep(one, (2,))
    assert end_dim(ss) == 4
    assert orbit_dim(ss) == 0  # GL2 fixes the zero point
    bq2 = a2()
    p = make_rep(bq2.quiver, (1, 1), {"al": [[1]]})
    assert end_dim(p) == 1
    assert orbit_dim(p) == 1


def test_cocycle_and_coboundary_on_bound_a3():
    bq = a3_bound()
    m = make_rep(bq.quiver, (1, 1, 1), {"alpha": [[1]], "beta": [[0]]})
    z = cocycle_space(m, m, bq)
    b = coboundary_space(m, m)
    assert z.ambient_dim == 2
    assert z.dim == 1       # constraint z_beta = 0
    assert b.dim == 1       # 3 vertex cells minus end dim 2
    assert ext1_dim(m, m, bq) == 0
    # every coboundary is a cocycle: twisted evaluation vanishes on B
    for el in b.elements:
        for rel in bq.relations:
            assert twisted_evaluate(el, rel, m, m).is_zero()


def test_ext2_via_euler_needs_flag():
    bq = a3_bound()
    q = bq.quiver
    s3 = simple_rep(q, "x3")
    s1 = simple_rep(q, "x1")
    assert ext2_dim_via_euler(s3, s1, bq, assert_gldim2=False) is None
    assert ext2_dim_via_euler(s3, s1, bq, assert_gldim2=True) == 1
    assert ext2_dim_via_euler(s1, s3, bq, assert_gldim2=True) == 0


def test_ext2_is_cokernel_dim_of_relation_system():
    # euler - hom + ext1 expands to rows - rank of the cocycle system, so the
    # reported ext2 is a cokernel dimension on every pair and never negative.
    rng = Random(61)
    with_relations = 0
    for _ in range(150):
        bq = random_bound_quiver(rng)
        m, n = random_variety_pair(rng, bq)
        system = cocycle_system(m, n, bq)
        ext2 = ext_report(m, n, bq, assert_gldim2=True).ext2
        assert ext2 == system.rows - rank(system)
        assert ext2_dim_via_euler(m, n, bq, assert_gldim2=True) == ext2
        with_relations += system.rows > 0
    assert with_relations >= 20


def test_ext_report_internal_consistency():
    rng = Random(5)
    for _ in range(25):
        bq = random_bound_quiver(rng)
        m, n = random_variety_pair(rng, bq)
        rep = ext_report(m, n, bq, assert_gldim2=True)
        assert rep.check_internal()
        assert rep.ext1 == rep.z_dim - rep.b_dim
        assert rep.ext2 == rep.euler - rep.hom + rep.ext1
        assert rep.ext2 >= 0
        # the rank path agrees with the basis path
        z_basis = cocycle_space(m, n, bq)
        assert rep.hom == hom_basis(m, n).dim
        assert rep.z_dim == z_basis.dim
        assert rep.b_dim == coboundary_space(m, n).dim
        # the system and the evaluation read the same twisted calculus
        for el in z_basis.elements:
            for rel in bq.relations:
                assert twisted_evaluate(el, rel, n, m).is_zero()
        cert = regularity_certificate(m, bq, True)
        assert cert.end_dim == end_dim(m)
        assert cert.orbit_dim == orbit_dim(m)
        assert cert.ext1_self == ext1_dim(m, m, bq)
        assert cert.z_self_dim == cocycle_space(m, m, bq).dim


def test_iso_probable_verdicts():
    bq = a2()
    q = bq.quiver
    p = make_rep(q, (1, 1), {"al": [[1]]})
    split = direct_sum(simple_rep(q, "v1"), simple_rep(q, "v2"))
    assert iso_probable(p, split) == "NotIsomorphic"
    assert iso_probable(p, p) == "Isomorphic"
    rng = Random(77)
    g = {"v1": random_invertible(1, rng), "v2": random_invertible(1, rng)}
    assert iso_probable(p, conjugate(p, g)) == "Isomorphic"


def test_iso_probable_dim_mismatch():
    bq = a2()
    q = bq.quiver
    p = make_rep(q, (1, 1), {"al": [[1]]})
    s1 = simple_rep(q, "v1")
    assert iso_probable(p, s1) == "NotIsomorphic"
