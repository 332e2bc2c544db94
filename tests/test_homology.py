import time
from collections import Counter
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
    euler_form,
    ext1_dim,
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

from quivrep.errors import QuivrepError
from quivrep import homology, linalg
from quivrep.homology import cocycle_system, intertwiner_matrix
from quivrep.rep import cocycle_ambient_dim
import util
from util import (iso_probable_per_vertex, random_bound_quiver, random_variety_pair,
                  with_rational_entries)


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
    assert hom_dim(ss, ss) == 4
    assert orbit_dim(ss) == 0  # GL2 fixes the zero point
    bq2 = a2()
    p = make_rep(bq2.quiver, (1, 1), {"al": [[1]]})
    assert hom_dim(p, p) == 1
    assert orbit_dim(p) == 1


def test_cocycle_and_coboundary_on_bound_a3():
    bq = a3_bound()
    m = make_rep(bq.quiver, (1, 1, 1), {"alpha": [[1]], "beta": [[0]]})
    z = cocycle_space(m, m, bq)
    b = coboundary_space(m, m)
    assert cocycle_ambient_dim(bq.quiver, m.dim, m.dim) == 2
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
    assert ext_report(s3, s1, bq, assert_gldim2=False).ext2 is None
    assert ext_report(s3, s1, bq, assert_gldim2=True).ext2 == 1
    assert ext_report(s1, s3, bq, assert_gldim2=True).ext2 == 0


@pytest.mark.parametrize("entry", ["ext_report", "regularity_certificate"])
@pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
def test_the_gldim2_flag_must_be_true_or_false(entry, value):
    # "no" is truthy: it once certified a point and computed ext2.
    q = Quiver.build(("a", "b"), [("x", "a", "b")])
    bq = BoundQuiver.of(q, ())
    m = make_rep(q, (1, 1), {"x": [[1]]})
    call = {"ext_report": lambda: ext_report(m, m, bq, assert_gldim2=value),
            "regularity_certificate": lambda: regularity_certificate(m, bq, value)}[entry]
    with pytest.raises(QuivrepError) as exc:
        call()
    assert str(exc.value) == f"assert_gldim2 must be True or False, got {value!r}"


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
        with_relations += system.rows > 0
    assert with_relations >= 20


def test_ext_report_internal_consistency():
    rng = Random(5)
    for _ in range(25):
        bq = random_bound_quiver(rng)
        m, n = random_variety_pair(rng, bq)
        rep = ext_report(m, n, bq, assert_gldim2=True)
        assert rep.ext1 >= 0
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
        assert cert.end_dim == hom_dim(m, m)
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


@pytest.mark.parametrize("entry_bound", [0, -1, 2.5, True])
def test_iso_probable_refuses_entry_bound_below_one(entry_bound):
    p = make_rep(a2().quiver, (1, 1), {"al": [[1]]})
    with pytest.raises(QuivrepError, match="entry bound must be an integer >= 1"):
        iso_probable(p, p, entry_bound=entry_bound)


@pytest.mark.parametrize("trials", [0, -2, 2.5, True])
def test_iso_probable_refuses_trials_below_one(trials):
    p = make_rep(a2().quiver, (1, 1), {"al": [[1]]})
    with pytest.raises(QuivrepError, match="trial count must be an integer >= 1"):
        iso_probable(p, p, trials=trials)


def test_iso_probable_hom_differs_from_end():
    # R_l = (a = 1, b = l) on the Kronecker quiver: end = 1, and no nonzero map
    # R_2 -> R_3, so hom(R_2, R_3) = 0 != end(R_2).
    q = Quiver.build(("v1", "v2"), (Arrow("a", "v2", "v1"), Arrow("b", "v2", "v1")))
    r2 = make_rep(q, (1, 1), {"a": [[1]], "b": [[2]]})
    r3 = make_rep(q, (1, 1), {"a": [[1]], "b": [[3]]})
    assert hom_dim(r2, r2) == hom_dim(r3, r3) == 1 and hom_dim(r2, r3) == 0
    assert iso_probable(r2, r3) == "NotIsomorphic"


def test_iso_probable_inconclusive_after_singular_draws():
    # End(S (+) S) is all 2 x 2 matrices; with entries in {-1, 0, 1} the one
    # draw at seed 4 is singular, so one trial proves nothing either way.
    s = simple_rep(a2().quiver, "v1")
    m = direct_sum(s, s)
    assert iso_probable(m, m, trials=1, seed=4, entry_bound=1) == "Inconclusive"
    assert iso_probable(m, m, seed=4) == "Isomorphic"


def test_iso_probable_matches_the_per_vertex_sums(monkeypatch):
    """iso_probable sums the writer's flat Hom kernel vectors and splits the
    sum per vertex.  On seeded pairs (M, N), (M, M) and (M, g.M), some with
    non-integer entries, at three trial and entry-bound settings, it gives
    the verdict of the per-vertex MatrixQ sums it replaced and tests the
    same matrices in the same order; all three verdicts occur."""
    tested = {"flat": [], "per_vertex": []}

    def recording(key):
        def is_invertible(mat):
            tested[key].append(mat)
            return linalg.is_invertible(mat)
        return is_invertible

    monkeypatch.setattr(homology, "is_invertible", recording("flat"))
    monkeypatch.setattr(util, "is_invertible", recording("per_vertex"))
    rng = Random(2801)
    verdicts, matrices = Counter(), 0
    for k in range(80):
        bq = random_bound_quiver(rng, max_vertices=4)
        m, n = random_variety_pair(rng, bq)
        if k % 2:
            m = with_rational_entries(m, rng)
        g = {v: random_invertible(m.dim[v], rng) for v in bq.quiver.vertices}
        for a, b in ((m, n), (m, m), (m, conjugate(m, g))):
            for trials, entry_bound in ((1, 1), (2, 1), (8, 100)):
                seed = rng.randint(0, 10**6)
                got = iso_probable(a, b, trials, seed, entry_bound)
                assert got == iso_probable_per_vertex(a, b, trials, seed, entry_bound)
                assert tested["flat"] == tested["per_vertex"]
                verdicts[got] += 1
                matrices += len(tested["flat"])
                tested["flat"].clear()
                tested["per_vertex"].clear()
    assert verdicts["NotIsomorphic"] > 150 and verdicts["Inconclusive"] > 50
    assert verdicts["Isomorphic"] > 300 and matrices > 1000
    zero = make_rep(bq.quiver, [0] * len(bq.quiver.vertices))  # an empty Hom basis
    assert iso_probable(zero, zero) == iso_probable_per_vertex(zero, zero) == "Isomorphic"


def test_iso_probable_dim_mismatch():
    bq = a2()
    q = bq.quiver
    p = make_rep(q, (1, 1), {"al": [[1]]})
    s1 = simple_rep(q, "v1")
    assert iso_probable(p, s1) == "NotIsomorphic"


def test_oversized_systems_are_refused_before_anything_is_allocated():
    # Every vertex has dimension 1000: the Hom system would have
    # 2*10^6 x 3*10^6 cells and the cocycle system 10^6 x 2*10^6.
    q = Quiver.build(("a", "b", "c"), (Arrow("x", "b", "a"), Arrow("y", "c", "b")))
    bq = BoundQuiver.of(q, [Relation.of([(1, q.path(["x", "y"]))])])
    big = make_rep(q, (1000, 1000, 1000))
    calls = (lambda: hom_dim(big, big), lambda: ext_report(big, big, bq),
             lambda: intertwiner_matrix(big, big), lambda: cocycle_system(big, big, bq))
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(QuivrepError, match="more than the cap of 10000000"):
            call()
    assert time.perf_counter() - start < 1
    assert not hasattr(big, "_integer_form")  # the integer form was never built


def test_the_cell_cap_admits_a_system_of_exactly_its_size(monkeypatch):
    bq = a2()
    p = make_rep(bq.quiver, (1, 1), {"al": [[1]]})
    system = intertwiner_matrix(p, p)
    cells = system.rows * system.cols
    monkeypatch.setattr(linalg, "MAX_CELLS", cells)
    assert hom_dim(p, p) == 1
    monkeypatch.setattr(linalg, "MAX_CELLS", cells - 1)
    with pytest.raises(QuivrepError, match="1 x 2 cells"):
        hom_dim(p, p)


def test_bases_beyond_the_cap_are_refused_before_they_are_allocated():
    # One vertex of dimension 10^4 and no arrow: the Hom system has no rows
    # and 10^8 columns, so its kernel basis would hold 10^8 x 10^8 entries.
    # One arrow from a 1- to a 10^4-dimensional vertex and no relation: the
    # cocycle system has no rows, and its kernel basis 10^4 x 10^4 entries.
    one = Quiver.build(("a",), ())
    big = make_rep(one, (10 ** 4,))
    arrow = BoundQuiver.of(Quiver.build(("a", "b"), (Arrow("x", "a", "b"),)), ())
    wide = make_rep(arrow.quiver, (1, 10 ** 4))
    start = time.perf_counter()
    assert hom_dim(big, big) == 10 ** 8
    with pytest.raises(QuivrepError, match="100000000 x 100000000 entries"):
        hom_basis(big, big)
    with pytest.raises(QuivrepError, match="10000 x 10000 entries"):
        cocycle_space(wide, wide, arrow)
    # The image of a system without rows is empty, however wide it is.
    assert coboundary_space(big, big).dim == 0
    assert time.perf_counter() - start < 1
