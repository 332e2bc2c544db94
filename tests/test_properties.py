"""Derandomized property tests for algebraic invariants of the library.

Each property is checked over hypothesis-generated inputs with a fixed
derandomized search so the suite stays reproducible in CI.
"""

from fractions import Fraction as F
from random import Random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quivrep import (
    BoundQuiver,
    CocycleElement,
    DimVector,
    MatrixQ,
    Family,
    FamilyParams,
    Quiver,
    classify_dimvector,
    euler_form,
    expected_dim,
    kernel_basis,
    kron,
    minimal_convex,
    parse_quiver,
    parse_rep,
    rank,
    serialize_quiver,
    serialize_rep,
    tits_form,
    twisted_evaluate,
)
from quivrep.linalg import rref
from quivrep.rep import cocycle_ambient_dim

from util import hitting_set_point, random_bound_quiver, random_dims

FAMILY_BQ = Family(FamilyParams(2, 2, 2, 1, 1)).bound_quiver

A3_BQ = parse_quiver(
    "vertex x1\nvertex x2\nvertex x3\n"
    "arrow alpha x2 x1\narrow beta x3 x2\n"
    "rel 1*alpha.beta\n"
)

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    table = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return MatrixQ.from_rows(table)


def _column(flat):
    return MatrixQ.from_rows([[x] for x in flat])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(matrices())
def test_rref_is_idempotent_and_rank_counts_pivots(m):
    reduced, pivots = rref(m)
    assert rref(reduced) == (reduced, pivots)
    assert rank(m) == len(pivots)
    assert list(pivots) == sorted(set(pivots))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert (m @ _column(v)).is_zero()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_kron_vec_identity(m, n, p, q, data):
    def draw_matrix(rows, cols):
        table = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows))
        return MatrixQ.from_rows(table)

    a = draw_matrix(m, n)
    x = draw_matrix(n, p)
    b = draw_matrix(p, q)
    left = a @ x @ b
    vec_x = _column([x[i, j] for i in range(n) for j in range(p)])
    vec_left = kron(a, b.transpose()) @ vec_x
    assert [vec_left[k, 0] for k in range(m * q)] == \
        [left[i, j] for i in range(m) for j in range(q)]


dim_tuples = st.tuples(*([st.integers(0, 4)] * len(FAMILY_BQ.quiver.vertices)))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(dim_tuples, dim_tuples, dim_tuples)
def test_euler_form_is_biadditive(d_raw, e_raw, f_raw):
    q = FAMILY_BQ.quiver
    d, e, f = (DimVector.of(q, raw) for raw in (d_raw, e_raw, f_raw))
    assert euler_form(d + e, f, FAMILY_BQ) == \
        euler_form(d, f, FAMILY_BQ) + euler_form(e, f, FAMILY_BQ)
    assert euler_form(f, d + e, FAMILY_BQ) == \
        euler_form(f, d, FAMILY_BQ) + euler_form(f, e, FAMILY_BQ)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(dim_tuples)
def test_tits_form_is_euler_on_diagonal(d_raw):
    d = DimVector.of(FAMILY_BQ.quiver, d_raw)
    assert tits_form(d, FAMILY_BQ) == euler_form(d, d, FAMILY_BQ)
    assert expected_dim(d, FAMILY_BQ) == d.glsum() - tits_form(d, FAMILY_BQ)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_quiver_serialization_roundtrip(seed):
    bq = random_bound_quiver(Random(seed))
    text = serialize_quiver(bq)
    assert parse_quiver(text) == bq
    assert serialize_quiver(parse_quiver(text)) == text


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_rep_serialization_roundtrip(seed):
    rng = Random(seed)
    bq = random_bound_quiver(rng)
    m = hitting_set_point(rng, bq, random_dims(rng, bq.quiver))
    assert parse_rep(serialize_rep(m), bq.quiver) == m


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.fractions(min_value=-3, max_value=3,
                                           max_denominator=3))
def test_twisted_evaluate_is_linear(seed, scalar):
    rng = Random(seed)
    bq = random_bound_quiver(rng)
    assume(bq.relations)
    q = bq.quiver
    sub = random_dims(rng, q)
    quot = random_dims(rng, q)
    u = hitting_set_point(rng, bq, sub)
    v = hitting_set_point(rng, bq, quot)
    rel = rng.choice(bq.relations)
    ambient = cocycle_ambient_dim(q, sub, quot)

    def rand_flat():
        return [F(rng.randint(-3, 3)) for _ in range(ambient)]

    flat1, flat2 = rand_flat(), rand_flat()
    z1 = CocycleElement.from_flat(q, sub, quot, flat1)
    z2 = CocycleElement.from_flat(q, sub, quot, flat2)
    scaled = CocycleElement.from_flat(q, sub, quot, [scalar * x for x in flat2])
    lhs = twisted_evaluate(z1 + scaled, rel, u, v)
    rhs = twisted_evaluate(z1, rel, u, v) + \
        twisted_evaluate(z2, rel, u, v).scale(scalar)
    assert lhs == rhs


@st.composite
def quivers(draw):
    """A quiver on at most 6 vertices; loops, cycles and parallel arrows allowed."""
    n = draw(st.integers(1, 6))
    vertices = tuple(f"v{i}" for i in range(n))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=10))
    return Quiver.build(vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])


@st.composite
def quivers_with_seeds(draw):
    quiver = draw(quivers())
    return quiver, draw(st.sets(st.sampled_from(quiver.vertices), min_size=1))


def _reaches(quiver):
    """(x, y) pairs with a path, possibly trivial, from x to y (Warshall)."""
    reach = {(v, v) for v in quiver.vertices} | {(a.source, a.target) for a in quiver.arrows}
    for k in quiver.vertices:
        for i in quiver.vertices:
            for j in quiver.vertices:
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    return reach


def _on_path_between(reach, w, members):
    return any((x, w) in reach for x in members) and any((w, y) in reach for y in members)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(quivers_with_seeds())
def test_minimal_convex_is_the_convex_hull_of_the_seeds(case):
    quiver, seeds = case
    hull = set(minimal_convex(quiver, seeds))
    reach = _reaches(quiver)
    assert seeds <= hull
    # Convex: no vertex outside lies on a path between two members.
    assert not any(_on_path_between(reach, w, hull)
                   for w in quiver.vertices if w not in hull)
    # Minimal: every member lies on a path between two seeds.
    assert all(_on_path_between(reach, w, seeds) for w in hull)


# The connectivity rule classify_dimvector used before it stopped building
# a support record, kept as the oracle: the full subquiver on the support,
# connected as an undirected graph, with the empty support not connected.
def _old_reach(adjacency, starts):
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _old_full_subquiver(quiver, vertex_subset):
    keep = set(vertex_subset)
    verts = tuple(v for v in quiver.vertices if v in keep)
    arrows = tuple(a for a in quiver.arrows if a.source in keep and a.target in keep)
    return Quiver(verts, arrows)


def _old_support_is_connected(d, quiver):
    supported = [v for v, x in zip(quiver.vertices, d.entries) if x > 0]
    sub = _old_full_subquiver(quiver, supported)
    if not supported:
        return False
    adj = {v: [] for v in sub.vertices}
    for a in sub.arrows:
        adj[a.source].append(a.target)
        adj[a.target].append(a.source)
    return len(_old_reach(adj, supported[:1])) == len(supported)


def _old_classify(d, bq):
    if not _old_support_is_connected(d, bq.quiver):
        return "NoIndecomposable"
    q = tits_form(d, bq)
    return {1: "UniqueIndecomposable", 0: "OneParameterFamilies"}.get(q, "NoIndecomposable")


@st.composite
def quivers_with_dims(draw):
    quiver = draw(quivers())
    n = len(quiver.vertices)
    return quiver, draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(quivers_with_dims())
@example((Quiver.build(("v0", "v1"), [("a0", "v0", "v1")]), [0, 0]))
def test_classify_dimvector_matches_the_support_subquiver_rule(case):
    quiver, dims = case
    bq = BoundQuiver.of(quiver, [])
    d = DimVector.of(quiver, dims)
    assert classify_dimvector(d, bq) == _old_classify(d, bq)
