"""Differential tests of the direct system builders against Kronecker assembly.

`oracle_intertwiner_matrix` and `oracle_cocycle_system` below are the
`quivrep.homology` builders from before the systems were written row by
row, kept verbatim with their `_add_block` helper and the Fraction
`oracle_twisted_factors` they read.  They assemble each block from dense
Kronecker products with identity matrices.  They live here as oracles
only: every system the package builds must equal theirs entry for entry,
so ranks, kernels, images and every report built on them are unchanged.
`hom_basis` and `cocycle_space` take their kernels, and `coboundary_space`
its image, of the integer rows as written; the kernels and the image of
the exact matrices, split into blocks by the loop they used before, are
their oracle.
"""

from fractions import Fraction
from random import Random

import pytest

from quivrep import (BoundQuiver, ExtReport, Quiver, coboundary_space, cocycle_space, euler_form,
                     ext_report, hom_basis, hom_dim, make_rep, rank)
from quivrep.errors import QuivrepError
from quivrep.homology import cocycle_rows, cocycle_system, intertwiner_matrix
from quivrep.linalg import MatrixQ, MatrixZ, image_basis, kernel_basis, kron, vstack
from util import (hitting_set_point, random_bound_quiver, random_dims, random_quiver_with_cycles,
                  random_relations, random_rep, random_variety_pair, with_rational_coefficients,
                  with_rational_entries)


def oracle_intertwiner_matrix(m, n) -> MatrixQ:
    """Matrix of f |-> (N_a f_source - f_target M_a) over all arrows a.

    Unknowns are the stacked row-major entries of f_x (shape n_x x m_x) in
    vertex order, and there is one block of rows per arrow.  The kernel is
    Hom(M, N); the image, laid out like a cocycle family, is B(M, N).
    """
    if m.quiver != n.quiver:
        raise QuivrepError("representations on different quivers")
    quiver = m.quiver
    offsets = {}
    total = 0
    for v in quiver.vertices:
        offsets[v] = total
        total += n.dim[v] * m.dim[v]
    row_blocks = []
    for arrow in quiver.arrows:
        s, t = arrow.source, arrow.target
        nrows = n.dim[t] * m.dim[s]
        block = [[Fraction(0)] * total for _ in range(nrows)]
        left = kron(n.matrix(arrow.name), MatrixQ.identity(m.dim[s]))
        _add_block(block, left, offsets[s])
        right = kron(MatrixQ.identity(n.dim[t]), m.matrix(arrow.name).transpose())
        _add_block(block, right.scale(-1), offsets[t])
        row_blocks.append(MatrixQ(nrows, total, tuple(tuple(r) for r in block)))
    if not row_blocks:
        return MatrixQ.zeros(0, total)
    return vstack(row_blocks)


def _add_block(rows, block: MatrixQ, col_offset: int):
    for i in range(block.rows):
        row = rows[i]
        brow = block.data[i]
        for j in range(block.cols):
            if brow[j]:
                row[col_offset + j] += brow[j]


def oracle_twisted_factors(rel, u, v):
    """Yield (coeff, arrow name, prefix, suffix) for every slot of a relation.

    For each term coeff * (a_1 ... a_m) and each position j, the slot is
    a_j with prefix U_{a_1} ... U_{a_{j-1}} and suffix V_{a_{j+1}} ... V_{a_m}
    (identities when empty): the factors before Z come from U, those after
    from V.
    """
    for coeff, path in rel.terms:
        names = path.arrow_names
        for j, name in enumerate(names):
            prefix = MatrixQ.identity(u.dim[path.target])
            for pre in names[:j]:
                prefix = prefix @ u.matrix(pre)
            suffix = MatrixQ.identity(v.dim[path.source])
            for post in reversed(names[j + 1:]):
                suffix = v.matrix(post) @ suffix
            yield coeff, name, prefix, suffix


def oracle_cocycle_system(v, u, bq) -> MatrixQ:
    """Matrix of the twisted relation system whose kernel is Z(V, U).

    Unknowns are the stacked row-major entries of Z_a in arrow order; each
    slot (coeff, a_j, prefix, suffix) of :func:`oracle_twisted_factors` adds
    coeff * kron(prefix, suffix^T) to the block of a_j, since that is the
    row-major form of Z_{a_j} |-> prefix Z_{a_j} suffix.
    """
    quiver = bq.quiver
    if u.quiver != quiver or v.quiver != quiver:
        raise QuivrepError("representations on a different quiver")
    offsets = {}
    pos = 0
    for arrow in quiver.arrows:
        offsets[arrow.name] = pos
        pos += u.dim[arrow.target] * v.dim[arrow.source]
    total = pos
    row_blocks = []
    for rel in bq.relations:
        nrows = u.dim[rel.target] * v.dim[rel.source]
        block = [[Fraction(0)] * total for _ in range(nrows)]
        for coeff, name, prefix, suffix in oracle_twisted_factors(rel, u, v):
            contrib = kron(prefix, suffix.transpose()).scale(coeff)
            _add_block(block, contrib, offsets[name])
        row_blocks.append(MatrixQ(nrows, total, tuple(tuple(r) for r in block)))
    if not row_blocks:
        return MatrixQ.zeros(0, total)
    return vstack(row_blocks)


def assert_same_systems(m, n, bq):
    """Both builders agree with their oracles, in both orders of the pair."""
    for a, b in ((m, n), (n, m)):
        for got, want in ((intertwiner_matrix(a, b), oracle_intertwiner_matrix(a, b)),
                          (cocycle_system(a, b, bq), oracle_cocycle_system(a, b, bq))):
            assert got.shape == want.shape and got.data == want.data
            assert all(isinstance(x, Fraction) for x in got.entries())


def test_builders_match_oracle_on_seeded_variety_pairs():
    """200 seeded pairs from the shared generators, in both orders, half of
    them with non-integer entries; zero-dimensional vertices are common."""
    rng = Random(8301)
    zero_dim_pairs = relation_free = 0
    for i in range(200):
        bq = random_bound_quiver(rng)
        u, v = random_variety_pair(rng, bq)
        if i % 2:
            u, v = with_rational_entries(u, rng), with_rational_entries(v, rng)
        zero_dim_pairs += 0 in u.dim.entries or 0 in v.dim.entries
        relation_free += not bq.relations
        assert_same_systems(u, v, bq)
    assert zero_dim_pairs > 50 and relation_free > 10


def test_builders_match_oracle_when_relation_paths_repeat_an_arrow():
    rng = Random(8302)
    repeated = 0
    for _ in range(120):
        quiver = random_quiver_with_cycles(rng)
        bq = BoundQuiver.of(quiver, random_relations(rng, quiver, 3))
        repeated += any(len(set(p.arrow_names)) < len(p.arrow_names)
                        for rel in bq.relations for _, p in rel.terms)
        u, v = random_rep(rng, quiver), random_rep(rng, quiver)
        assert_same_systems(u, with_rational_entries(v, rng), bq)
    assert repeated > 20


@pytest.mark.parametrize("dims", [(0, 0, 0), (2, 0, 1), (1, 1, 1)])
def test_builders_match_oracle_without_arrows(dims):
    quiver = Quiver.build(("x", "y", "z"), ())
    bq = BoundQuiver.of(quiver, ())
    u = make_rep(quiver, dims)
    v = make_rep(quiver, (1, 2, 0))
    assert_same_systems(u, v, bq)
    assert intertwiner_matrix(u, v).shape == (0, 2 * dims[1] + dims[0])
    assert cocycle_system(u, v, bq).shape == (0, 0)


def test_builders_match_oracle_with_every_vertex_zero_dimensional():
    rng = Random(8303)
    bq = random_bound_quiver(rng)
    while not bq.relations:
        bq = random_bound_quiver(rng)
    zero = make_rep(bq.quiver, {x: 0 for x in bq.quiver.vertices})
    other = hitting_set_point(rng, bq, random_dims(rng, bq.quiver))
    assert_same_systems(zero, other, bq)
    assert_same_systems(zero, zero, bq)


def test_integer_ranks_match_the_oracle_systems_on_fractional_input():
    """hom_dim and every ext_report field are cols - rank (or rank, or
    rows - rank) of the oracle systems, on entries with denominators 2, 3
    and 7 and relation coefficients with denominators 2, 7 and 3.  The
    public matrices stay equal to the oracle's, entry for entry."""
    rng = Random(1302)
    scaled = mixed_lengths = 0
    for _ in range(120):
        quiver = random_quiver_with_cycles(rng)
        bq = with_rational_coefficients(
            BoundQuiver.of(quiver, random_relations(rng, quiver, 3)), rng)
        u = with_rational_entries(random_rep(rng, quiver), rng)
        v = with_rational_entries(random_rep(rng, quiver), rng)
        for a, b in ((u, v), (v, u), (u, u)):
            delta = oracle_intertwiner_matrix(a, b)
            cocycles = oracle_cocycle_system(a, b, bq)
            b_dim = rank(delta)
            z_dim = cocycles.cols - rank(cocycles)
            assert hom_dim(a, b) == delta.cols - b_dim
            assert ext_report(a, b, bq, assert_gldim2=True) == ExtReport(
                hom=delta.cols - b_dim, z_dim=z_dim, b_dim=b_dim, ext1=z_dim - b_dim,
                euler=euler_form(a.dim, b.dim, bq), ext2=cocycles.rows - rank(cocycles))
        assert_same_systems(u, v, bq)
        scaled += any(s > 1 for s in cocycle_rows(u, v, bq).scales)
        mixed_lengths += any(len({p.length for _, p in rel.terms}) > 1 for rel in bq.relations)
    assert scaled > 40 and mixed_lengths > 10


def test_ext_report_on_integral_points_builds_no_fraction(monkeypatch):
    rng = Random(1303)
    cases = []
    for _ in range(40):
        bq = random_bound_quiver(rng)
        u, v = random_variety_pair(rng, bq)
        cases.append((u, v, bq))
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for u, v, bq in cases:
        ext_report(u, v, bq, assert_gldim2=True)
        ext_report(v, u, bq)
        hom_dim(u, u)
    assert built == []
    # The patch does see Fractions: the exact matrices build them.
    intertwiner_matrix(*cases[0][:2])
    assert built


def _oracle_split(vec, shapes) -> tuple:
    """vec as row-major blocks of the given shapes, by the loop that
    `hom_basis` and `CocycleElement.from_flat` each kept before."""
    mats, pos = [], 0
    for r, c in shapes:
        mats.append(MatrixQ(r, c, tuple(tuple(vec[pos + i * c: pos + (i + 1) * c])
                                        for i in range(r))))
        pos += r * c
    assert pos == len(vec)
    return tuple(mats)


def test_bases_of_the_integer_rows_match_the_exact_kernels(monkeypatch):
    """hom_basis, cocycle_space and coboundary_space read the integer rows
    as written, without building the exact matrices; their bases equal those
    split from the kernels of intertwiner_matrix and cocycle_system and from
    the image of intertwiner_matrix, on entries and relation coefficients
    with denominators, in both orders and on (u, u)."""
    rng = Random(2601)
    cases = []
    for _ in range(120):
        bq = random_bound_quiver(rng, max_relations=3)
        while not bq.relations:
            bq = random_bound_quiver(rng, max_relations=3)
        bq = with_rational_coefficients(bq, rng)
        u, v = random_variety_pair(rng, bq)
        u, v = with_rational_entries(u, rng), with_rational_entries(v, rng)
        cases.extend(((u, v, bq), (v, u, bq), (u, u, bq)))
    want = []
    for a, b, bq in cases:
        arrow_shapes = [(b.dim[x.target], a.dim[x.source]) for x in bq.quiver.arrows]
        vertex_shapes = [(b.dim[x], a.dim[x]) for x in bq.quiver.vertices]
        want.append((
            [dict(zip(bq.quiver.vertices, _oracle_split(vec, vertex_shapes)))
             for vec in kernel_basis(intertwiner_matrix(a, b))],
            [_oracle_split(vec, arrow_shapes) for vec in kernel_basis(cocycle_system(a, b, bq))],
            [_oracle_split(vec, arrow_shapes) for vec in image_basis(intertwiner_matrix(a, b))]))

    def refused(*args):
        raise AssertionError("built an exact system")

    monkeypatch.setattr(MatrixZ, "to_q", refused)
    homs = cocycles = coboundaries = scaled = unequal_scales = 0
    for (a, b, bq), (want_hom, want_z, want_b) in zip(cases, want):
        assert list(hom_basis(a, b).elements) == want_hom
        assert [z.matrices for z in cocycle_space(a, b, bq).elements] == want_z
        assert [z.matrices for z in coboundary_space(a, b).elements] == want_b
        homs += bool(want_hom)
        cocycles += bool(want_z)
        coboundaries += bool(want_b)
        scales = cocycle_rows(a, b, bq).scales
        scaled += any(s > 1 for s in scales)
        unequal_scales += len(set(scales)) > 1
    assert homs > 250 and cocycles > 250 and coboundaries > 250
    assert scaled > 150 and unequal_scales > 80
