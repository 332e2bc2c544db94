"""Differential tests of the integer elimination core against Fraction Gauss-Jordan.

`_oracle_echelon` below is the Fraction Gauss-Jordan elimination that
`quivrep.linalg` used before it moved to fraction-free integer
elimination, kept verbatim.  It lives here as an oracle only.  The
reduced row echelon form is unique, so `rank`, `rref` and everything built
on `rref` (`kernel_basis`, `image_basis`, `inverse`) must return identical
values under both cores.  The derived functions are run
once as they are and once with `linalg.rref` swapped for the oracle's.
`rank` eliminates a tall system as its transpose, so it is also checked on
tall, wide and row-less matrices, as `MatrixQ` and as `MatrixZ`, against
the oracle and against the rank of the transpose.  `rref` and
`kernel_basis` take a `MatrixZ`'s rows as written, so they are checked on
`as_matrix_z(m)`, whose rows have unequal scales, against the oracle's
values for m.  `EchelonBasis` is
checked against the rank-based `in_span` on streams of vectors.
`MatrixQ.__add__`, which passes an entry through when the other is zero,
is checked against the entrywise `Fraction` sum, and `middle_term`, which
writes its blocks row by row, against a `vstack`/`hstack` assembly.
"""

from fractions import Fraction
from math import lcm
from random import Random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from quivrep import CocycleElement, Representation, direct_sum, make_rep, middle_term
from quivrep import linalg
from quivrep.errors import ShapeMismatch
from quivrep.linalg import (EchelonBasis, MatrixQ, MatrixZ, hstack, image_basis, in_span, inverse,
                            kernel_basis, rank, rref, vstack)
from util import random_quiver_with_cycles, random_rep, with_rational_entries


def _oracle_echelon(table):
    """In-place fractions Gauss-Jordan; returns list of pivot column indices."""
    nrows = len(table)
    ncols = len(table[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if table[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        table[r], table[pivot_row] = table[pivot_row], table[r]
        inv = 1 / table[r][c]
        table[r] = [x * inv for x in table[r]]
        for i in range(nrows):
            if i != r and table[i][c]:
                f = table[i][c]
                table[i] = [x - f * y for x, y in zip(table[i], table[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def oracle_rref(m: MatrixQ):
    table = [list(row) for row in m.data]
    pivots = _oracle_echelon(table)
    return MatrixQ(m.rows, m.cols, tuple(tuple(row) for row in table)), pivots


def oracle_rank(m: MatrixQ) -> int:
    table = [list(row) for row in m.data]
    return len(_oracle_echelon(table))


def outcome(fn, *args):
    """The value of fn(*args), or the exception type it raised."""
    try:
        return fn(*args)
    except ShapeMismatch as exc:
        return type(exc)


def both(fn, *args):
    """(value with the integer core, value with the oracle's rref)."""
    new = outcome(fn, *args)
    with mock.patch.object(linalg, "rref", oracle_rref):
        old = outcome(fn, *args)
    return new, old


# Small integers, non-integer rationals, huge numerators and denominators,
# and zeros often enough for zero rows and rank deficiency to be common.
entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.integers(-10 ** 40, 10 ** 40).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 12)),
)


def _table(draw, rows, cols):
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@st.composite
def matrices(draw, square=False, max_dim=6):
    """Any shape from 0x0 up, including 0xn and nx0; dense or of low rank,
    with some rows zeroed."""
    rows = draw(st.integers(0, max_dim))
    cols = rows if square else draw(st.integers(0, max_dim))
    return _filled(draw, rows, cols)


@st.composite
def oriented(draw):
    """Tall (more rows than columns), wide, or without rows; some tall ones
    have zero columns as well as zero rows."""
    kind = draw(st.sampled_from(("tall", "wide", "zero-row")))
    short = draw(st.integers(0, 5))
    long = draw(st.integers(short + 1, 12))
    if kind == "zero-row":
        return MatrixQ(0, long, ())
    m = _filled(draw, long, short) if kind == "tall" else _filled(draw, short, long)
    if kind == "tall" and short and draw(st.booleans()):
        j = draw(st.integers(0, short - 1))
        m = MatrixQ(m.rows, m.cols, tuple(row[:j] + (Fraction(0),) + row[j + 1:]
                                          for row in m.data))
    return m


def _filled(draw, rows, cols):
    if draw(st.booleans()) and rows and cols:
        k = draw(st.integers(0, min(rows, cols) - 1))
        left = MatrixQ(rows, k, tuple(map(tuple, _table(draw, rows, k))))
        right = MatrixQ(k, cols, tuple(map(tuple, _table(draw, k, cols))))
        table = [list(row) for row in (left @ right).data]
    else:
        table = _table(draw, rows, cols)
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        table[i] = [Fraction(0)] * cols
    return MatrixQ(rows, cols, tuple(map(tuple, table)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(matrices())
def test_rank_and_rref_match_oracle(m):
    assert rank(m) == oracle_rank(m)
    reduced, pivots = rref(m)
    want, want_pivots = oracle_rref(m)
    assert pivots == want_pivots
    assert reduced == want
    assert all(isinstance(x, Fraction) for x in reduced.entries())
    # Integer rows of unequal scales are eliminated as written, to the same RREF.
    assert rref(as_matrix_z(m)) == (want, want_pivots)


def as_matrix_z(m: MatrixQ) -> MatrixZ:
    """The same matrix as integer rows, each row times the lcm of its denominators."""
    scales = tuple(lcm(*[x.denominator for x in row]) for row in m.data)
    return MatrixZ(m.rows, m.cols, tuple(tuple(int(x * s) for x in row)
                                         for row, s in zip(m.data, scales)), scales)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(oriented())
def test_rank_on_either_side_matches_oracle_and_the_transpose(m):
    # rank eliminates the transpose of a tall system, so both orientations
    # and both matrix types must give the oracle's rank.
    want = oracle_rank(m)
    z = as_matrix_z(m)
    assert z.to_q() == m
    assert rank(m) == rank(m.transpose()) == want
    assert rank(z) == rank(as_matrix_z(m.transpose())) == want


def test_rank_of_systems_without_rows_or_columns():
    assert rank(MatrixZ(0, 10 ** 16, (), ())) == 0
    assert rank(MatrixZ(4, 0, ((),) * 4, (1,) * 4)) == 0
    assert rank(MatrixQ(0, 10 ** 16, ())) == 0
    assert rank(MatrixQ(3, 0, ((),) * 3)) == 0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrices())
def test_derived_functions_match_oracle(m):
    new, old = both(kernel_basis, m)
    assert new == old
    assert kernel_basis(as_matrix_z(m)) == old
    new, old = both(image_basis, m)
    assert new == old


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matrices(square=True))
def test_inverse_matches_oracle(m):
    new, old = both(inverse, m)
    assert new == old


def test_edge_shapes_match_oracle():
    shapes = [MatrixQ(0, 4, ()), MatrixQ(3, 0, ((),) * 3), MatrixQ(0, 0, ()),
              MatrixQ.zeros(3, 4), MatrixQ.identity(3),
              MatrixQ.from_rows([[10 ** 50 + 1, Fraction(1, 10 ** 30)],
                                 [Fraction(-7, 3), 10 ** 49]])]
    for m in shapes:
        assert rank(m) == oracle_rank(m)
        assert rref(m) == oracle_rref(m)
        for fn in (kernel_basis, image_basis, inverse):
            new, old = both(fn, m)
            assert new == old


@st.composite
def vector_streams(draw):
    """Vectors of one length: fresh ones, zero vectors, repeats and
    rational combinations of vectors drawn earlier in the stream."""
    n = draw(st.integers(1, 7))
    stream = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination")))
        if kind == "zero":
            v = [Fraction(0)] * n
        elif kind == "fresh" or not stream:
            v = draw(st.lists(entries, min_size=n, max_size=n))
        elif kind == "repeat":
            v = list(draw(st.sampled_from(stream)))
        else:
            parts = draw(st.lists(st.sampled_from(stream), min_size=1, max_size=3))
            v = [Fraction(0)] * n
            for part in parts:
                c = draw(entries)
                v = [x + c * y for x, y in zip(v, part)]
        stream.append(tuple(v))
    return stream


@settings(derandomize=True, deadline=None, max_examples=300)
@given(vector_streams())
def test_echelon_basis_membership_matches_in_span(stream):
    # Keep each vector outside the span, as constrained_cocycles does.
    basis, kept = EchelonBasis(), []
    for v in stream:
        row = basis.reduce(v)
        assert (row is None) == in_span(kept, v)
        if row is not None:
            basis.add(row)
            kept.append(v)
        assert len(basis) == rank(MatrixQ.from_rows(kept))


@st.composite
def same_shape_pairs(draw):
    """Two matrices of one shape, 0x0 up, with zero, negative, non-integer
    and huge entries and some rows zeroed."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return _filled(draw, rows, cols), _filled(draw, rows, cols)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(same_shape_pairs())
def test_sum_matches_the_entrywise_fraction_sum(pair):
    a, b = pair
    total = a + b
    assert total.shape == a.shape
    assert total.data == tuple(tuple(x + y for x, y in zip(ra, rb))
                               for ra, rb in zip(a.data, b.data))
    assert all(type(x) is Fraction for x in total.entries())
    assert b + a == total


def test_sum_refuses_mismatched_shapes():
    for a, b in ((MatrixQ.zeros(2, 3), MatrixQ.zeros(3, 2)),
                 (MatrixQ.zeros(0, 2), MatrixQ.zeros(0, 3))):
        assert outcome(a.__add__, b) is ShapeMismatch


def oracle_middle_term(z: CocycleElement, u: Representation, v: Representation) -> Representation:
    """Blocks [[U_a, Z_a], [0, V_a]] assembled with hstack and vstack."""
    mats = [vstack([hstack([ua, za]), hstack([MatrixQ.zeros(va.rows, ua.cols), va])])
            for ua, va, za in zip(u.matrices, v.matrices, z.matrices)]
    return Representation.of(u.quiver, u.dim + v.dim, mats)


def _random_cocycle(rng: Random, u: Representation, v: Representation) -> CocycleElement:
    """Any per-arrow family of the right shapes: not checked to be a cocycle."""
    values = (0, 0, 1, -1, Fraction(1, 2), Fraction(-7, 3))
    n = sum(u.dim[a.target] * v.dim[a.source] for a in u.quiver.arrows)
    return CocycleElement.from_flat(u.quiver, u.dim, v.dim,
                                    tuple(Fraction(rng.choice(values)) for _ in range(n)))


def test_middle_term_matches_the_stacked_blocks():
    zero_dim_cases = 0
    for seed in range(300):
        rng = Random(seed)
        quiver = random_quiver_with_cycles(rng)
        u, v = random_rep(rng, quiver), with_rational_entries(random_rep(rng, quiver), rng)
        if seed % 10 == 0:
            u = make_rep(quiver, {})  # zero at every vertex
        zero_dim_cases += 0 in u.dim.entries + v.dim.entries
        z = _random_cocycle(rng, u, v)
        w = middle_term(z, u, v)
        assert w == oracle_middle_term(z, u, v)
        assert all(type(x) is Fraction for m in w.matrices for x in m.entries())
        zero = CocycleElement.from_flat(quiver, u.dim, v.dim, (Fraction(0),) * len(z.flatten()))
        assert direct_sum(u, v) == oracle_middle_term(zero, u, v)
        # a Z matrix one row or one column off is refused by both
        for i, za in enumerate(z.matrices):
            for rows, cols in ((za.rows + 1, za.cols), (za.rows, za.cols + 1)):
                bad = CocycleElement(quiver, u.dim, v.dim, z.matrices[:i]
                                     + (MatrixQ.zeros(rows, cols),) + z.matrices[i + 1:])
                assert outcome(middle_term, bad, u, v) is ShapeMismatch
                assert outcome(oracle_middle_term, bad, u, v) is ShapeMismatch
    assert zero_dim_cases > 100
