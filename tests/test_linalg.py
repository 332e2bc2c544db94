from decimal import Decimal
from fractions import Fraction as F
from random import Random

import pytest

from quivrep import linalg
from quivrep.errors import QuivrepError, ShapeMismatch
from quivrep.linalg import (
    MatrixQ,
    hstack,
    image_basis,
    in_span,
    independent_subset,
    inverse,
    is_invertible,
    kernel_basis,
    kron,
    random_invertible,
    random_matrix,
    rank,
    rref,
    seeded_rng,
    vstack,
)


def M(rows):
    return MatrixQ.from_rows(rows)


def test_construction_and_basic_queries():
    a = M([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert a[0, 1] == F(2)
    assert not a.is_zero()
    assert MatrixQ.zeros(2, 3).is_zero()
    assert MatrixQ.identity(3)[2, 2] == 1


def test_ragged_literal_rejected():
    with pytest.raises(ShapeMismatch):
        M([[1, 2], [3]])


@pytest.mark.parametrize("entry", [1.5, "x", "1/0", True, None, Decimal("0.1"), "1e5"], ids=str)
def test_literal_entry_that_is_not_an_exact_rational_raises_quivrep_error(entry):
    # A float, an unreadable string and a zero denominator, not a bare
    # TypeError, ValueError or ZeroDivisionError; a bool, None, a Decimal and
    # exponent notation are no exact rationals either.  A scale factor alike.
    with pytest.raises(QuivrepError, match="exact rational"):
        M([[entry]])
    with pytest.raises(QuivrepError, match="exact rational"):
        M([[1]]).scale(entry)


def test_random_matrix_refuses_an_entry_bound_below_one():
    with pytest.raises(QuivrepError, match="entry bound must be an integer >= 1, got 0"):
        random_matrix(1, 1, Random(0), 0)
    for bound in (2.5, True):
        with pytest.raises(QuivrepError, match="entry bound must be an integer >= 1"):
            random_matrix(1, 1, Random(0), bound)
    # A negative size is refused, not sampled forever.
    with pytest.raises(QuivrepError, match="row count must be an integer >= 0, got -1"):
        random_invertible(-1, Random(0))
    assert random_invertible(0, Random(0)) == MatrixQ.zeros(0, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: MatrixQ.zeros(-1, 2), "row count must be an integer >= 0, got -1"),
    (lambda: MatrixQ.zeros(2, -3), "column count must be an integer >= 0, got -3"),
    (lambda: MatrixQ.zeros(2.0, 1), "row count must be an integer >= 0, got 2.0"),
    (lambda: MatrixQ.zeros(1, True), "column count must be an integer >= 0, got True"),
    (lambda: MatrixQ.identity(True), "matrix size must be an integer >= 0, got True"),
    (lambda: MatrixQ.identity(-1), "matrix size must be an integer >= 0, got -1"),
    (lambda: MatrixQ.identity("2"), "matrix size must be an integer >= 0, got '2'"),
], ids=["zeros-negative-rows", "zeros-negative-cols", "zeros-float", "zeros-bool",
        "identity-bool", "identity-negative", "identity-str"])
def test_zeros_and_identity_refuse_a_size_that_is_not_a_count(build, message):
    # Not a shape-(-1, 2) matrix, a matrix with rows=True, or a bare TypeError.
    with pytest.raises(QuivrepError, match=message):
        build()


def test_zeros_and_identity_accept_size_zero():
    assert MatrixQ.zeros(0, 3).shape == (0, 3)
    assert MatrixQ.identity(0) == MatrixQ.zeros(0, 0)
    assert MatrixQ.identity(2) == M([[1, 0], [0, 1]])


def test_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a + b).data[0] == (F(1), F(3))
    assert (a - a).is_zero()
    assert a.scale(F(1, 2))[1, 0] == F(3, 2)
    assert (a @ b) == M([[2, 1], [4, 3]])
    assert a.transpose().data[0] == (F(1), F(3))


def test_matmul_shape_check():
    with pytest.raises(ShapeMismatch):
        M([[1, 2]]) @ M([[1, 2]])


def test_stacking():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert hstack([a, b]) == M([[1, 2, 3, 4]])


def test_zero_dimension_edges():
    # empty-shaped matrices occur constantly (vertices of dimension zero)
    e = MatrixQ.zeros(0, 3)
    assert rank(e) == 0
    assert (e @ MatrixQ.zeros(3, 2)).shape == (0, 2)
    assert len(kernel_basis(e)) == 3  # no constraints at all


def test_rref_and_rank():
    a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(a)
    assert rank(a) == len(pivots) == 2
    again, again_pivots = rref(reduced)
    assert again == reduced and again_pivots == pivots  # idempotent
    # row space is preserved: each original row lies in the rref row span
    pivot_rows = [tuple(reduced.data[i]) for i in range(2)]
    for i in range(3):
        assert in_span(pivot_rows, tuple(a.data[i]))


def _as_column(v):
    return MatrixQ.from_rows([[x] for x in v])


def test_kernel_basis_annihilates():
    a = M([[1, 2, 3], [0, 1, 1]])
    ker = kernel_basis(a)
    assert len(ker) == 1
    for v in ker:
        assert (a @ _as_column(v)).is_zero()


def test_image_basis_dimension():
    a = M([[1, 0], [0, 0], [2, 0]])
    img = image_basis(a)
    assert len(img) == rank(a) == 1


def test_kron_vec_identity():
    """vec(A X B) == kron(A, B^T) vec(X), row-major vec, over random triples."""
    rng = Random(7)
    for _ in range(40):
        m, n, p, q = (rng.randint(1, 3) for _ in range(4))
        a = random_matrix(m, n, rng)
        x = random_matrix(n, p, rng)
        b = random_matrix(p, q, rng)
        left = a @ x @ b
        vec_x = MatrixQ.from_rows([[x[i, j]] for i in range(n) for j in range(p)])
        vec_l = kron(a, b.transpose()) @ vec_x
        flat = [left[i, j] for i in range(m) for j in range(q)]
        assert [vec_l[k, 0] for k in range(m * q)] == flat


def test_inverse():
    a = M([[2, 1], [1, 1]])
    ainv = inverse(a)
    assert a @ ainv == MatrixQ.identity(2)
    assert is_invertible(a)
    assert not is_invertible(M([[1, 1], [1, 1]]))
    with pytest.raises(ShapeMismatch):
        inverse(M([[1, 1], [1, 1]]))


def test_independent_subset_and_span():
    v1 = (F(1), F(0))
    v2 = (F(2), F(0))
    v3 = (F(0), F(1))
    subset = independent_subset([v1, v2, v3])
    assert len(subset) == 2
    assert in_span([v1, v3], v2)
    assert not in_span([v1], v3)


def test_seeded_rng_is_reproducible():
    a = seeded_rng("tests", 1).random()
    b = seeded_rng("tests", 1).random()
    c = seeded_rng("tests", 2).random()
    assert a == b
    assert a != c


def test_random_invertible_is_invertible():
    rng = Random(3)
    for n in (1, 2, 3, 4):
        g = random_invertible(n, rng)
        assert is_invertible(g)


def test_kernel_basis_refuses_more_entries_than_the_cap(monkeypatch):
    # A 0 x 3 matrix has a kernel basis of 3 vectors of length 3.
    empty = MatrixQ(0, 3, ())
    monkeypatch.setattr(linalg, "MAX_CELLS", 9)
    assert kernel_basis(empty) == [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    monkeypatch.setattr(linalg, "MAX_CELLS", 8)
    with pytest.raises(QuivrepError, match="3 x 3 entries, more than the cap of 8"):
        kernel_basis(empty)
    # A full-rank system has an empty basis, whatever the cap.
    monkeypatch.setattr(linalg, "MAX_CELLS", 0)
    assert kernel_basis(M([[1, 2], [3, 4]])) == []
