"""Hom spaces, cocycle/coboundary spaces and Ext dimensions.

All spaces are cut out by linear systems over the rationals:

* ``Hom(V, U)`` and ``B(V, U)`` are the kernel and the image of one
  system, :func:`intertwiner_rows`: it sends a vertex family h to the
  arrow family ``U_a h_source - h_target V_a``.  Its kernel is Hom(V, U)
  and its image the coboundaries, so hom = cols - rank and dim B = rank.
* ``Z(V, U)`` (cocycles describing extensions ``0 -> U -> W -> V -> 0``)
  is the kernel of the twisted relation system :func:`cocycle_rows`.
* ``ext1 = dim Z - dim B``, and ``<dim V, dim U> - hom + ext1`` equals
  rows - rank of the cocycle system, the dimension of its cokernel; over
  an algebra of global dimension at most two that is ``ext2`` by the
  Euler identity.  :func:`ext_report` is the one place that evaluates
  these formulas, and :func:`ext1_dim` reads its result; :func:`hom_dim`
  and :func:`orbit_dim` take the one rank of the intertwiner system.

Each system has one writer, and it writes Python-int rows, each with a
known positive scale (a :class:`linalg.MatrixZ`), from the integer forms
of the representations (``Representation.integer_form``, scale d_M for M):

* :func:`intertwiner_rows` multiplies the N-part of every row by d_M and
  the M-part by d_N, so each row is d_M * d_N times its rational row;
* :func:`cocycle_rows` scales each relation block by :func:`_twisted_slots`.

Ranks (:func:`hom_dim`, :func:`ext_report`), kernels (:func:`hom_basis`,
:func:`cocycle_space`, and the Hom(M, N) vectors :func:`iso_probable` sums)
and the image (:func:`coboundary_space`) read those rows as they are;
`linalg.image_basis` brings them to one scale first.
:func:`intertwiner_matrix` and :func:`cocycle_system` divide the rows by
their scales into the exact `MatrixQ`, for the tests and the tracer
only.  Each nonzero coefficient of a row is stored at its own unknown:
the result is the row-major Kronecker form vec(A X B) = kron(A, B^T)
vec(X) of each block, entry for entry, without forming the mostly-zero
products with identity matrices.

A writer refuses, with a :class:`QuivrepError`, a system of more than
:data:`linalg.MAX_CELLS` cells before it allocates a row or an integer form.

The dimensions computed here are field-independent: the systems have
rational coefficients, so ranks over the rationals agree with ranks over
any extension field.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from ._value import Value, count
from .errors import QuivrepError
from .linalg import (MAX_CELLS, MatrixQ, MatrixZ, image_basis, is_invertible, kernel_basis,
                     rank, seeded_rng, unflatten)
from .quiver import BoundQuiver, Relation, euler_form, same_quiver
from .rep import CocycleElement, Representation, _relation_terms, _times


def _check_size(rows: int, cols: int, what: str) -> None:
    if rows * cols > MAX_CELLS:
        raise QuivrepError(f"the {what} system would have {rows} x {cols} cells, "
                           f"more than the cap of {MAX_CELLS}")


def intertwiner_rows(m: Representation, n: Representation) -> MatrixZ:
    """Integer rows of f |-> (N_a f_source - f_target M_a) over all arrows a.

    Unknowns are the stacked row-major entries of f_x (shape n_x x m_x) in
    vertex order, and there is one block of rows per arrow.  The kernel is
    Hom(M, N); the image, laid out like a cocycle family, is B(M, N).  For
    an arrow a: s -> t, row (i, j) of its block holds N_a[i, k] at unknown
    f_s[k, j] and -M_a[l, j] at unknown f_t[i, l], every row times d_M d_N.
    """
    same_quiver(m.quiver, "representation", n)
    ends = m.quiver.arrow_ends
    m_dim, n_dim = m.dim.entries, n.dim.entries
    offsets = list(accumulate(map(mul, m_dim, n_dim), initial=0))
    total = offsets.pop()
    _check_size(sum([n_dim[t] * m_dim[s] for s, t in ends]), total, "intertwiner")
    d_m, m_mats = m.integer_form
    d_n, n_mats = n.integer_form
    rows = []
    for (s, t), m_a, n_a in zip(ends, m_mats, n_mats):
        width_s, width_t = m_dim[s], m_dim[t]
        if not (width_s and n_a):
            continue  # the arrow's block has no rows
        # Nonzeros of column j of M_a, as (column of f_t[0, l], -d_N M_a[l, j]).
        m_cols = [[(offsets[t] + l, -d_n * row[j]) for l, row in enumerate(m_a) if row[j]]
                  for j in range(width_s)]
        for i, n_row in enumerate(n_a):
            # Nonzeros of row i of N_a, as (column of f_s[k, 0], d_M N_a[i, k]).
            n_nz = [(offsets[s] + k * width_s, d_m * x) for k, x in enumerate(n_row) if x]
            shift = i * width_t
            for j in range(width_s):
                row = [0] * total
                for col, x in n_nz:
                    row[col + j] = x
                for col, y in m_cols[j]:
                    row[col + shift] += y
                rows.append(tuple(row))
    return MatrixZ(len(rows), total, tuple(rows), (d_m * d_n,) * len(rows))


def intertwiner_matrix(m: Representation, n: Representation) -> MatrixQ:
    """The exact matrix of :func:`intertwiner_rows`, read only by
    :func:`coboundary_matrix`, the tests and ``perfbench/tracing.py``."""
    return intertwiner_rows(m, n).to_q()


class Basis(Value):
    """A basis of a subspace: a tuple of Hom families or of cocycle elements."""

    __slots__ = _fields = ("elements",)

    @property
    def dim(self) -> int:
        return len(self.elements)


def hom_basis(m: Representation, n: Representation) -> Basis:
    """Basis of Hom(M, N): one dict vertex -> MatrixQ per kernel vector."""
    vertices = m.quiver.vertices
    shapes = list(zip(n.dim.entries, m.dim.entries))
    return Basis(tuple(dict(zip(vertices, unflatten(vec, shapes)))
                       for vec in kernel_basis(intertwiner_rows(m, n))))


def hom_dim(m: Representation, n: Representation) -> int:
    system = intertwiner_rows(m, n)
    return system.cols - rank(system)


def orbit_dim(m: Representation) -> int:
    """Dimension of the base-change orbit: dim GL(d) - dim End(M)."""
    return m.dim.glsum() - hom_dim(m, m)


# -- cocycles and coboundaries ------------------------------------------


def _identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _twisted_slots(rel: Relation, u: Representation, v: Representation) -> tuple:
    """The slots of a relation in integer form, as (scale, slots).

    For each term coeff * (a_1 ... a_m) and each position j, the slot is
    a_j with prefix U_{a_1} ... U_{a_{j-1}} and suffix V_{a_{j+1}} ... V_{a_m}
    (identities when empty): the factors before Z come from U, those after
    from V.  Each slot is (c, a_j, P, S) with int row tuples P and S from
    the integer forms of U and V and an int c, chosen so that the sum of
    c * P Z_{a_j} S over the slots is `scale` times the twisted evaluation.
    With d_U and d_V the integer-form scales and L, D and the terms read by
    ``rep._relation_terms`` (the rule of the :mod:`quivrep.rep` docstring):

    * scale = d_U^(L-1) d_V^(L-1) D;
    * P is d_U^(j-1) times the prefix, S is d_V^(m-j) times the suffix;
    * c = coeff D d_U^(L-j) d_V^(L-1-m+j).
    """
    d_u, u_mats = u.integer_form
    d_v, v_mats = v.integer_form
    longest, den, terms = _relation_terms(rel, u.quiver)
    slots = []
    for c, ks in terms:
        m = len(ks)
        prefixes = [_identity(u.matrices[ks[0]].rows)]  # one running product from the left
        for k in ks[:-1]:
            prefixes.append(_times(prefixes[-1], u_mats[k], u.matrices[k].cols))
        suffix = _identity(v.matrices[ks[-1]].cols)
        width = len(suffix)
        for j in range(m - 1, -1, -1):  # right to left, so the suffix grows by one factor
            slots.append((c * d_u ** (longest - 1 - j) * d_v ** (longest - m + j),
                          ks[j], prefixes[j], suffix))
            if j:
                suffix = _times(v_mats[ks[j]], suffix, width)
    return d_u ** (longest - 1) * d_v ** (longest - 1) * den, slots


def cocycle_rows(v: Representation, u: Representation, bq: BoundQuiver) -> MatrixZ:
    """Integer rows of the twisted relation system whose kernel is Z(V, U).

    Unknowns are the stacked row-major entries of Z_a in arrow order, and
    there is one block of rows per relation, row (r, c) for entry (r, c) of
    the twisted evaluation, scaled as :func:`_twisted_slots` sets out.
    Each of its slots (coeff, a_j, P, S) contributes coeff * P Z_{a_j} S, so
    it adds coeff * P[r, i] * S[k, c] at unknown Z_{a_j}[i, k] of row (r, c).
    """
    quiver = bq.quiver
    same_quiver(quiver, "representation", u, v)
    u_dim, v_dim = u.dim.entries, v.dim.entries
    offsets = list(accumulate([u_dim[t] * v_dim[s] for s, t in quiver.arrow_ends], initial=0))
    total = offsets.pop()
    ends = bq.relation_ends
    _check_size(sum([u_dim[t] * v_dim[s] for s, t in ends]), total, "cocycle")
    rows, scales = [], []
    for rel, (source, target) in zip(bq.relations, ends):
        width = v_dim[source]
        block = [[0] * total for _ in range(u_dim[target] * width)]
        scale, slots = _twisted_slots(rel, u, v)
        for coeff, arrow, prefix, suffix in slots:
            # Z_{a_j}[i, k] is unknown offset + i * w + k, with w = v.dim[source(a_j)].
            w = len(suffix)
            s_cols = [[(k, coeff * row[c]) for k, row in enumerate(suffix) if row[c]]
                      for c in range(width)]
            for r, p_row in enumerate(prefix):
                p_nz = [(offsets[arrow] + i * w, p) for i, p in enumerate(p_row) if p]
                if not p_nz:
                    continue
                for c, s_nz in enumerate(s_cols):
                    row = block[r * width + c]
                    for col, p in p_nz:
                        for k, x in s_nz:
                            row[col + k] += p * x
        rows.extend(map(tuple, block))
        scales.extend([scale] * len(block))
    return MatrixZ(len(rows), total, tuple(rows), tuple(scales))


def cocycle_system(v: Representation, u: Representation, bq: BoundQuiver) -> MatrixQ:
    """The exact matrix of :func:`cocycle_rows`, read only outside the package:
    by ``tests/test_homology_oracle.py``, ``tests/test_homology.py``,
    ``tests/util.py::exact_constrained_dim`` and ``perfbench/tracing.py``."""
    return cocycle_rows(v, u, bq).to_q()


def cocycle_space(v: Representation, u: Representation, bq: BoundQuiver) -> Basis:
    """Basis of Z(V, U), the cocycles for extensions of V by U: ker cocycle_rows."""
    return Basis(tuple(CocycleElement.from_flat(bq.quiver, u.dim, v.dim, vec)
                       for vec in kernel_basis(cocycle_rows(v, u, bq))))


def coboundary_matrix(v: Representation, u: Representation) -> MatrixQ:
    """Matrix of h |-> (U_a h_source - h_target V_a): the intertwiner system.

    Read by nothing but ``perfbench/tracing.py``, which resolves it by
    name; without it ``perfbench/run.py --trace 1`` fails with AttributeError.
    """
    return intertwiner_matrix(v, u)


def coboundary_space(v: Representation, u: Representation) -> Basis:
    """Basis of B(V, U), the coboundaries in the cocycle ambient: the image
    of intertwiner_rows, the rows ext_report ranks for b_dim.  In the
    package only geometry.constrained_cocycles reads it."""
    return Basis(tuple(CocycleElement.from_flat(u.quiver, u.dim, v.dim, vec)
                       for vec in image_basis(intertwiner_rows(v, u))))


class ExtReport(Value):
    """Bundle of the homological invariants of an ordered pair (M, N)."""

    __slots__ = _fields = ("hom", "z_dim", "b_dim", "ext1", "euler", "ext2")


def ext_report(m: Representation, n: Representation, bq: BoundQuiver,
               assert_gldim2: bool = False) -> ExtReport:
    """Hom, Z, B, Ext^1, the Euler form and (if asserted) Ext^2 of (M, N).

    One intertwiner system gives hom = cols - rank and dim B = rank; one
    cocycle system gives dim Z = cols - rank.  With ``assert_gldim2``,
    ext2 = <dim M, dim N> - hom + ext1.  Expanding the Euler form shows
    that this is rows - rank of the cocycle system, the dimension of its
    cokernel, so it is never negative.  It is dim Ext^2(M, N) when the
    algebra has global dimension at most two; the flag asserts that, and
    nothing here checks it.
    """
    delta = intertwiner_rows(m, n)
    b = rank(delta)
    hom = delta.cols - b
    cocycles = cocycle_rows(m, n, bq)
    z = cocycles.cols - rank(cocycles)
    ext1 = z - b
    euler = euler_form(m.dim, n.dim, bq)
    ext2 = euler - hom + ext1 if assert_gldim2 else None
    return ExtReport(hom, z, b, ext1, euler, ext2)


def ext1_dim(v: Representation, u: Representation, bq: BoundQuiver) -> int:
    """dim Ext^1(V, U) = dim Z(V, U) - dim B(V, U)."""
    return ext_report(v, u, bq).ext1


# -- isomorphism testing -------------------------------------------------


def iso_probable(m: Representation, n: Representation, trials: int = 8,
                 seed: int = 0, entry_bound: int = 100) -> str:
    """One-sided randomized isomorphism test with exact certificates.

    Returns "NotIsomorphic" on a proof (dimension vectors differ,
    endomorphism dimensions differ, or hom(M, N) != end(M)),
    "Isomorphic" when some random integer combination of the flat Hom(M, N)
    kernel vectors of :func:`intertwiner_rows` is invertible at every vertex
    (an exact certificate), and "Inconclusive" after the given number of
    failed draws.  Coefficients are drawn from [-entry_bound, entry_bound],
    so `entry_bound` must be at least 1, and `trials` must be at least 1.
    """
    trials, entry_bound = count(trials, "trial count", 1), count(entry_bound, "entry bound", 1)
    same_quiver(m.quiver, "representation", n)
    if m.dim != n.dim:
        return "NotIsomorphic"
    end = hom_dim(m, m)
    if end != hom_dim(n, n):
        return "NotIsomorphic"
    basis = kernel_basis(intertwiner_rows(m, n))
    if len(basis) != end:
        return "NotIsomorphic"
    rng = seeded_rng("iso", seed)
    shapes = list(zip(n.dim.entries, m.dim.entries))
    for _ in range(trials):
        coeffs = [rng.randint(-entry_bound, entry_bound) for _ in basis]
        # flat[i] = sum of c * vec[i]; the basis is empty only if end(M) = 0, so M = N = 0.
        flat = [sum([c * y for c, y in zip(coeffs, col) if c]) for col in zip(*basis)]
        if all(map(is_invertible, unflatten(flat, shapes))):
            return "Isomorphic"
    return "Inconclusive"
