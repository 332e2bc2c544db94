"""Hom spaces, cocycle/coboundary spaces and Ext dimensions.

All spaces are cut out by linear systems over the rationals:

* ``Hom(V, U)`` and ``B(V, U)`` are the kernel and the image of one
  system, :func:`intertwiner_matrix`: it sends a vertex family h to the
  arrow family ``U_a h_source - h_target V_a``.  Its kernel is Hom(V, U)
  and its image the coboundaries, so hom = cols - rank and dim B = rank.
* ``Z(V, U)`` (cocycles describing extensions ``0 -> U -> W -> V -> 0``)
  is the kernel of the twisted relation system :func:`cocycle_system`.
* ``ext1 = dim Z - dim B``, and ``<dim V, dim U> - hom + ext1`` equals
  rows - rank of the cocycle system, the dimension of its cokernel; over
  an algebra of global dimension at most two that is ``ext2`` by the
  Euler identity.  :func:`ext_report` is the one place that evaluates
  these formulas, and :func:`ext1_dim` reads its result; :func:`hom_dim`
  and :func:`orbit_dim` take the one rank of the intertwiner system.

Both systems are written row by row: each nonzero coefficient of a row is
stored at its own unknown, and every other entry is the shared zero.  The
result is the row-major Kronecker form vec(A X B) = kron(A, B^T) vec(X)
of each block, entry for entry, without forming the mostly-zero products
with identity matrices.  The two builders stay separate because a shared
row writer would multiply by the identity entries that
:func:`intertwiner_matrix` stores directly.

The dimensions computed here are field-independent: the systems have
rational coefficients, so ranks over the rationals agree with ranks over
any extension field.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .errors import QuivrepError
from .linalg import MatrixQ, image_basis, is_invertible, kernel_basis, rank, seeded_rng
from .quiver import BoundQuiver, euler_form
from .rep import CocycleElement, Representation, twisted_factors

# Builders start every row as [_ZERO] * cols.  A cell that still holds this
# very object has not been written, so its first write is a plain store and
# only a second one (an arrow that is a loop, or two slots on one arrow) adds.
_ZERO = Fraction(0)


def intertwiner_matrix(m: Representation, n: Representation) -> MatrixQ:
    """Matrix of f |-> (N_a f_source - f_target M_a) over all arrows a.

    Unknowns are the stacked row-major entries of f_x (shape n_x x m_x) in
    vertex order, and there is one block of rows per arrow.  The kernel is
    Hom(M, N); the image, laid out like a cocycle family, is B(M, N).  For
    an arrow a: s -> t, row (i, j) of its block holds N_a[i, k] at unknown
    f_s[k, j] and -M_a[l, j] at unknown f_t[i, l].
    """
    if m.quiver != n.quiver:
        raise QuivrepError("representations on different quivers")
    quiver = m.quiver
    offsets = {}
    total = 0
    for v in quiver.vertices:
        offsets[v] = total
        total += n.dim[v] * m.dim[v]
    rows = []
    for arrow in quiver.arrows:
        s, t = arrow.source, arrow.target
        width_s, width_t = m.dim[s], m.dim[t]
        m_a = m.matrix(arrow.name).data
        # Nonzeros of column j of M_a, as (column of f_t[0, l], -M_a[l, j]).
        m_cols = [[(offsets[t] + l, -row[j]) for l, row in enumerate(m_a) if row[j]]
                  for j in range(width_s)]
        for i, n_row in enumerate(n.matrix(arrow.name).data):
            # Nonzeros of row i of N_a, as (column of f_s[k, 0], N_a[i, k]).
            n_nz = [(offsets[s] + k * width_s, x) for k, x in enumerate(n_row) if x]
            shift = i * width_t
            for j in range(width_s):
                row = [_ZERO] * total
                for col, x in n_nz:
                    row[col + j] = x
                for col, y in m_cols[j]:
                    cell = row[col + shift]
                    row[col + shift] = y if cell is _ZERO else cell + y
                rows.append(tuple(row))
    return MatrixQ(len(rows), total, tuple(rows))


class Basis(Value):
    """A basis of a subspace: a tuple of Hom families or of cocycle elements."""

    __slots__ = _fields = ("elements",)

    @property
    def dim(self) -> int:
        return len(self.elements)


def hom_basis(m: Representation, n: Representation) -> Basis:
    """Basis of Hom(M, N): one dict vertex -> MatrixQ per kernel vector."""
    system = intertwiner_matrix(m, n)
    quiver = m.quiver
    elements = []
    for vec in kernel_basis(system):
        fam = {}
        pos = 0
        for v in quiver.vertices:
            r, c = n.dim[v], m.dim[v]
            rows = tuple(tuple(vec[pos + i * c: pos + (i + 1) * c]) for i in range(r))
            fam[v] = MatrixQ(r, c, rows)
            pos += r * c
        elements.append(fam)
    return Basis(tuple(elements))


def hom_dim(m: Representation, n: Representation) -> int:
    system = intertwiner_matrix(m, n)
    return system.cols - rank(system)


def orbit_dim(m: Representation) -> int:
    """Dimension of the base-change orbit: dim GL(d) - dim End(M)."""
    return m.dim.glsum() - hom_dim(m, m)


# -- cocycles and coboundaries ------------------------------------------


def cocycle_system(v: Representation, u: Representation, bq: BoundQuiver) -> MatrixQ:
    """Matrix of the twisted relation system whose kernel is Z(V, U).

    Unknowns are the stacked row-major entries of Z_a in arrow order, and
    there is one block of rows per relation, row (r, c) for entry (r, c) of
    the twisted evaluation.  Each slot (coeff, a_j, P, S) of
    :func:`rep.twisted_factors` contributes P Z_{a_j} S, so it adds
    coeff * P[r, i] * S[k, c] at unknown Z_{a_j}[i, k] of row (r, c).
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
    rows = []
    for rel in bq.relations:
        width = v.dim[rel.source]
        block = [[_ZERO] * total for _ in range(u.dim[rel.target] * width)]
        for coeff, name, prefix, suffix in twisted_factors(rel, u, v):
            # Z_{a_j}[i, k] is unknown offset + i * w + k, with w = v.dim[source(a_j)].
            w = suffix.rows
            s_cols = [[(k, coeff * row[c]) for k, row in enumerate(suffix.data) if row[c]]
                      for c in range(width)]
            for r, p_row in enumerate(prefix.data):
                p_nz = [(offsets[name] + i * w, p) for i, p in enumerate(p_row) if p]
                if not p_nz:
                    continue
                for c, s_nz in enumerate(s_cols):
                    row = block[r * width + c]
                    for col, p in p_nz:
                        for k, x in s_nz:
                            cell = row[col + k]
                            row[col + k] = p * x if cell is _ZERO else cell + p * x
        rows.extend(tuple(row) for row in block)
    return MatrixQ(len(rows), total, tuple(rows))


def cocycle_space(v: Representation, u: Representation, bq: BoundQuiver) -> Basis:
    """Basis of Z(V, U), the cocycles for extensions of V by U: ker cocycle_system."""
    system = cocycle_system(v, u, bq)
    quiver = bq.quiver
    elements = tuple(
        CocycleElement.from_flat(quiver, u.dim, v.dim, vec)
        for vec in kernel_basis(system))
    return Basis(elements)


def coboundary_matrix(v: Representation, u: Representation) -> MatrixQ:
    """Matrix of h |-> (U_a h_source - h_target V_a): the intertwiner system.

    Kept as a one-line delegate: ``perfbench/tracing.py`` resolves
    ``quivrep.homology.coboundary_matrix`` by name, and without it
    ``perfbench/run.py --trace 1`` fails with AttributeError.
    """
    return intertwiner_matrix(v, u)


def coboundary_space(v: Representation, u: Representation) -> Basis:
    """Basis of B(V, U), the coboundaries in the cocycle ambient: im intertwiner_matrix."""
    quiver = u.quiver
    delta = intertwiner_matrix(v, u)
    elements = tuple(
        CocycleElement.from_flat(quiver, u.dim, v.dim, vec)
        for vec in image_basis(delta))
    return Basis(elements)


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
    delta = intertwiner_matrix(m, n)
    b = rank(delta)
    hom = delta.cols - b
    cocycles = cocycle_system(m, n, bq)
    z = cocycles.cols - rank(cocycles)
    ext1 = z - b
    euler = euler_form(m.dim, n.dim, bq)
    ext2 = None
    if assert_gldim2:
        ext2 = euler - hom + ext1
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
    "Isomorphic" when some random rational combination of a Hom basis is
    invertible at every vertex (an exact certificate), and "Inconclusive"
    after the given number of failed draws.  Coefficients are drawn from
    [-entry_bound, entry_bound], so `entry_bound` must be at least 1, and
    `trials` must be at least 1.
    """
    if trials < 1:
        raise QuivrepError(f"trial count must be at least 1, got {trials}")
    if entry_bound < 1:
        raise QuivrepError(f"entry bound must be at least 1, got {entry_bound}")
    if m.quiver != n.quiver:
        raise QuivrepError("representations on different quivers")
    if m.dim != n.dim:
        return "NotIsomorphic"
    end = hom_dim(m, m)
    if end != hom_dim(n, n):
        return "NotIsomorphic"
    basis = hom_basis(m, n)
    if basis.dim != end:
        return "NotIsomorphic"
    rng = seeded_rng("iso", seed)
    quiver = m.quiver
    for _ in range(trials):
        coeffs = [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in basis.elements]
        candidate = {}
        for v in quiver.vertices:
            acc = MatrixQ.zeros(n.dim[v], m.dim[v])
            for c, fam in zip(coeffs, basis.elements):
                if c:
                    acc = acc + fam[v].scale(c)
            candidate[v] = acc
        if all(is_invertible(candidate[v]) for v in quiver.vertices):
            return "Isomorphic"
    return "Inconclusive"
