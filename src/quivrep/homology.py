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
  these formulas; the other dimension helpers read its result.

The dimensions computed here are field-independent: the systems have
rational coefficients, so ranks over the rationals agree with ranks over
any extension field.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, _set
from .errors import QuivrepError
from .linalg import (MatrixQ, image_basis, is_invertible, kernel_basis, kron,
                     rank, seeded_rng, vstack)
from .quiver import BoundQuiver, DimVector, euler_form
from .rep import (CocycleElement, Representation, cocycle_ambient_dim,
                  twisted_factors)


def intertwiner_matrix(m: Representation, n: Representation) -> MatrixQ:
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


class HomBasis(Value):
    """A basis of Hom(M, N): each element is one matrix per vertex."""

    __slots__ = _fields = ("source", "target", "elements")

    def __init__(self, source: Representation, target: Representation, elements: tuple):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "elements", elements)  # tuple of dicts vertex -> MatrixQ

    @property
    def dim(self) -> int:
        return len(self.elements)


def hom_basis(m: Representation, n: Representation) -> HomBasis:
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
    return HomBasis(m, n, tuple(elements))


def hom_dim(m: Representation, n: Representation) -> int:
    system = intertwiner_matrix(m, n)
    return system.cols - rank(system)


def end_dim(m: Representation) -> int:
    return hom_dim(m, m)


def orbit_dim(m: Representation) -> int:
    """Dimension of the base-change orbit: dim GL(d) - dim End(M)."""
    return m.dim.glsum() - end_dim(m)


# -- cocycles and coboundaries ------------------------------------------


class CocycleBasis(Value):
    """Basis of a subspace of the cocycle ambient for the pair (V, U)."""

    __slots__ = _fields = ("quiver", "sub_dim", "quot_dim", "elements", "ambient_dim")

    def __init__(self, quiver, sub_dim: DimVector, quot_dim: DimVector, elements: tuple,
                 ambient_dim: int):
        _set(self, "quiver", quiver)
        _set(self, "sub_dim", sub_dim)    # dimension vector of U
        _set(self, "quot_dim", quot_dim)  # dimension vector of V
        _set(self, "elements", elements)  # tuple of CocycleElement
        _set(self, "ambient_dim", ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.elements)


def cocycle_system(v: Representation, u: Representation, bq: BoundQuiver) -> MatrixQ:
    """Matrix of the twisted relation system whose kernel is Z(V, U).

    Unknowns are the stacked row-major entries of Z_a in arrow order; each
    slot (coeff, a_j, prefix, suffix) of :func:`rep.twisted_factors` adds
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
        for coeff, name, prefix, suffix in twisted_factors(rel, u, v):
            contrib = kron(prefix, suffix.transpose()).scale(coeff)
            _add_block(block, contrib, offsets[name])
        row_blocks.append(MatrixQ(nrows, total, tuple(tuple(r) for r in block)))
    if not row_blocks:
        return MatrixQ.zeros(0, total)
    return vstack(row_blocks)


def cocycle_space(v: Representation, u: Representation, bq: BoundQuiver) -> CocycleBasis:
    """Basis of Z(V, U), the cocycles for extensions of V by U."""
    system = cocycle_system(v, u, bq)
    quiver = bq.quiver
    elements = tuple(
        CocycleElement.from_flat(quiver, u.dim, v.dim, vec)
        for vec in kernel_basis(system))
    return CocycleBasis(quiver, u.dim, v.dim, elements,
                        cocycle_ambient_dim(quiver, u.dim, v.dim))


def coboundary_matrix(v: Representation, u: Representation) -> MatrixQ:
    """Matrix of h |-> (U_a h_source - h_target V_a): the intertwiner system.

    Kept as a one-line delegate: ``perfbench/tracing.py`` resolves
    ``quivrep.homology.coboundary_matrix`` by name, and without it
    ``perfbench/run.py --trace 1`` fails with AttributeError.
    """
    return intertwiner_matrix(v, u)


def coboundary_space(v: Representation, u: Representation) -> CocycleBasis:
    """Basis of B(V, U), the coboundaries inside the cocycle ambient."""
    quiver = u.quiver
    delta = intertwiner_matrix(v, u)
    elements = tuple(
        CocycleElement.from_flat(quiver, u.dim, v.dim, vec)
        for vec in image_basis(delta))
    return CocycleBasis(quiver, u.dim, v.dim, elements,
                        cocycle_ambient_dim(quiver, u.dim, v.dim))


class ExtReport(Value):
    """Bundle of the homological invariants of an ordered pair (M, N)."""

    __slots__ = _fields = ("hom", "z_dim", "b_dim", "ext1", "euler", "ext2")

    def __init__(self, hom: int, z_dim: int, b_dim: int, ext1: int, euler: int,
                 ext2: int | None):
        _set(self, "hom", hom)
        _set(self, "z_dim", z_dim)
        _set(self, "b_dim", b_dim)
        _set(self, "ext1", ext1)
        _set(self, "euler", euler)
        _set(self, "ext2", ext2)

    def check_internal(self) -> bool:
        ok = self.ext1 == self.z_dim - self.b_dim and self.ext1 >= 0
        if self.ext2 is not None:
            ok = ok and self.euler == self.hom - self.ext1 + self.ext2
        return ok


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


def ext2_dim_via_euler(m: Representation, n: Representation, bq: BoundQuiver,
                       assert_gldim2: bool) -> int | None:
    """dim Ext^2(M, N) from the Euler identity, if gldim <= 2 is asserted.

    Returns None when the caller does not assert global dimension <= 2.
    Otherwise returns the cokernel dimension of the relation system,
    rows - rank of :func:`cocycle_system` (see :func:`ext_report`), which is
    never negative; it is Ext^2 when gldim <= 2 holds.
    """
    if not assert_gldim2:
        return None
    return ext_report(m, n, bq, assert_gldim2=True).ext2


# -- isomorphism testing -------------------------------------------------


def iso_probable(m: Representation, n: Representation, trials: int = 8,
                 seed: int = 0, entry_bound: int = 100) -> str:
    """One-sided randomized isomorphism test with exact certificates.

    Returns "NotIsomorphic" on a proof (dimension vectors differ,
    endomorphism dimensions differ, or hom(M, N) != end(M)),
    "Isomorphic" when some random rational combination of a Hom basis is
    invertible at every vertex (an exact certificate), and "Inconclusive"
    after the given number of failed draws.
    """
    if m.quiver != n.quiver:
        raise QuivrepError("representations on different quivers")
    if m.dim != n.dim:
        return "NotIsomorphic"
    end = end_dim(m)
    if end != end_dim(n):
        return "NotIsomorphic"
    basis = hom_basis(m, n)
    if basis.dim != end:
        return "NotIsomorphic"
    rng = seeded_rng("iso", seed)
    quiver = m.quiver
    for _ in range(max(trials, 1)):
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
