"""Representations of bound quivers, and the twisted (cocycle) calculus.

A representation assigns to each vertex x a rational vector space of
dimension d_x and to each arrow a a matrix of shape d_target x d_source,
acting on column vectors.  Paths evaluate to products in written order
(rightmost arrow first, so the written order *is* the multiplication
order), and a representation is a point of the module variety when every
relation evaluates to zero.

For two representations U (submodule side) and V (quotient side), a
cocycle Z assigns to each arrow a matrix of shape
``dim(U)_target x dim(V)_source``.  Twisted evaluation of Z on a relation
replaces one factor of each path by the corresponding Z matrix, using U
for the factors before it and V after it; a cocycle is a family on which
every relation's twisted evaluation vanishes, and each such family glues U
below V into a middle term W with arrow blocks [[U_a, Z_a], [0, V_a]].
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from ._value import Value, _set
from .errors import NotACocycle, NotAVarietyPoint, QuivrepError, ShapeMismatch
from .linalg import MatrixQ, block_matrix
from .quiver import BoundQuiver, DimVector, Path, Quiver, Relation


class Representation(Value):
    """Matrices for every arrow, stored in arrow declaration order."""

    __slots__ = _fields = ("quiver", "dim", "matrices")

    def __init__(self, quiver: Quiver, dim: DimVector, matrices: tuple):
        _set(self, "quiver", quiver)
        _set(self, "dim", dim)
        _set(self, "matrices", matrices)  # one MatrixQ per arrow, aligned with quiver.arrows

    @staticmethod
    def of(quiver: Quiver, dim: DimVector, matrices: Sequence[MatrixQ]) -> "Representation":
        mats = tuple(matrices)
        if len(mats) != len(quiver.arrows):
            raise ShapeMismatch("need exactly one matrix per arrow")
        for arrow, m in zip(quiver.arrows, mats):
            want = (dim[arrow.target], dim[arrow.source])
            if m.shape != want:
                raise ShapeMismatch(
                    f"arrow {arrow.name}: matrix shape {m.shape}, expected {want}")
        return Representation(quiver, dim, mats)

    def matrix(self, arrow_name: str) -> MatrixQ:
        return self.matrices[self.quiver.arrow_index[arrow_name]]

    def evaluate_path(self, path: Path) -> MatrixQ:
        if path.quiver != self.quiver:
            raise QuivrepError("path on a different quiver")
        if path.is_trivial:
            return MatrixQ.identity(self.dim[path.base])
        out = self.matrix(path.arrow_names[0])
        for name in path.arrow_names[1:]:
            out = out @ self.matrix(name)
        return out

    def evaluate_relation(self, rel: Relation) -> MatrixQ:
        acc = None
        for coeff, path in rel.terms:
            term = self.evaluate_path(path).scale(coeff)
            acc = term if acc is None else acc + term
        return acc

    def is_variety_point(self, bq: BoundQuiver) -> bool:
        if bq.quiver != self.quiver:
            raise QuivrepError("representation on a different quiver")
        return all(self.evaluate_relation(rel).is_zero() for rel in bq.relations)


def make_rep(quiver: Quiver, dims, mats: Mapping[str, Sequence] | None = None) -> Representation:
    """Convenience builder: dims as mapping/sequence, matrices by arrow name.

    Arrows not mentioned in `mats` get zero matrices of the right shape.
    """
    dim = dims if isinstance(dims, DimVector) else DimVector.of(quiver, dims)
    mats = dict(mats or {})
    unknown = [k for k in mats if k not in quiver.arrow_index]
    if unknown:
        raise QuivrepError(f"matrix given for unknown arrow {unknown[0]!r}")
    out = []
    for arrow in quiver.arrows:
        shape = (dim[arrow.target], dim[arrow.source])
        if arrow.name in mats:
            given = mats[arrow.name]
            m = given if isinstance(given, MatrixQ) else MatrixQ.from_rows(given)
            if m.shape != shape:
                raise ShapeMismatch(
                    f"arrow {arrow.name}: matrix shape {m.shape}, expected {shape}")
        else:
            m = MatrixQ.zeros(*shape)
        out.append(m)
    return Representation.of(quiver, dim, out)


def zero_rep(quiver: Quiver) -> Representation:
    return make_rep(quiver, {v: 0 for v in quiver.vertices})


def simple_rep(quiver: Quiver, vertex: str) -> Representation:
    """The simple representation: k at one vertex, zero elsewhere."""
    return make_rep(quiver, {vertex: 1})


def direct_sum(m: Representation, n: Representation) -> Representation:
    if m.quiver != n.quiver:
        raise QuivrepError("summands on different quivers")
    quiver = m.quiver
    dim = m.dim + n.dim
    mats = []
    for arrow, a, b in zip(quiver.arrows, m.matrices, n.matrices):
        z_upper = MatrixQ.zeros(a.rows, b.cols)
        z_lower = MatrixQ.zeros(b.rows, a.cols)
        mats.append(block_matrix([[a, z_upper], [z_lower, b]]))
    return Representation.of(quiver, dim, mats)


def conjugate(m: Representation, g: Mapping[str, MatrixQ]) -> Representation:
    """Base change by an invertible family g: arrow matrix g_t M_a g_s^{-1}."""
    from .linalg import inverse

    g_inv = {v: inverse(g[v]) for v in m.quiver.vertices}
    mats = []
    for arrow, a in zip(m.quiver.arrows, m.matrices):
        mats.append(g[arrow.target] @ a @ g_inv[arrow.source])
    return Representation.of(m.quiver, m.dim, mats)


# -- cocycles and middle terms ------------------------------------------


class CocycleElement(Value):
    """A per-arrow matrix family of shape dim(U)_target x dim(V)_source.

    `sub_dim` is the dimension vector of U (the submodule side of the
    extensions this element describes), `quot_dim` that of V.
    """

    __slots__ = _fields = ("quiver", "sub_dim", "quot_dim", "matrices")

    def __init__(self, quiver: Quiver, sub_dim: DimVector, quot_dim: DimVector,
                 matrices: tuple):
        _set(self, "quiver", quiver)
        _set(self, "sub_dim", sub_dim)
        _set(self, "quot_dim", quot_dim)
        _set(self, "matrices", matrices)  # aligned with quiver.arrows

    @staticmethod
    def of(quiver: Quiver, sub_dim: DimVector, quot_dim: DimVector,
           matrices: Sequence[MatrixQ]) -> "CocycleElement":
        mats = tuple(matrices)
        if len(mats) != len(quiver.arrows):
            raise ShapeMismatch("need exactly one matrix per arrow")
        for arrow, m in zip(quiver.arrows, mats):
            want = (sub_dim[arrow.target], quot_dim[arrow.source])
            if m.shape != want:
                raise ShapeMismatch(
                    f"arrow {arrow.name}: cocycle shape {m.shape}, expected {want}")
        return CocycleElement(quiver, sub_dim, quot_dim, mats)

    def matrix(self, arrow_name: str) -> MatrixQ:
        return self.matrices[self.quiver.arrow_index[arrow_name]]

    def __add__(self, other: "CocycleElement") -> "CocycleElement":
        if (self.quiver, self.sub_dim, self.quot_dim) != (other.quiver, other.sub_dim, other.quot_dim):
            raise ShapeMismatch("cocycles in different ambient spaces")
        return CocycleElement(self.quiver, self.sub_dim, self.quot_dim,
                              tuple(a + b for a, b in zip(self.matrices, other.matrices)))

    def scale(self, c) -> "CocycleElement":
        return CocycleElement(self.quiver, self.sub_dim, self.quot_dim,
                              tuple(m.scale(c) for m in self.matrices))

    def flatten(self) -> tuple:
        """Row-major coordinates, arrows in declaration order."""
        out = []
        for m in self.matrices:
            for row in m.data:
                out.extend(row)
        return tuple(out)

    @staticmethod
    def from_flat(quiver: Quiver, sub_dim: DimVector, quot_dim: DimVector,
                  coords: Sequence[Fraction]) -> "CocycleElement":
        mats = []
        pos = 0
        for arrow in quiver.arrows:
            r, c = sub_dim[arrow.target], quot_dim[arrow.source]
            rows = []
            for i in range(r):
                rows.append(tuple(coords[pos + i * c: pos + (i + 1) * c]))
            pos += r * c
            mats.append(MatrixQ(r, c, tuple(rows)))
        if pos != len(coords):
            raise ShapeMismatch("flat coordinate vector has wrong length")
        return CocycleElement(quiver, sub_dim, quot_dim, tuple(mats))


def cocycle_ambient_dim(quiver: Quiver, sub_dim: DimVector, quot_dim: DimVector) -> int:
    return sum(sub_dim[a.target] * quot_dim[a.source] for a in quiver.arrows)


def twisted_factors(rel: Relation, u: Representation, v: Representation):
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


def twisted_evaluate(z: CocycleElement, rel: Relation,
                     u: Representation, v: Representation) -> MatrixQ:
    """Evaluate a relation with one path factor replaced by Z.

    Sums coeff * prefix Z_{a_j} suffix over the slots of
    :func:`twisted_factors`.  The result has shape
    dim(U)_target x dim(V)_source of the relation.
    """
    if u.dim != z.sub_dim or v.dim != z.quot_dim:
        raise ShapeMismatch("cocycle dimensions do not match u, v")
    acc = MatrixQ.zeros(u.dim[rel.target], v.dim[rel.source])
    for coeff, name, prefix, suffix in twisted_factors(rel, u, v):
        acc = acc + (prefix @ z.matrix(name) @ suffix).scale(coeff)
    return acc


def middle_term(z: CocycleElement, u: Representation, v: Representation,
                bq: BoundQuiver | None = None) -> Representation:
    """The extension W of V by U glued along Z: blocks [[U, Z], [0, V]].

    When a bound quiver is supplied, Z is checked to be an honest cocycle
    (twisted evaluation vanishes on every relation), which makes W a
    variety point whenever U and V are.
    """
    if u.quiver != v.quiver or z.quiver != u.quiver:
        raise QuivrepError("middle term inputs on different quivers")
    if u.dim != z.sub_dim or v.dim != z.quot_dim:
        raise ShapeMismatch("cocycle dimensions do not match u, v")
    if bq is not None:
        for rel in bq.relations:
            if not twisted_evaluate(z, rel, u, v).is_zero():
                raise NotACocycle(f"twisted evaluation nonzero on relation {rel}")
    quiver = u.quiver
    dim = u.dim + v.dim
    mats = []
    for arrow, ua, va, za in zip(quiver.arrows, u.matrices, v.matrices, z.matrices):
        lower_zero = MatrixQ.zeros(va.rows, ua.cols)
        mats.append(block_matrix([[ua, za], [lower_zero, va]]))
    return Representation.of(quiver, dim, mats)


def require_variety_point(m: Representation, bq: BoundQuiver, what: str = "representation"):
    if not m.is_variety_point(bq):
        raise NotAVarietyPoint(f"{what} does not satisfy the relations")
