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

Every representation also has an integer form, computed on first use and
kept: its arrow matrices times d, the lcm of all their denominators.  The
linear systems of :mod:`quivrep.homology` are written from these integer
forms, and relations are evaluated on them by one rule: with L the longest
path of a relation and D the lcm of its coefficient denominators, a path of
length m is d^m times its value, so the sum of coeff * D * d^(L-m) * path
is D * d^L times the relation's value.  :func:`_relation_terms` reads L, D
and the terms of a relation, and :func:`_relation_value` is the one evaluator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from ._value import Value, _set
from .errors import QuivrepError, ShapeMismatch
from .linalg import MatrixQ, capped, inverse, unflatten
from .quiver import BoundQuiver, DimVector, Quiver, Relation, same_quiver


def _times(a: tuple, b: tuple, cols: int) -> tuple:
    """a @ b for int matrices held as row tuples; b has `cols` columns."""
    b_cols = tuple(zip(*b)) if b else ((),) * cols
    return tuple(tuple(sum(map(mul, row, col)) for col in b_cols) for row in a)


class Representation(Value):
    """One MatrixQ per arrow in `matrices`, aligned with ``quiver.arrows``."""

    __slots__ = ("quiver", "dim", "matrices", "_integer_form")
    _fields = ("quiver", "dim", "matrices")

    @staticmethod
    def of(quiver: Quiver, dim: DimVector, matrices: Sequence[MatrixQ]) -> "Representation":
        same_quiver(quiver, "dimension vector", dim)
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
        return self.matrices[self.quiver.arrow_position(arrow_name)]

    @property
    def integer_form(self) -> tuple:
        """(d, mats): d is the lcm of every denominator of every arrow
        matrix, and mats[k] is the matrix of arrow k times d, as int row
        tuples.  Computed on first use and kept."""
        try:
            return self._integer_form
        except AttributeError:
            pass
        d = lcm(*[x.denominator for m in self.matrices for row in m.data for x in row])
        if d == 1:
            mats = tuple([tuple([tuple([x.numerator for x in row]) for row in m.data])
                          for m in self.matrices])
        else:
            mats = tuple([tuple([tuple([x.numerator * (d // x.denominator) for x in row])
                                 for row in m.data]) for m in self.matrices])
        _set(self, "_integer_form", (d, mats))
        return self._integer_form

    def is_variety_point(self, bq: BoundQuiver) -> bool:
        """Whether every relation vanishes, on the integer form (see above)."""
        same_quiver(bq.quiver, "representation", self)
        return not any(any(row) for rel in bq.relations for row in _relation_value(self, rel)[1])


def _relation_terms(rel: Relation, quiver: Quiver) -> tuple:
    """(L, D, terms) of a relation (see above), with each term read as the
    int coeff * D and the arrow positions of its path, in written order."""
    position = quiver.arrow_position
    den = lcm(*[coeff.denominator for coeff, _ in rel.terms])
    terms = [(coeff.numerator * (den // coeff.denominator),
              [position(name) for name in path.arrow_names]) for coeff, path in rel.terms]
    return max(len(ks) for _, ks in terms), den, terms


def _relation_value(m: Representation, rel: Relation) -> tuple:
    """The value of a relation at M as (scale, rows): int row tuples that are
    scale = D * d^L times the value, from M's integer form (see above)."""
    d, mats = m.integer_form
    longest, den, terms = _relation_terms(rel, m.quiver)
    coeffs, values = [], []
    for c, ks in terms:
        value = mats[ks[0]]
        for k in ks[1:]:
            value = _times(value, mats[k], m.matrices[k].cols)
        coeffs.append(c * d ** (longest - len(ks)))
        values.append(value)
    return den * d ** longest, tuple([tuple([sum(map(mul, coeffs, entries)) for entries in zip(*rows)])
                                      for rows in zip(*values)])


def make_rep(quiver: Quiver, dims, mats: Mapping[str, Sequence] | None = None) -> Representation:
    """Convenience builder: dims as mapping/sequence, matrices by arrow name.

    Arrows not mentioned in `mats` get zero matrices of the right shape.
    A DimVector of another quiver, or matrices whose entries in all pass
    the work cap (`linalg.capped`), are refused before any matrix is built.
    """
    dim = dims if isinstance(dims, DimVector) else DimVector.of(quiver, dims)
    same_quiver(quiver, "dimension vector", dim)
    if mats is not None and not isinstance(mats, Mapping):
        raise QuivrepError(f"arrow matrices must be a mapping from arrow names, got {mats!r}")
    given = {quiver.arrow_position(name): m for name, m in (mats or {}).items()}
    sizes = dim.entries
    entries = sum(sizes[s] * sizes[t] for s, t in quiver.arrow_ends)
    capped(entries, "arrow matrices would hold {} entries", entries)
    out = []
    for k, (s, t) in enumerate(quiver.arrow_ends):
        if k not in given:
            out.append(MatrixQ.zeros(sizes[t], sizes[s]))
        else:
            out.append(given[k] if isinstance(given[k], MatrixQ) else MatrixQ.from_rows(given[k]))
    return Representation.of(quiver, dim, out)


def simple_rep(quiver: Quiver, vertex: str) -> Representation:
    """The simple representation: k at one vertex, zero elsewhere."""
    quiver.vertex_position(vertex)  # an unhashable name is refused before the dict
    return make_rep(quiver, {vertex: 1})


def direct_sum(m: Representation, n: Representation) -> Representation:
    """The split extension of n by m: the middle term of the zero cocycle,
    whose gate refuses summands on different quivers."""
    zero = CocycleElement(m.quiver, m.dim, n.dim, tuple(
        MatrixQ.zeros(a.rows, b.cols) for a, b in zip(m.matrices, n.matrices)))
    return middle_term(zero, m, n)


def conjugate(m: Representation, g: Mapping[str, MatrixQ]) -> Representation:
    """Base change by an invertible family g: arrow matrix g_t M_a g_s^{-1}."""
    if not (isinstance(g, Mapping) and all(isinstance(g.get(v), MatrixQ) for v in m.quiver.vertices)):
        raise QuivrepError("conjugate needs a mapping with a MatrixQ at every vertex")
    g_inv = {v: inverse(g[v]) for v in m.quiver.vertices}
    return Representation.of(m.quiver, m.dim, [g[arrow.target] @ a @ g_inv[arrow.source]
                                               for arrow, a in zip(m.quiver.arrows, m.matrices)])


# -- cocycles and middle terms ------------------------------------------


class CocycleElement(Value):
    """A per-arrow matrix family of shape dim(U)_target x dim(V)_source.

    `sub_dim` is the dimension vector of U (the submodule side of the
    extensions this element describes), `quot_dim` that of V; `matrices`
    is aligned with ``quiver.arrows``.
    """

    __slots__ = _fields = ("quiver", "sub_dim", "quot_dim", "matrices")

    def matrix(self, arrow_name: str) -> MatrixQ:
        return self.matrices[self.quiver.arrow_position(arrow_name)]

    def __add__(self, other: "CocycleElement") -> "CocycleElement":
        same_quiver(self.quiver, "cocycle", other)
        if (self.sub_dim, self.quot_dim) != (other.sub_dim, other.quot_dim):
            raise ShapeMismatch("cocycles in different ambient spaces")
        return CocycleElement(self.quiver, self.sub_dim, self.quot_dim,
                              tuple(a + b for a, b in zip(self.matrices, other.matrices)))

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
        """The inverse of :meth:`flatten`; ShapeMismatch on a wrong length."""
        same_quiver(quiver, "dimension vector", sub_dim, quot_dim)
        shapes = [(sub_dim[arrow.target], quot_dim[arrow.source]) for arrow in quiver.arrows]
        return CocycleElement(quiver, sub_dim, quot_dim, tuple(unflatten(coords, shapes)))


def cocycle_ambient_dim(quiver: Quiver, sub_dim: DimVector, quot_dim: DimVector) -> int:
    same_quiver(quiver, "dimension vector", sub_dim, quot_dim)
    return sum(sub_dim[a.target] * quot_dim[a.source] for a in quiver.arrows)


def twisted_evaluate(z: CocycleElement, rel: Relation,
                     u: Representation, v: Representation) -> MatrixQ:
    """Evaluate a relation with one path factor replaced by Z.

    Sums coeff * U_{a_1} ... U_{a_{j-1}} Z_{a_j} V_{a_{j+1}} ... V_{a_m}
    over every term coeff * (a_1 ... a_m) and position j.  The result has
    shape dim(U)_target x dim(V)_source of the relation.  Block (0, 1) of a
    product of blocks [[U_a, Z_a], [0, V_a]] is that sum over j, so this is
    block (0, 1) of rel([[U, Z], [0, V]]), read from ``middle_term(z, u, v)``.
    """
    same_quiver(z.quiver, "twisted evaluation input", u, v, *[path for _, path in rel.terms])
    if u.dim != z.sub_dim or v.dim != z.quot_dim:
        raise ShapeMismatch("cocycle dimensions do not match u, v")
    scale, rows = _relation_value(middle_term(z, u, v), rel)
    top, left = u.dim[rel.target], u.dim[rel.source]
    return MatrixQ(top, v.dim[rel.source],
                   tuple([tuple([Fraction(x, scale) for x in row[left:]]) for row in rows[:top]]))


def middle_term(z: CocycleElement, u: Representation, v: Representation) -> Representation:
    """The extension W of V by U glued along Z: blocks [[U, Z], [0, V]].

    W is a variety point when U and V are and Z is a cocycle; that is not
    checked here.
    """
    same_quiver(u.quiver, "middle term input", v, z)
    if u.dim != z.sub_dim or v.dim != z.quot_dim or len(z.matrices) != len(u.matrices):
        raise ShapeMismatch("cocycle dimensions do not match u, v")
    zero = Fraction(0)
    mats = []
    for ua, va, za in zip(u.matrices, v.matrices, z.matrices):
        if za.shape != (ua.rows, va.cols):
            raise ShapeMismatch(f"cocycle block {za.shape} does not fit {ua.shape} and {va.shape}")
        pad = (zero,) * ua.cols
        mats.append(MatrixQ(ua.rows + va.rows, ua.cols + va.cols,
                            tuple(ra + rz for ra, rz in zip(ua.data, za.data))
                            + tuple(pad + rv for rv in va.data)))
    return Representation(u.quiver, u.dim + v.dim, tuple(mats))
