"""Local geometry of module varieties.

The quantities here compare tangent-space sized upper bounds against the
naive dimension count of the variety:

* ``expected_dim(d)`` (re-exported from the quiver layer) is the number of
  arrow entries minus the number of relation equations; it always equals
  ``dim GL(d) - q(d)``.
* For a triangular quiver whose algebra has global dimension at most two
  and a point M with Ext^2(M, M) = 0, the cocycle space Z(M, M) has
  dimension exactly ``expected_dim`` and M is a smooth point of a
  distinguished component; :func:`regularity_certificate` checks these
  hypotheses numerically and certifies.
* :func:`constrained_cocycles` cuts Z(N, N) down to the cocycles whose
  middle term keeps ``dim Hom(probe, W)`` at its maximal value
  ``2 * hom(probe, N)`` (left exactness caps it there).  That locus is a
  closed cone containing the coboundaries; when the probes performed here
  certify it linear, its dimension is reported, otherwise the full
  cocycle-space dimension is reported with a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._value import Value, _set
from .errors import HomNotZero, NotAVarietyPoint, QuivrepError
from .linalg import in_span, independent_subset
from .quiver import (BoundQuiver, DimVector, euler_form, expected_dim,
                     is_triangular, support, tits_form)
from .rep import CocycleElement, Representation, middle_term
from .homology import (cocycle_space, coboundary_space, ext_report, hom_dim,
                       orbit_dim)

__all__ = [
    "euler_form", "tits_form", "expected_dim", "orbit_dim",
    "classify_dimvector", "regularity_certificate", "RegularityCertificate",
    "constrained_cocycles", "StratumReport", "ext_stratum_tangent_bound",
    "direct_sum_stratum_dim", "bisection_classify",
]


def classify_dimvector(d: DimVector, bq: BoundQuiver, assume_tame_quasitilted: bool) -> str:
    """Indecomposable count prediction from connectedness and the Tits form.

    Only meaningful when the caller asserts the algebra is tame
    quasi-tilted (flag); without the flag the verdict is "Unknown".
    Verdicts: "NoIndecomposable" (support disconnected or q not in {0,1}),
    "UniqueIndecomposable" (q = 1), "OneParameterFamilies" (q = 0).
    """
    if not assume_tame_quasitilted:
        return "Unknown"
    info = support(d, bq.quiver)
    if not info.is_connected:
        return "NoIndecomposable"
    q = tits_form(d, bq)
    if q == 1:
        return "UniqueIndecomposable"
    if q == 0:
        return "OneParameterFamilies"
    return "NoIndecomposable"


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of the smooth-point check at one variety point.

    The one dataclass among the package's value types: callers may derive
    altered certificates with ``dataclasses.replace``.
    """

    dim_vector: DimVector
    triangular: bool
    gldim2_asserted: bool
    end_dim: int
    ext1_self: int
    ext2_self: int | None
    z_self_dim: int
    expected: int
    orbit_dim: int
    verdict: str  # CertifiedRegular | BoundOnly | NotApplicable

    def lines(self):
        yield f"dim_vector = {self.dim_vector}"
        yield f"triangular = {_yn(self.triangular)}"
        yield f"gldim2_asserted = {_yn(self.gldim2_asserted)}"
        yield f"end_dim = {self.end_dim}"
        yield f"ext1_self = {self.ext1_self}"
        yield f"ext2_self = {'unknown' if self.ext2_self is None else self.ext2_self}"
        yield f"z_self_dim = {self.z_self_dim}"
        yield f"expected_dim = {self.expected}"
        yield f"orbit_dim = {self.orbit_dim}"
        yield f"verdict = {self.verdict}"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def regularity_certificate(m: Representation, bq: BoundQuiver,
                           assert_gldim2: bool) -> RegularityCertificate:
    """Certify that M is a smooth point of a full-dimensional component.

    CertifiedRegular requires: triangular quiver, the caller's
    global-dimension flag, Ext^2(M, M) = 0 by the Euler formula, and
    dim Z(M, M) equal to the naive count.  Without the hypotheses the
    verdict is NotApplicable; with them but Ext^2 != 0 (or a mismatching
    cocycle dimension) only the bound is reported.  All homological
    numbers come from one :func:`ext_report` of (M, M).
    """
    if not m.is_variety_point(bq):
        raise NotAVarietyPoint("certificate requested at a non-variety point")
    triangular = is_triangular(bq.quiver)
    rep = ext_report(m, m, bq, assert_gldim2)
    expected = expected_dim(m.dim, bq)
    verdict = "NotApplicable"
    if triangular and assert_gldim2:
        if rep.ext2 == 0 and rep.z_dim == expected:
            verdict = "CertifiedRegular"
        else:
            verdict = "BoundOnly"
    return RegularityCertificate(
        dim_vector=m.dim, triangular=triangular, gldim2_asserted=assert_gldim2,
        end_dim=rep.hom, ext1_self=rep.ext1, ext2_self=rep.ext2,
        z_self_dim=rep.z_dim, expected=expected,
        orbit_dim=m.dim.glsum() - rep.hom, verdict=verdict)


# -- constrained cocycles (rank-drop strata) ------------------------------


class StratumReport(Value):
    """Constrained cocycle space of N relative to a probe module."""

    __slots__ = _fields = ("hom_to_probe", "ambient_dim", "constrained_dim", "linear",
                           "basis")

    def __init__(self, hom_to_probe: int, ambient_dim: int, constrained_dim: int,
                 linear: bool, basis: tuple):
        _set(self, "hom_to_probe", hom_to_probe)  # hom(probe, N)
        _set(self, "ambient_dim", ambient_dim)    # dim Z(N, N)
        _set(self, "constrained_dim", constrained_dim)
        _set(self, "linear", linear)  # False when linearity probes failed
        _set(self, "basis", basis)    # CocycleElement generators of the certified span


def constrained_cocycles(probe: Representation, n: Representation,
                         bq: BoundQuiver) -> StratumReport:
    """Cocycles Z in Z(N, N) with dim Hom(probe, W^Z) = 2 hom(probe, N).

    Left exactness of Hom(probe, -) makes 2*hom(probe, N) the maximum, so
    the condition picks out the minimal-rank locus of the intertwiner
    system of W^Z, a closed cone containing all coboundaries.  The cone is
    probed for linearity: starting from the coboundaries and all member
    basis vectors of Z(N, N), the span is grown by member pairwise sums,
    then every pairwise sum of the span's basis must again be a member.
    If the audit fails the locus is flagged nonlinear and the full
    cocycle-space dimension is reported.
    """
    h = hom_dim(probe, n)
    z_basis = cocycle_space(n, n, bq)
    b_basis = coboundary_space(n, n)

    def is_member(z: CocycleElement) -> bool:
        w = middle_term(z, n, n)
        return hom_dim(probe, w) == 2 * h

    generators = [z for z in b_basis.elements]
    for z in z_basis.elements:
        if is_member(z):
            generators.append(z)

    def span_rows(gens):
        return independent_subset([g.flatten() for g in gens])

    rows = span_rows(generators)

    # Grow: a pairwise sum of ambient basis vectors can be a member even
    # when neither summand is (the locus need not align with the basis).
    grown = True
    while grown:
        grown = False
        for i, zi in enumerate(z_basis.elements):
            for zj in z_basis.elements[i + 1:]:
                candidate = zi + zj
                flat = candidate.flatten()
                if not in_span(rows, flat) and is_member(candidate):
                    generators.append(candidate)
                    rows = span_rows(generators)
                    grown = True

    # Audit: the span is certified linear only if all pairwise sums of its
    # basis are members (each basis vector alone already is, being either a
    # coboundary, an ambient member, or a sum of members by construction).
    span_elements = [
        CocycleElement.from_flat(bq.quiver, n.dim, n.dim, row) for row in rows]
    linear = all(is_member(z) for z in span_elements)
    if linear:
        for i, zi in enumerate(span_elements):
            for zj in span_elements[i + 1:]:
                if not is_member(zi + zj):
                    linear = False
                    break
            if not linear:
                break

    if not linear:
        return StratumReport(hom_to_probe=h, ambient_dim=z_basis.dim,
                             constrained_dim=z_basis.dim, linear=False,
                             basis=tuple(z_basis.elements))
    return StratumReport(hom_to_probe=h, ambient_dim=z_basis.dim,
                         constrained_dim=len(rows), linear=True,
                         basis=tuple(span_elements))


def ext_stratum_tangent_bound(u: Representation, v: Representation,
                              bq: BoundQuiver, assert_gldim2: bool = True) -> int:
    """Tangent bound for the locus of pairs with a fixed ext^1 dimension.

    Requires hom(V, U) = 0; the bound is
    expected_dim(dim U) + expected_dim(dim V) - ext^2(V, U), with ext^2
    from the Euler identity (hence the global-dimension flag).
    """
    if not assert_gldim2:
        raise QuivrepError("tangent bound requires the global-dimension-two assertion")
    rep = ext_report(v, u, bq, assert_gldim2=True)
    if rep.hom != 0:
        raise HomNotZero(f"tangent bound needs hom(V, U) = 0, got {rep.hom}")
    return expected_dim(u.dim, bq) + expected_dim(v.dim, bq) - rep.ext2


def direct_sum_stratum_dim(dim_u1: int, dim_u2: int, d1: DimVector, d2: DimVector,
                           min_hom_12: int, min_hom_21: int) -> int:
    """Dimension of the locus of direct sums from two irreducible strata.

    Inputs are the stratum dimensions of the two summand families, their
    dimension vectors, and the minimal hom dimensions between members of
    the families (both orders).
    """
    total = d1 + d2
    return (dim_u1 + dim_u2 + total.glsum() - d1.glsum() - d2.glsum()
            - min_hom_12 - min_hom_21)


def bisection_classify(t: Representation, m: Representation, bq: BoundQuiver) -> str:
    """Place M relative to the torsion pair generated by a tilting module T.

    "InT" when ext^1(T, M) = 0 only, "InF" when hom(T, M) = 0 only,
    "Both" for the zero module, "Neither" otherwise.
    """
    rep = ext_report(t, m, bq)
    in_t = rep.ext1 == 0
    in_f = rep.hom == 0
    if in_t and in_f:
        return "Both"
    if in_t:
        return "InT"
    if in_f:
        return "InF"
    return "Neither"
