"""Local geometry of module varieties.

The quantities here compare tangent-space sized upper bounds against the
naive dimension count of the variety:

* ``quiver.expected_dim(d)`` is the number of arrow entries minus the
  number of relation equations; it always equals ``dim GL(d) - q(d)``.
* For a triangular quiver whose algebra has global dimension at most two
  and a point M with Ext^2(M, M) = 0, the cocycle space Z(M, M) has
  dimension exactly ``expected_dim`` and M is a smooth point of a
  distinguished component; :func:`regularity_certificate` checks these
  hypotheses numerically and certifies.
* :func:`constrained_cocycles` cuts Z(N, N) down to the cocycles whose
  middle term keeps ``dim Hom(probe, W)`` at its maximal value
  ``2 * hom(probe, N)`` (left exactness caps it there).  That locus is a
  linear subspace containing the coboundaries.  For W = [[N, Z], [0, N]]
  a map probe -> W is a pair (g, f) with f in Hom(probe, N) and
  D(g) = -Z.f, D the intertwiner map of (probe, N); so the maximum holds
  exactly when Z.f lies in B(probe, N) for every f of a Hom(probe, N)
  basis.  That condition is linear in Z for any N and probe (Hom reads
  only arrows, so W need not satisfy the relations), and a coboundary
  Z = D_N(h) meets it with Z.f = D(h.f).  So the span of any members is
  inside the locus; the search that finds members is still probe-and-grow,
  and it keeps that span as a :class:`~quivrep.linalg.EchelonBasis`.
"""

from __future__ import annotations

from itertools import chain

from ._value import Value
from .errors import NotAVarietyPoint
from .linalg import EchelonBasis
from .quiver import BoundQuiver, DimVector, is_triangular
from .rep import CocycleElement, Representation, middle_term
from .homology import cocycle_space, coboundary_space, ext_report, hom_dim


def regularity_certificate(m: Representation, bq: BoundQuiver, assert_gldim2: bool):
    """Certify that M is a smooth point of a full-dimensional component.

    Returns a :class:`~quivrep.certificate.RegularityCertificate`, whose
    module is imported here, on the first call, and not with ``geometry``.

    CertifiedRegular requires: triangular quiver, the caller's
    global-dimension flag and Ext^2(M, M) = 0 by the Euler formula.  That
    also makes dim Z(M, M) the naive count, since z_self_dim - expected is
    rows - rank of the cocycle system of (M, M), which is ext2_self.
    Without the hypotheses the verdict is NotApplicable; with them but
    Ext^2 != 0 only the bound is reported.  All homological numbers come
    from one :func:`ext_report` of (M, M); expected = dim GL(d) - its euler, q(d).
    """
    if not m.is_variety_point(bq):
        raise NotAVarietyPoint("certificate requested at a non-variety point")
    from .certificate import RegularityCertificate

    triangular = is_triangular(bq.quiver)
    rep = ext_report(m, m, bq, assert_gldim2)
    gl = m.dim.glsum()
    verdict = "NotApplicable"
    if triangular and assert_gldim2:
        verdict = "CertifiedRegular" if rep.ext2 == 0 else "BoundOnly"
    return RegularityCertificate(
        dim_vector=m.dim, triangular=triangular, gldim2_asserted=assert_gldim2,
        end_dim=rep.hom, ext1_self=rep.ext1, ext2_self=rep.ext2,
        z_self_dim=rep.z_dim, expected=gl - rep.euler, orbit_dim=gl - rep.hom, verdict=verdict)


# -- constrained cocycles (rank-drop strata) ------------------------------


class StratumReport(Value):
    """Constrained cocycle space of N relative to a probe module.

    `hom_to_probe` is hom(probe, N); `constrained_dim` is the dimension of
    the locus, a linear subspace of Z(N, N) (see the module docstring).
    """

    __slots__ = _fields = ("hom_to_probe", "constrained_dim")


def constrained_cocycles(probe: Representation, n: Representation,
                         bq: BoundQuiver) -> StratumReport:
    """Cocycles Z in Z(N, N) with dim Hom(probe, W^Z) = 2 hom(probe, N).

    Left exactness of Hom(probe, -) makes 2*hom(probe, N) the maximum, so
    the condition picks out the minimal-rank locus of the intertwiner
    system of W^Z.  That locus is a linear subspace containing all
    coboundaries (module docstring), so the span of the members found is
    inside it.  The span is an integer echelon basis seeded with the
    coboundaries, which are independent (an rref image basis); then, in
    one sweep, each basis vector of Z(N, N) and each pairwise sum joins it
    when its reduced row is nonzero, that is when it lies outside the span,
    and it is a member.  The dimension is the size of the basis.  Membership
    does not depend on the span, so testing the span first only skips
    probes, and as the span only grows a second sweep could add nothing.
    The dimension is a lower bound in general, exact on the tested family
    grids; see ``test_constrained_cocycles_under_reports_off_the_grid``.
    """
    h = hom_dim(probe, n)
    z_basis = cocycle_space(n, n, bq).elements
    b_basis = coboundary_space(n, n)

    def is_member(z: CocycleElement) -> bool:
        w = middle_term(z, n, n)
        return hom_dim(probe, w) == 2 * h

    # A pairwise sum of basis vectors can be a member even when neither
    # summand is (the locus need not align with the basis); off the family
    # grids a sum can add a dimension the basis vectors miss, see
    # ``test_constrained_cocycles_counts_a_member_only_a_pairwise_sum_finds``.
    sums = (zi + zj for i, zi in enumerate(z_basis) for zj in z_basis[i + 1:])
    span = EchelonBasis()
    for b in b_basis.elements:
        span.add(span.reduce(b.flatten()))
    for candidate in chain(z_basis, sums):
        row = span.reduce(candidate.flatten())
        if row is not None and is_member(candidate):
            span.add(row)

    return StratumReport(hom_to_probe=h, constrained_dim=len(span))


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
