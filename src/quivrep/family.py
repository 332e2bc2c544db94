"""A five-parameter family of bound quivers with three-plus-two arm geometry.

``Family((p, q, r, s, t))`` builds a quiver with three special vertices
a, b, c; three arms of lengths p, q, r carry paths from b to a (arrow
groups ``alpha``, ``beta``, ``gamma``), and two arms of lengths s, t carry
paths from c to b (groups ``xi``, ``delta``).  Four relations bind them:

* the three b-to-a arm paths sum to zero with signs (+1, -1, +1),
* the composite of the last alpha arrow with the first xi arrow vanishes,
* the beta arm followed by either c-to-b arm gives the same map
  (coefficients +1, -1),
* the composite of the last gamma arrow with the first delta arrow
  vanishes.

The canonical representations are one-parameter families supported on the
two halves: ``rep_h1(label)`` lives on the convex hull of {a, b} and
``rep_h2(label)`` on the hull of {b, c}.  Scalar labels place the scalar
on ``alpha1`` (with scalar+1 on ``beta1``) respectively on ``xi1``; arrow
labels zero out a single arm arrow (the beta-arm case additionally puts -1
on ``alpha1`` so the arm relation still balances).

:func:`verify_family` checks, over a grid of labels, that the constrained
cocycle space of the direct sum relative to the simple at b decomposes
into its four predicted summands and respects the naive dimension bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._value import Value, _set
from .errors import (DecompositionMismatch, InequalityViolated, InvalidLabel,
                     QuivrepError, WrongDimension)
from .linalg import hstack, random_invertible, rank, seeded_rng, vstack
from .quiver import (BoundQuiver, DimVector, Quiver, Relation, euler_form,
                     expected_dim, is_triangular, minimal_convex, tits_form)
from .rep import Representation, conjugate, direct_sum, make_rep, simple_rep
from .homology import cocycle_space, coboundary_space, hom_dim
from .geometry import constrained_cocycles, direct_sum_stratum_dim


class FamilyParams(Value):
    """Arm lengths (p, q, r) for the b-to-a side and (s, t) for c-to-b."""

    __slots__ = _fields = ("p", "q", "r", "s", "t")

    def __init__(self, p: int, q: int, r: int, s: int, t: int):
        for name, value in zip(self._fields, (p, q, r, s, t)):
            if value < 1:
                raise QuivrepError(f"arm length {name} must be at least 1")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "s", s)
        _set(self, "t", t)

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r},{self.s},{self.t})"


def _arm(group: str, count: int, far_end: str, near_end: str):
    """Vertex and arrow specs of one arm.

    The arm's arrows ``group1 ... group{count}`` compose (in written
    order, rightmost first) to a path from `near_end` to `far_end`;
    interior vertices are named ``v{group}{i}``.
    """
    interiors = [f"v{group}{i}" for i in range(1, count)]
    chain = [far_end] + interiors + [near_end]
    arrows = []
    for i in range(1, count + 1):
        arrows.append((f"{group}{i}", chain[i], chain[i - 1]))
    return interiors, arrows


class Family:
    """The bound quiver of one parameter tuple, plus its canonical data."""

    def __init__(self, params: FamilyParams):
        self.params = params

    @cached_property
    def bound_quiver(self) -> BoundQuiver:
        p = self.params
        alpha_v, alpha_a = _arm("alpha", p.p, "a", "b")
        beta_v, beta_a = _arm("beta", p.q, "a", "b")
        gamma_v, gamma_a = _arm("gamma", p.r, "a", "b")
        xi_v, xi_a = _arm("xi", p.s, "b", "c")
        delta_v, delta_a = _arm("delta", p.t, "b", "c")
        vertices = (["a"] + alpha_v + beta_v + gamma_v + ["b"]
                    + xi_v + delta_v + ["c"])
        arrows = alpha_a + beta_a + gamma_a + xi_a + delta_a
        quiver = Quiver.build(vertices, arrows)
        alpha = [f"alpha{i}" for i in range(1, p.p + 1)]
        beta = [f"beta{i}" for i in range(1, p.q + 1)]
        gamma = [f"gamma{i}" for i in range(1, p.r + 1)]
        xi = [f"xi{i}" for i in range(1, p.s + 1)]
        delta = [f"delta{i}" for i in range(1, p.t + 1)]
        relations = (
            Relation.of([(1, quiver.path(alpha)), (-1, quiver.path(beta)),
                         (1, quiver.path(gamma))]),
            Relation.of([(1, quiver.path([alpha[-1], xi[0]]))]),
            Relation.of([(1, quiver.path([beta[-1]] + xi)),
                         (-1, quiver.path([beta[-1]] + delta))]),
            Relation.of([(1, quiver.path([gamma[-1], delta[0]]))]),
        )
        return BoundQuiver.of(quiver, relations)

    @property
    def quiver(self) -> Quiver:
        return self.bound_quiver.quiver

    def _group(self, name: str, count: int):
        return [f"{name}{i}" for i in range(1, count + 1)]

    @cached_property
    def ab_arrow_names(self) -> tuple:
        p = self.params
        return tuple(self._group("alpha", p.p) + self._group("beta", p.q)
                     + self._group("gamma", p.r))

    @cached_property
    def bc_arrow_names(self) -> tuple:
        p = self.params
        return tuple(self._group("xi", p.s) + self._group("delta", p.t))

    @cached_property
    def h1(self) -> DimVector:
        hull = minimal_convex(self.quiver, ["a", "b"])
        return DimVector.of(self.quiver, {v: 1 for v in hull})

    @cached_property
    def h2(self) -> DimVector:
        hull = minimal_convex(self.quiver, ["b", "c"])
        return DimVector.of(self.quiver, {v: 1 for v in hull})

    @property
    def total_dim(self) -> DimVector:
        return self.h1 + self.h2

    # -- canonical representations ------------------------------------

    def rep_h1(self, label) -> Representation:
        """One-parameter family member supported between a and b.

        Scalar labels must avoid {0, 1}; arrow labels must name an arrow
        of the a-side arms.
        """
        label = _normalize_label(label, self.ab_arrow_names, "a-side arm")
        mats = {name: [[1]] for name in self.ab_arrow_names}
        if isinstance(label, Fraction):
            if label in (0, 1):
                raise InvalidLabel("scalar label must avoid 0 and 1")
            mats["alpha1"] = [[label]]
            mats["beta1"] = [[label + 1]]
        else:
            mats[label] = [[0]]
            if label.startswith("beta"):
                mats["alpha1"] = [[-1]]
        return make_rep(self.quiver, self.h1, mats)

    def rep_h2(self, label) -> Representation:
        """One-parameter family member supported between b and c.

        Scalar labels must be nonzero; arrow labels must name an arrow of
        the c-side arms.
        """
        label = _normalize_label(label, self.bc_arrow_names, "c-side arm")
        mats = {name: [[1]] for name in self.bc_arrow_names}
        if isinstance(label, Fraction):
            if label == 0:
                raise InvalidLabel("scalar label must be nonzero")
            mats["xi1"] = [[label]]
        else:
            mats[label] = [[0]]
        return make_rep(self.quiver, self.h2, mats)

    def simple_at_b(self) -> Representation:
        return simple_rep(self.quiver, "b")

    # -- membership in the closure of the decomposable locus -----------

    def decomposable_locus_member(self, m: Representation) -> bool:
        """Whether a point of the total dimension satisfies the three
        rank conditions cutting out direct sums of the two halves.

        The conditions: the stacked maps out of b have rank at most one,
        the stacked maps into b have rank at most one, and every
        out-map composed with every in-map vanishes.
        """
        if m.dim != self.total_dim:
            raise WrongDimension(
                f"membership test needs dimension vector {self.total_dim}, got {m.dim}")
        out_arrows = [a for a in self.quiver.arrows if a.source == "b"]
        in_arrows = [a for a in self.quiver.arrows if a.target == "b"]
        out_stack = vstack([m.matrix(a.name) for a in out_arrows])
        in_stack = hstack([m.matrix(a.name) for a in in_arrows])
        if rank(out_stack) > 1 or rank(in_stack) > 1:
            return False
        return (out_stack @ in_stack).is_zero()


def build_family(params: FamilyParams) -> BoundQuiver:
    return Family(params).bound_quiver


def canonical_dimvecs(params: FamilyParams):
    fam = Family(params)
    return fam.h1, fam.h2, fam.total_dim


def _normalize_label(label, arrow_names, side: str):
    if isinstance(label, str):
        if label in arrow_names:
            return label
        try:
            return Fraction(label)
        except (ValueError, ZeroDivisionError):
            raise InvalidLabel(
                f"label {label!r} is neither a rational nor an {side} arrow") from None
    if isinstance(label, (int, Fraction)):
        return Fraction(label)
    raise InvalidLabel(f"unsupported label {label!r}")


# -- grid verification -----------------------------------------------------


class GridRow(Value):
    __slots__ = _fields = ("u", "v", "hom_probe", "z_h1h1", "z_h2h2", "z_cross", "b_cross",
                           "direct", "linear", "audit_ok", "hom_12", "hom_21")

    def __init__(self, u: str, v: str, hom_probe: int, z_h1h1: int, z_h2h2: int,
                 z_cross: int, b_cross: int, direct: int, linear: bool, audit_ok: bool,
                 hom_12: int, hom_21: int):
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "hom_probe", hom_probe)
        _set(self, "z_h1h1", z_h1h1)
        _set(self, "z_h2h2", z_h2h2)
        _set(self, "z_cross", z_cross)
        _set(self, "b_cross", b_cross)
        _set(self, "direct", direct)
        _set(self, "linear", linear)
        _set(self, "audit_ok", audit_ok)
        _set(self, "hom_12", hom_12)
        _set(self, "hom_21", hom_21)

    @property
    def summand_total(self) -> int:
        return self.z_h1h1 + self.z_h2h2 + self.z_cross + self.b_cross

    def status(self, bound: int) -> str:
        ok = (self.hom_probe == 1 and self.linear and self.audit_ok
              and self.direct == self.summand_total and self.direct <= bound)
        return "ok" if ok else "FAIL"


class FamilyReport(Value):
    """Everything the grid verification measured, ready to print.

    Mutable and unhashable: :func:`verify_family` fills in the rows, the
    minima and the failures after construction.
    """

    __slots__ = _fields = (
        "params", "vertices", "arrows", "relations", "admissible", "triangular",
        "h1", "h2", "total", "tits_h1", "tits_h2", "euler_h1_h2", "euler_h2_h1",
        "tits_total", "glsum_total", "expected_total", "rows", "min_hom_12",
        "min_hom_21", "stratum_dim", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, params: FamilyParams, vertices: int, arrows: int, relations: int,
                 admissible: bool, triangular: bool, h1: DimVector, h2: DimVector,
                 total: DimVector, tits_h1: int, tits_h2: int, euler_h1_h2: int,
                 euler_h2_h1: int, tits_total: int, glsum_total: int, expected_total: int,
                 rows: list | None = None, min_hom_12: int = 0, min_hom_21: int = 0,
                 stratum_dim: int = 0, failures: list | None = None):
        self.params = params
        self.vertices = vertices
        self.arrows = arrows
        self.relations = relations
        self.admissible = admissible
        self.triangular = triangular
        self.h1 = h1
        self.h2 = h2
        self.total = total
        self.tits_h1 = tits_h1
        self.tits_h2 = tits_h2
        self.euler_h1_h2 = euler_h1_h2
        self.euler_h2_h1 = euler_h2_h1
        self.tits_total = tits_total
        self.glsum_total = glsum_total
        self.expected_total = expected_total
        self.rows = [] if rows is None else rows
        self.min_hom_12 = min_hom_12
        self.min_hom_21 = min_hom_21
        self.stratum_dim = stratum_dim
        self.failures = [] if failures is None else failures

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"family parameters: p={self.params.p} q={self.params.q} "
            f"r={self.params.r} s={self.params.s} t={self.params.t}",
            f"quiver: vertices={self.vertices} arrows={self.arrows} "
            f"relations={self.relations} admissible={_yn(self.admissible)} "
            f"triangular={_yn(self.triangular)}",
            "conventions: arm relation signs (+1,-1,+1) and (+1,-1); "
            "scalar labels sit on alpha1 (partner scalar+1 on beta1) and on xi1; "
            "beta-arm arrow labels put -1 on alpha1",
            f"h1 = {self.h1}",
            f"h2 = {self.h2}",
            f"total = {self.total}",
            f"tits(h1) = {self.tits_h1}",
            f"tits(h2) = {self.tits_h2}",
            f"euler(h1,h2) = {self.euler_h1_h2}",
            f"euler(h2,h1) = {self.euler_h2_h1}",
            f"tits(total) = {self.tits_total}",
            f"glsum(total) = {self.glsum_total}",
            f"expected_dim(total) = {self.expected_total}",
            "probe: simple module at b",
            "",
        ]
        header = (f"{'u':>8} {'v':>8} {'hom(S,M)':>9} {'z(h1,h1)':>9} "
                  f"{'z(h2,h2)':>9} {'z(h1,h2)':>9} {'b(h2,h1)':>9} "
                  f"{'total':>6} {'direct':>7} {'bound':>6} {'status':>7}")
        lines.append(header)
        for row in self.rows:
            lines.append(
                f"{row.u:>8} {row.v:>8} {row.hom_probe:>9} {row.z_h1h1:>9} "
                f"{row.z_h2h2:>9} {row.z_cross:>9} {row.b_cross:>9} "
                f"{row.summand_total:>6} {row.direct:>7} {self.expected_total:>6} "
                f"{row.status(self.expected_total):>7}")
        lines.append("")
        lines.append(f"min hom(h1 rep, h2 rep) over grid = {self.min_hom_12}")
        lines.append(f"min hom(h2 rep, h1 rep) over grid = {self.min_hom_21}")
        lines.append(
            f"direct-sum stratum dim = {self.stratum_dim} "
            f"(matches expected_dim: {_yn(self.stratum_dim == self.expected_total)})")
        lines.append(f"rows: {len(self.rows)}  failures: {len(self.failures)}")
        if self.failures:
            for f in self.failures:
                lines.append(f"FAILED: {f}")
        else:
            lines.append("ALL CHECKS PASSED")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        pairs = [
            ("params.p", self.params.p), ("params.q", self.params.q),
            ("params.r", self.params.r), ("params.s", self.params.s),
            ("params.t", self.params.t),
            ("quiver.vertices", self.vertices), ("quiver.arrows", self.arrows),
            ("quiver.relations", self.relations),
            ("quiver.admissible", _yn(self.admissible)),
            ("quiver.triangular", _yn(self.triangular)),
            ("dim.h1", self.h1), ("dim.h2", self.h2), ("dim.total", self.total),
            ("form.tits_h1", self.tits_h1), ("form.tits_h2", self.tits_h2),
            ("form.euler_h1_h2", self.euler_h1_h2),
            ("form.euler_h2_h1", self.euler_h2_h1),
            ("form.tits_total", self.tits_total),
            ("form.glsum_total", self.glsum_total),
            ("form.expected_total", self.expected_total),
            ("grid.rows", len(self.rows)),
            ("grid.min_hom_12", self.min_hom_12),
            ("grid.min_hom_21", self.min_hom_21),
            ("grid.stratum_dim", self.stratum_dim),
        ]
        for i, row in enumerate(self.rows):
            prefix = f"row.{i}"
            pairs.extend([
                (f"{prefix}.u", row.u), (f"{prefix}.v", row.v),
                (f"{prefix}.hom_probe", row.hom_probe),
                (f"{prefix}.z_h1h1", row.z_h1h1),
                (f"{prefix}.z_h2h2", row.z_h2h2),
                (f"{prefix}.z_cross", row.z_cross),
                (f"{prefix}.b_cross", row.b_cross),
                (f"{prefix}.total", row.summand_total),
                (f"{prefix}.direct", row.direct),
                (f"{prefix}.status", row.status(self.expected_total)),
            ])
        pairs.append(("result", "pass" if self.all_ok else "fail"))
        return "".join(f"{k} = {v}\n" for k, v in pairs)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def verify_family(params: FamilyParams, u_scalars=(2, 3, 7), v_scalars=(2, 3, 5),
                  seed: int = 0) -> FamilyReport:
    """Run the full grid verification; raises on any failed check.

    Labels on the grid: the given scalars plus every arm arrow on each
    side.  Per pair the constrained cocycle space of
    ``M = rep_h1(u) (+) rep_h2(v)`` relative to the simple at b is
    computed directly and compared against the four-summand prediction
    ``Z(h1,h1) + Z(h2,h2) + Z(h1-rep, h2-rep) + B(h2-rep, h1-rep)``; the
    naive bound ``expected_dim(total)`` must dominate.  A seeded random
    base change per cell re-checks the membership characterization.
    Raises DecompositionMismatch or InequalityViolated (report attached)
    after the whole grid has been measured.
    """
    fam = Family(params)
    bq = fam.bound_quiver
    quiver = fam.quiver
    report = FamilyReport(
        params=params, vertices=len(quiver.vertices), arrows=len(quiver.arrows),
        relations=len(bq.relations), admissible=bq.is_admissible,
        triangular=is_triangular(quiver),
        h1=fam.h1, h2=fam.h2, total=fam.total_dim,
        tits_h1=tits_form(fam.h1, bq), tits_h2=tits_form(fam.h2, bq),
        euler_h1_h2=euler_form(fam.h1, fam.h2, bq),
        euler_h2_h1=euler_form(fam.h2, fam.h1, bq),
        tits_total=tits_form(fam.total_dim, bq),
        glsum_total=fam.total_dim.glsum(),
        expected_total=expected_dim(fam.total_dim, bq),
    )
    probe = fam.simple_at_b()
    u_labels = [_normalize_label(x, fam.ab_arrow_names, "a-side arm")
                for x in u_scalars] + list(fam.ab_arrow_names)
    v_labels = [_normalize_label(x, fam.bc_arrow_names, "c-side arm")
                for x in v_scalars] + list(fam.bc_arrow_names)
    bound = report.expected_total
    decomposition_bad = []
    inequality_bad = []
    for iu, u in enumerate(u_labels):
        rep_u = fam.rep_h1(u)
        for iv, v in enumerate(v_labels):
            rep_v = fam.rep_h2(v)
            m = direct_sum(rep_u, rep_v)
            pair = f"(u={u}, v={v})"
            if not m.is_variety_point(bq):
                report.failures.append(f"{pair}: direct sum is not a variety point")
                decomposition_bad.append(pair)
                continue
            stratum = constrained_cocycles(probe, m, bq)
            row = GridRow(
                u=str(u), v=str(v),
                hom_probe=stratum.hom_to_probe,
                z_h1h1=cocycle_space(rep_u, rep_u, bq).dim,
                z_h2h2=cocycle_space(rep_v, rep_v, bq).dim,
                z_cross=cocycle_space(rep_u, rep_v, bq).dim,
                b_cross=coboundary_space(rep_v, rep_u).dim,
                direct=stratum.constrained_dim,
                linear=stratum.linear,
                audit_ok=_conjugation_audit(fam, m, probe, stratum.hom_to_probe,
                                            seed, iu, iv),
                hom_12=hom_dim(rep_u, rep_v),
                hom_21=hom_dim(rep_v, rep_u),
            )
            report.rows.append(row)
            if row.hom_probe != 1:
                report.failures.append(f"{pair}: hom(probe, M) = {row.hom_probe}, expected 1")
                decomposition_bad.append(pair)
            if not row.linear:
                report.failures.append(f"{pair}: constrained locus not certified linear")
                decomposition_bad.append(pair)
            if not row.audit_ok:
                report.failures.append(f"{pair}: base-change audit failed")
                decomposition_bad.append(pair)
            if row.direct != row.summand_total:
                report.failures.append(
                    f"{pair}: direct dim {row.direct} != summand total {row.summand_total}")
                decomposition_bad.append(pair)
            if row.direct > bound:
                report.failures.append(
                    f"{pair}: direct dim {row.direct} exceeds bound {bound}")
                inequality_bad.append(pair)
    report.min_hom_12 = min((r.hom_12 for r in report.rows), default=0)
    report.min_hom_21 = min((r.hom_21 for r in report.rows), default=0)
    report.stratum_dim = direct_sum_stratum_dim(
        expected_dim(fam.h1, bq), expected_dim(fam.h2, bq), fam.h1, fam.h2,
        report.min_hom_12, report.min_hom_21)
    if report.stratum_dim != bound:
        report.failures.append(
            f"direct-sum stratum dim {report.stratum_dim} != expected_dim {bound}")
        decomposition_bad.append("stratum cross-check")
    if inequality_bad:
        raise InequalityViolated(
            f"dimension bound violated at {', '.join(inequality_bad)}", report)
    if decomposition_bad:
        raise DecompositionMismatch(
            f"decomposition failed at {', '.join(decomposition_bad)}", report)
    return report


def _conjugation_audit(fam: Family, m: Representation, probe: Representation,
                       hom_probe: int, seed: int, iu: int, iv: int) -> bool:
    """Base-change invariance: membership and probe hom survive conjugation."""
    rng = seeded_rng("family-audit", seed, iu, iv)
    g = {v: random_invertible(m.dim[v], rng, bound=2) for v in m.quiver.vertices}
    moved = conjugate(m, g)
    return (fam.decomposable_locus_member(moved)
            and hom_dim(probe, moved) == hom_probe)
