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

from ._value import Value, count, rational
from .errors import (DecompositionMismatch, InequalityViolated, InvalidLabel,
                     QuivrepError, WrongDimension)
from .linalg import capped, hstack, rank, vstack
from .quiver import (BoundQuiver, DimVector, Quiver, Relation, _sequence, euler_form,
                     minimal_convex, quiver_facts, tits_form, yes_no)
from .rep import Representation, direct_sum, make_rep, simple_rep
from .homology import ext_report
from .geometry import constrained_cocycles, direct_sum_stratum_dim


class FamilyParams(Value):
    """Arm lengths (p, q, r) for the b-to-a side and (s, t) for c-to-b."""

    __slots__ = _fields = ("p", "q", "r", "s", "t")

    def __init__(self, p: int, q: int, r: int, s: int, t: int):
        arms = [count(value, f"arm length {name}", 1)
                for name, value in zip(self._fields, (p, q, r, s, t))]
        n = sum(arms)
        capped((n + 5) * (n + 1),  # the H' (+) H'' intertwiner system
               "arm lengths summing to {} give a {} x {} intertwiner system", n, n + 5, n + 1)
        super().__init__(*arms)

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r},{self.s},{self.t})"


def _arm(names: tuple, far_end: str, near_end: str):
    """Vertex and arrow specs of one arm.

    The arm's arrows `names`, ``group1 ... group{count}``, compose (in
    written order, rightmost first) to a path from `near_end` to
    `far_end`; the interior vertex ``v{group}{i}`` is the source of
    ``group{i}``.
    """
    interiors = [f"v{name}" for name in names[:-1]]
    chain = [far_end] + interiors + [near_end]
    return interiors, list(zip(names, chain[1:], chain))


class Family:
    """The bound quiver of one parameter tuple, plus its canonical data."""

    def __init__(self, params: FamilyParams):
        self.params = params

    @cached_property
    def arms(self) -> tuple:
        """Arrow names of the alpha, beta, gamma, xi and delta arms."""
        p = self.params
        return tuple(tuple(f"{group}{i}" for i in range(1, count + 1))
                     for group, count in (("alpha", p.p), ("beta", p.q), ("gamma", p.r),
                                          ("xi", p.s), ("delta", p.t)))

    @cached_property
    def bound_quiver(self) -> BoundQuiver:
        alpha, beta, gamma, xi, delta = self.arms
        alpha_v, alpha_a = _arm(alpha, "a", "b")
        beta_v, beta_a = _arm(beta, "a", "b")
        gamma_v, gamma_a = _arm(gamma, "a", "b")
        xi_v, xi_a = _arm(xi, "b", "c")
        delta_v, delta_a = _arm(delta, "b", "c")
        vertices = (["a"] + alpha_v + beta_v + gamma_v + ["b"]
                    + xi_v + delta_v + ["c"])
        arrows = alpha_a + beta_a + gamma_a + xi_a + delta_a
        quiver = Quiver.build(vertices, arrows)
        relations = (
            Relation.of([(1, quiver.path(alpha)), (-1, quiver.path(beta)),
                         (1, quiver.path(gamma))]),
            Relation.of([(1, quiver.path([alpha[-1], xi[0]]))]),
            Relation.of([(1, quiver.path([beta[-1], *xi])),
                         (-1, quiver.path([beta[-1], *delta]))]),
            Relation.of([(1, quiver.path([gamma[-1], delta[0]]))]),
        )
        return BoundQuiver.of(quiver, relations)

    @property
    def quiver(self) -> Quiver:
        return self.bound_quiver.quiver

    @cached_property
    def ab_arrow_names(self) -> tuple:
        return sum(self.arms[:3], ())

    @cached_property
    def bc_arrow_names(self) -> tuple:
        return sum(self.arms[3:], ())

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

    @cached_property
    def forms(self) -> dict:
        """The form values of FamilyReport._FORMS, keyed by its field names."""
        bq, h1, h2, total = self.bound_quiver, self.h1, self.h2, self.total_dim
        tits_total, glsum_total = tits_form(total, bq), total.glsum()
        return {"h1": h1, "h2": h2, "total": total,
                "tits_h1": tits_form(h1, bq), "tits_h2": tits_form(h2, bq),
                "euler_h1_h2": euler_form(h1, h2, bq), "euler_h2_h1": euler_form(h2, h1, bq),
                "tits_total": tits_total, "glsum_total": glsum_total,
                "expected_total": glsum_total - tits_total}

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


def _normalize_label(label, arrow_names, side: str):
    if label in arrow_names:
        return label
    try:
        return rational(label)
    except QuivrepError:
        raise InvalidLabel(
            f"label {label!r} is neither a rational nor an arrow of the {side}s") from None


# -- grid verification -----------------------------------------------------


class GridRow(Value):
    __slots__ = _fields = ("u", "v", "hom_probe", "z_h1h1", "z_h2h2", "z_cross", "b_cross",
                           "direct", "hom_12", "hom_21")

    @property
    def summand_total(self) -> int:
        return self.z_h1h1 + self.z_h2h2 + self.z_cross + self.b_cross

    @property
    def pair(self) -> str:
        return f"(u={self.u}, v={self.v})"

    def failed_checks(self, bound: int) -> list:
        """The row's failed checks in report order, as (message, exceeds_bound) pairs."""
        checks = (
            (self.direct != self.summand_total,
             f"direct dim {self.direct} != summand total {self.summand_total}", False),
            (self.direct > bound, f"direct dim {self.direct} exceeds bound {bound}", True),
        )
        return [(message, exceeds) for bad, message, exceeds in checks if bad]

    def status(self, bound: int) -> str:
        return "FAIL" if self.failed_checks(bound) else "ok"


class FamilyReport(Value):
    """Everything the grid verification measured, ready to print.

    `quiver_facts` holds the (name, value) pairs of :func:`quiver_facts`,
    `rows` GridRows in grid order, `failures` messages in report order.
    """

    __slots__ = _fields = (
        "params", "quiver_facts", "h1", "h2", "total", "tits_h1", "tits_h2",
        "euler_h1_h2", "euler_h2_h1", "tits_total", "glsum_total", "expected_total",
        "rows", "min_hom_12", "min_hom_21", "stratum_dim", "failures")

    # (kv key, text label, field) of each form, in report order.
    _FORMS = (
        ("dim.h1", "h1", "h1"), ("dim.h2", "h2", "h2"), ("dim.total", "total", "total"),
        ("form.tits_h1", "tits(h1)", "tits_h1"), ("form.tits_h2", "tits(h2)", "tits_h2"),
        ("form.euler_h1_h2", "euler(h1,h2)", "euler_h1_h2"),
        ("form.euler_h2_h1", "euler(h2,h1)", "euler_h2_h1"),
        ("form.tits_total", "tits(total)", "tits_total"),
        ("form.glsum_total", "glsum(total)", "glsum_total"),
        ("form.expected_total", "expected_dim(total)", "expected_total"),
    )
    # (kv key, text heading, width) of each cell of _row_cells.  The bound has
    # no kv key: the kv report gives it once, as form.expected_total.
    _COLUMNS = (
        ("u", "u", 8), ("v", "v", 8), ("hom_probe", "hom(S,M)", 9),
        ("z_h1h1", "z(h1,h1)", 9), ("z_h2h2", "z(h2,h2)", 9), ("z_cross", "z(h1,h2)", 9),
        ("b_cross", "b(h2,h1)", 9), ("total", "total", 6), ("direct", "direct", 7),
        (None, "bound", 6), ("status", "status", 7),
    )

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def _row_cells(self, row: GridRow) -> tuple:
        bound = self.expected_total
        return (row.u, row.v, row.hom_probe, row.z_h1h1, row.z_h2h2, row.z_cross, row.b_cross,
                row.summand_total, row.direct, bound, row.status(bound))

    def to_text(self) -> str:
        table = [[heading for _, heading, _ in self._COLUMNS]]
        table += [self._row_cells(row) for row in self.rows]
        lines = [
            "family parameters: "
            + " ".join(f"{name}={getattr(self.params, name)}" for name in FamilyParams._fields),
            "quiver: " + " ".join(f"{name}={value}" for name, value in self.quiver_facts),
            "conventions: arm relation signs (+1,-1,+1) and (+1,-1); "
            "scalar labels sit on alpha1 (partner scalar+1 on beta1) and on xi1; "
            "beta-arm arrow labels put -1 on alpha1",
            *(f"{label} = {getattr(self, field)}" for _, label, field in self._FORMS),
            "probe: simple module at b",
            "",
            *(" ".join(f"{cell:>{width}}" for cell, (_, _, width)
                       in zip(cells, self._COLUMNS, strict=True)) for cells in table),
            "",
            f"min hom(h1 rep, h2 rep) over grid = {self.min_hom_12}",
            f"min hom(h2 rep, h1 rep) over grid = {self.min_hom_21}",
            f"direct-sum stratum dim = {self.stratum_dim} "
            f"(matches expected_dim: {yes_no(self.stratum_dim == self.expected_total)})",
            f"rows: {len(self.rows)}  failures: {len(self.failures)}",
            *([f"FAILED: {f}" for f in self.failures] or ["ALL CHECKS PASSED"]),
        ]
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        pairs = [(f"params.{name}", getattr(self.params, name)) for name in FamilyParams._fields]
        pairs += [(f"quiver.{name}", value) for name, value in self.quiver_facts]
        pairs += [(key, getattr(self, field)) for key, _, field in self._FORMS]
        pairs += [("grid.rows", len(self.rows)), ("grid.min_hom_12", self.min_hom_12),
                  ("grid.min_hom_21", self.min_hom_21), ("grid.stratum_dim", self.stratum_dim)]
        for i, row in enumerate(self.rows):
            pairs += [(f"row.{i}.{key}", cell) for cell, (key, _, _)
                      in zip(self._row_cells(row), self._COLUMNS, strict=True) if key]
        pairs.append(("result", "pass" if self.all_ok else "fail"))
        return "".join(f"{k} = {v}\n" for k, v in pairs)


def verify_family(params: FamilyParams, u_scalars=(2, 3, 7), v_scalars=(2, 3, 5),
                  seed: int = 0) -> FamilyReport:
    """Run the full grid verification; raises on any failed check.

    Labels on the grid: the given scalars plus every arm arrow on each
    side; one label twice on a side (equal rationals, or an arm arrow among
    the scalars) raises InvalidLabel.  Per pair the constrained cocycle
    space of ``M = rep_h1(u) (+) rep_h2(v)`` relative to the simple at b is
    computed directly and checked twice: against the four-summand total
    ``Z(h1,h1) + Z(h2,h2) + Z(h1-rep, h2-rep) + B(h2-rep, h1-rep)``, and
    against the naive bound ``expected_dim(total)``, which must dominate.
    Every Hom, Z and B number of a row comes from :func:`ext_report`.
    Nothing else can fail on labels that rep_h1/rep_h2 accept.  M satisfies
    the relations: relation 1 balances on H', each path of relations 2-4
    meets a vertex where H' (or H'') is zero, and relations act blockwise.
    hom(S_b, M) = 0 + 1: a label zeroes at most one arrow out of b on H',
    and every arrow out of b ends where H'' is zero.  The printed stratum
    dim equals expected_dim(total): they differ by 2 - 1 - hom(H', H'') -
    hom(H'', H') = 2 - 1 - 1 - 0.  `seed` is accepted and has no effect:
    the grid makes no random draw.  Raises DecompositionMismatch or
    InequalityViolated (report attached) after the whole grid is measured.
    """
    fam = Family(params)
    bq = fam.bound_quiver
    probe = fam.simple_at_b()
    u_labels = [_normalize_label(x, fam.ab_arrow_names, "a-side arm")
                for x in _sequence(u_scalars, "u scalars")] + list(fam.ab_arrow_names)
    v_labels = [_normalize_label(x, fam.bc_arrow_names, "c-side arm")
                for x in _sequence(v_scalars, "v scalars")] + list(fam.bc_arrow_names)
    for axis, labels in (("u", u_labels), ("v", v_labels)):
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise InvalidLabel(f"{axis} label {label} appears twice on the grid")
    bound = fam.forms["expected_total"]
    rows = []
    reps_v, z_v = {}, {}
    for u in u_labels:
        rep_u = fam.rep_h1(u)
        z_u = ext_report(rep_u, rep_u, bq).z_dim
        for iv, v in enumerate(v_labels):
            if iv not in reps_v:  # each label's rep and own Z, built once
                reps_v[iv] = fam.rep_h2(v)
                z_v[iv] = ext_report(reps_v[iv], reps_v[iv], bq).z_dim
            rep_v = reps_v[iv]
            stratum = constrained_cocycles(probe, direct_sum(rep_u, rep_v), bq)
            uv = ext_report(rep_u, rep_v, bq)
            vu = ext_report(rep_v, rep_u, bq)
            rows.append(GridRow(
                u=str(u), v=str(v), hom_probe=stratum.hom_to_probe,
                z_h1h1=z_u, z_h2h2=z_v[iv], z_cross=uv.z_dim, b_cross=vu.b_dim,
                direct=stratum.constrained_dim, hom_12=uv.hom, hom_21=vu.hom,
            ))
    failed = [(row.pair, message, exceeds_bound) for row in rows
              for message, exceeds_bound in row.failed_checks(bound)]
    min_hom_12 = min((r.hom_12 for r in rows), default=0)
    min_hom_21 = min((r.hom_21 for r in rows), default=0)
    stratum_dim = direct_sum_stratum_dim(
        fam.h1.glsum() - fam.forms["tits_h1"], fam.h2.glsum() - fam.forms["tits_h2"],
        fam.h1, fam.h2, min_hom_12, min_hom_21)
    report = FamilyReport(
        params=params, quiver_facts=quiver_facts(bq), **fam.forms, rows=tuple(rows),
        min_hom_12=min_hom_12, min_hom_21=min_hom_21, stratum_dim=stratum_dim,
        failures=tuple(f"{pair}: {message}" for pair, message, _ in failed))
    over_bound = [pair for pair, _, exceeds_bound in failed if exceeds_bound]
    mismatched = [pair for pair, _, exceeds_bound in failed if not exceeds_bound]
    if over_bound:
        raise InequalityViolated(f"dimension bound violated at {', '.join(over_bound)}", report)
    if mismatched:
        raise DecompositionMismatch(f"decomposition failed at {', '.join(mismatched)}", report)
    return report
