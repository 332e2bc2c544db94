import hashlib
import json
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from quivrep import (
    Family,
    FamilyParams,
    conjugate,
    direct_sum,
    euler_form,
    coboundary_space,
    cocycle_space,
    hom_dim,
    make_rep,
    random_invertible,
    tits_form,
    verify_family,
)
from quivrep.errors import (
    DecompositionMismatch,
    InequalityViolated,
    InvalidLabel,
    WrongDimension,
)

from util import _conjugation_audit, predicted_row

PARAMS_GRID = [
    FamilyParams(2, 2, 2, 2, 2),
    FamilyParams(1, 1, 1, 1, 1),
    FamilyParams(3, 2, 4, 1, 2),
    FamilyParams(2, 3, 2, 2, 2),
]


def test_params_validation():
    with pytest.raises(Exception):
        FamilyParams(0, 1, 1, 1, 1)
    assert str(FamilyParams(2, 3, 4, 5, 6)) == "(2,3,4,5,6)"


def test_structure_counts():
    fam = Family(FamilyParams(2, 2, 2, 2, 2))
    bq = fam.bound_quiver
    assert len(bq.quiver.vertices) == 8
    assert len(bq.quiver.arrows) == 10
    assert len(bq.relations) == 4
    assert bq.is_admissible
    fam2 = Family(FamilyParams(3, 1, 2, 2, 1))
    bq2 = fam2.bound_quiver
    # vertices: a, b, c plus (p-1)+(q-1)+(r-1)+(s-1)+(t-1) interior ones
    assert len(bq2.quiver.vertices) == 3 + 2 + 0 + 1 + 1 + 0
    assert len(bq2.quiver.arrows) == 3 + 1 + 2 + 2 + 1
    # q = 1 makes the beta-relation terms length 1: not admissible, still valid
    assert not bq2.is_admissible


def test_relation_shapes():
    fam = Family(FamilyParams(2, 2, 2, 2, 2))
    rels = fam.bound_quiver.relations
    by_len = sorted(len(rel.terms) for rel in rels)
    assert by_len == [1, 1, 2, 3]


def test_dim_vectors_and_forms_across_params():
    for params in PARAMS_GRID:
        fam = Family(params)
        bq = fam.bound_quiver
        h1, h2 = fam.h1, fam.h2
        assert set(h1.entries) <= {0, 1}
        assert h1["a"] == h1["b"] == 1 and h1["c"] == 0
        assert h2["b"] == h2["c"] == 1 and h2["a"] == 0
        assert tits_form(h1, bq) == 0
        assert tits_form(h2, bq) == 0
        assert euler_form(h1, h2, bq) == 1
        assert euler_form(h2, h1, bq) == 0
        assert tits_form(h1 + h2, bq) == 1


def test_labelled_reps_are_variety_points():
    # Direct sums too: relations act blockwise, which is why the grid does
    # not check its points.
    for params in PARAMS_GRID:
        fam = Family(params)
        bq = fam.bound_quiver
        labels1 = [F(2), F(3), F(-1), F(1, 2)] + list(fam.ab_arrow_names)
        labels2 = [F(2), F(5), F(-1), F(1, 3)] + list(fam.bc_arrow_names)
        for u in labels1:
            assert fam.rep_h1(u).is_variety_point(bq), (params, u)
        for v in labels2:
            assert fam.rep_h2(v).is_variety_point(bq), (params, v)
        for u in labels1:
            for v in labels2:
                m = direct_sum(fam.rep_h1(u), fam.rep_h2(v))
                assert m.is_variety_point(bq), (params, u, v)


def test_label_exclusions():
    fam = Family(FamilyParams(2, 2, 2, 2, 2))
    with pytest.raises(InvalidLabel):
        fam.rep_h1(F(0))
    with pytest.raises(InvalidLabel):
        fam.rep_h1(F(1))
    with pytest.raises(InvalidLabel):
        fam.rep_h2(F(0))
    fam.rep_h2(F(1))  # 1 is fine on the second family
    with pytest.raises(InvalidLabel):
        fam.rep_h1("xi1")  # wrong side
    with pytest.raises(InvalidLabel):
        fam.rep_h2("alpha1")
    # A bool is no scalar, and a float is a binary fraction.
    for label in (True, 0.5):
        with pytest.raises(InvalidLabel, match="neither a rational nor an arrow"):
            fam.rep_h2(label)
    # A grid side may not list one label twice: equal rationals, or an arm arrow.
    with pytest.raises(InvalidLabel, match="^u label 2 appears twice on the grid$"):
        verify_family(fam.params, u_scalars=(2, "4/2"))
    with pytest.raises(InvalidLabel, match="^v label xi1 appears twice on the grid$"):
        verify_family(fam.params, v_scalars=("xi1",))


def test_h1_entry_placement():
    fam = Family(FamilyParams(2, 2, 2, 2, 2))
    m = fam.rep_h1(F(5))
    assert m.matrix("alpha1")[0, 0] == 5
    assert m.matrix("beta1")[0, 0] == 6
    assert m.matrix("gamma1")[0, 0] == 1
    beta_case = fam.rep_h1("beta2")
    assert beta_case.matrix("beta2").is_zero()
    assert beta_case.matrix("alpha1")[0, 0] == -1  # sign making rho1 vanish
    n = fam.rep_h2(F(7))
    assert n.matrix("xi1")[0, 0] == 7
    assert n.matrix("delta1")[0, 0] == 1


def test_simple_at_b_hom_values():
    # hom(S_b, H' (+) H'') = 0 + 1, hom(H', H'') = 1 and hom(H'', H') = 0 on
    # every label pair, which is why the grid checks neither hom(S_b, M) nor
    # its direct-sum stratum dimension against a(d).
    scalars = (F(2), F(3), F(-1), F(1, 2))
    for params in PARAMS_GRID:
        fam = Family(params)
        s = fam.simple_at_b()
        reps1 = [fam.rep_h1(u) for u in scalars + fam.ab_arrow_names]
        reps2 = [fam.rep_h2(v) for v in scalars + fam.bc_arrow_names]
        assert all(hom_dim(s, h1) == 0 for h1 in reps1), params
        assert all(hom_dim(s, h2) == 1 for h2 in reps2), params
        for h1 in reps1:
            for h2 in reps2:
                assert hom_dim(s, direct_sum(h1, h2)) == 1, params
                assert (hom_dim(h1, h2), hom_dim(h2, h1)) == (1, 0), params


def test_decomposable_locus_membership():
    fam = Family(FamilyParams(2, 2, 2, 2, 2))
    bq = fam.bound_quiver
    m = direct_sum(fam.rep_h1(F(2)), fam.rep_h2(F(3)))
    assert fam.decomposable_locus_member(m)
    rng = Random(9)
    g = {v: random_invertible(m.dim[v], rng) for v in bq.quiver.vertices}
    assert fam.decomposable_locus_member(conjugate(m, g))
    # a point with a rank-2 family of maps out of b fails
    bad = make_rep(bq.quiver, m.dim, {
        "alpha2": [[1, 0]],   # valpha1 <- b
        "beta2": [[0, 1]],    # vbeta1 <- b, jointly rank 2
    })
    assert not fam.decomposable_locus_member(bad)
    with pytest.raises(WrongDimension):
        fam.decomposable_locus_member(fam.rep_h1(F(2)))


def test_verify_family_success_path():
    report = verify_family(FamilyParams(2, 2, 2, 1, 1), seed=3)
    assert report.all_ok
    assert len(report.rows) == 9 * 5
    assert report.failures == ()
    text = report.to_text()
    assert text.endswith("ALL CHECKS PASSED\n")
    assert "hom(S,M)" in text
    kv = report.to_kv()
    assert "params.p = 2" in kv and "result = pass" in kv


def test_verify_family_flags_boundary_pairs():
    """The two orbits where both interacting arm ends degenerate carry one
    extra tangent cocycle each, so the four-summand count and the dimension
    bound both fail there; the verifier must say so and name the pairs."""
    with pytest.raises(InequalityViolated) as exc:
        verify_family(FamilyParams(2, 2, 2, 2, 2), seed=1)
    report = exc.value.report
    assert report is not None and not report.all_ok
    assert report.failures == (
        "(u=alpha2, v=xi2): direct dim 11 != summand total 10",
        "(u=alpha2, v=xi2): direct dim 11 exceeds bound 10",
        "(u=gamma2, v=delta2): direct dim 11 != summand total 10",
        "(u=gamma2, v=delta2): direct dim 11 exceeds bound 10",
    )
    assert str(exc.value) == (
        "dimension bound violated at (u=alpha2, v=xi2), (u=gamma2, v=delta2)")
    for row in report.rows:
        assert row.hom_probe == 1
        if (row.u, row.v) in (("alpha2", "xi2"), ("gamma2", "delta2")):
            assert row.direct == 11 and row.summand_total == 10
        else:
            assert row.direct == row.summand_total <= 10
    # scalar-scalar rows sit exactly on the bound
    fam = Family(FamilyParams(2, 2, 2, 2, 2))
    arrows = set(fam.ab_arrow_names) | set(fam.bc_arrow_names)
    scalar_rows = [row for row in report.rows
                   if row.u not in arrows and row.v not in arrows]
    assert len(scalar_rows) == 9
    assert all(row.direct == 10 for row in scalar_rows)
    assert report.stratum_dim == report.expected_total == 10


@pytest.mark.parametrize("params, kv, text", [
    ((1, 1, 1, 1, 1), "a5b4264fc8339221", "eb6ccbe4a0204446"),
    ((2, 2, 2, 2, 2), "0311e1856ec3190f", "c0ff400db4d78b6e"),
    ((3, 2, 2, 3, 2), "457464938bb5490a", "76f48b2e29a5ad46"),
], ids=str)
def test_benchmark_grid_report_matches_its_pins(params, kv, text):
    # The reference grids' reports, byte for byte, on the passing branch and
    # the failing one; the benchmark pins (1,1,1,1,1) and (2,2,2,2,2), so
    # their digests must also match perfbench/refs.json, and a missing pin fails.
    if params == (1, 1, 1, 1, 1):
        report, stderr = verify_family(FamilyParams(*params)), ""
    else:
        with pytest.raises(InequalityViolated) as exc:
            verify_family(FamilyParams(*params))
        report, stderr = exc.value.report, f"error: {exc.value}\n"

    def digest(body):
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    assert (digest(report.to_kv()), digest(report.to_text())) == (kv, text)
    # What `quivrep paper-verify` writes to stderr, pinned as well.
    assert digest(stderr) == {(1, 1, 1, 1, 1): "e3b0c44298fc1c14",
                              (2, 2, 2, 2, 2): "2e04e19954c5f320",
                              (3, 2, 2, 3, 2): "f414087a75898977"}[params]
    if params in ((1, 1, 1, 1, 1), (2, 2, 2, 2, 2)):
        refs = json.loads((Path(__file__).parents[1] / "perfbench" / "refs.json").read_text())
        pins = refs["grid"][",".join(map(str, params))]
        assert (pins["kv"], pins["text"]) == (kv, text)


def test_verify_family_raises_decomposition_mismatch(monkeypatch):
    import quivrep.family
    from quivrep.geometry import StratumReport

    real = quivrep.family.constrained_cocycles
    calls = []

    def under_report_first_pair(probe, n, bq):
        stratum = real(probe, n, bq)
        calls.append(n)
        if len(calls) > 1:
            return stratum
        return StratumReport(stratum.hom_to_probe, stratum.constrained_dim - 1)

    monkeypatch.setattr(quivrep.family, "constrained_cocycles", under_report_first_pair)
    with pytest.raises(DecompositionMismatch) as exc:
        verify_family(FamilyParams(1, 1, 1, 1, 1))
    assert str(exc.value) == "decomposition failed at (u=2, v=2)"
    assert exc.value.report is not None and not exc.value.report.all_ok
    assert exc.value.report.failures == ("(u=2, v=2): direct dim 4 != summand total 5",)


def test_verify_family_deterministic():
    a = None
    for _ in range(2):
        try:
            verify_family(FamilyParams(2, 2, 2, 2, 2), seed=4)
        except InequalityViolated as exc:
            text = exc.report.to_text()
        if a is None:
            a = text
    assert a == text


def test_verify_family_report_does_not_depend_on_the_seed():
    # The grid makes no random draw: `seed` is accepted and has no effect.
    first, second = (verify_family(FamilyParams(1, 1, 1, 1, 1), seed=s) for s in (0, 5))
    assert first.to_kv() == second.to_kv()
    assert first.to_text() == second.to_text()


def test_verify_family_failing_pairs_scale_with_arm_length():
    with pytest.raises(InequalityViolated) as exc:
        verify_family(FamilyParams(3, 2, 2, 3, 2), seed=0)
    bad = sorted({f.split(":")[0] for f in exc.value.report.failures})
    assert bad == ["(u=alpha3, v=xi2)", "(u=alpha3, v=xi3)", "(u=gamma2, v=delta2)"]


@pytest.mark.parametrize("params", [FamilyParams(1, 1, 1, 1, 1), FamilyParams(2, 1, 1, 1, 1)],
                         ids=str)
def test_grid_rows_match_basis_formulas(params):
    """Every printed row dimension, taken from ranks, equals the length of
    the basis it counts (the basis path is the reference here)."""
    fam = Family(params)
    bq = fam.bound_quiver
    try:
        report = verify_family(params)
    except (InequalityViolated, DecompositionMismatch) as exc:
        report = exc.report
    assert len(report.rows) == (3 + len(fam.ab_arrow_names)) * (3 + len(fam.bc_arrow_names))
    for row in report.rows:
        h1, h2 = fam.rep_h1(row.u), fam.rep_h2(row.v)
        assert row.z_h1h1 == cocycle_space(h1, h1, bq).dim
        assert row.z_h2h2 == cocycle_space(h2, h2, bq).dim
        assert row.z_cross == cocycle_space(h1, h2, bq).dim
        assert row.b_cross == coboundary_space(h2, h1).dim
        assert row.hom_12 == hom_dim(h1, h2)
        assert row.hom_21 == hom_dim(h2, h1)
    assert report.stratum_dim == report.expected_total


def _grid_report(params):
    try:
        return verify_family(params)
    except (InequalityViolated, DecompositionMismatch) as exc:
        return exc.report


_MIRROR = {"alpha": "gamma", "gamma": "alpha", "xi": "delta", "delta": "xi"}
_ROW_INTEGERS = ("hom_probe", "z_h1h1", "z_h2h2", "z_cross", "b_cross", "direct",
                 "hom_12", "hom_21")


def _mirror(label):
    group = label.rstrip("0123456789")
    return _MIRROR[group] + label[len(group):]


def _is_arm_row(row):
    return (row.u.rstrip("0123456789") in ("alpha", "gamma")
            and row.v.rstrip("0123456789") in ("xi", "delta"))


@pytest.mark.parametrize("params", [(1, 1, 1, 1, 1), (2, 1, 1, 2, 1), (2, 2, 2, 2, 2)],
                         ids=str)
def test_grid_is_symmetric_under_swapping_the_outer_arms(params):
    # Family(p,q,r,s,t) and Family(r,q,p,t,s) are one bound quiver under
    # alpha <-> gamma, xi <-> delta: relations 2 and 4 swap, relation 3
    # changes sign.  Rows labelled by those arms must map onto each other.
    p, q, r, s, t = params
    report = _grid_report(FamilyParams(p, q, r, s, t))
    mirrored = report if (r, q, p, t, s) == params else _grid_report(FamilyParams(r, q, p, t, s))
    assert mirrored.expected_total == report.expected_total
    bound = report.expected_total
    mirror_rows = {(row.u, row.v): row for row in mirrored.rows}
    arm_rows = [row for row in report.rows if _is_arm_row(row)]
    assert len(arm_rows) == (p + r) * (s + t)
    for row in arm_rows:
        other = mirror_rows[_mirror(row.u), _mirror(row.v)]
        assert ([getattr(row, name) for name in _ROW_INTEGERS]
                == [getattr(other, name) for name in _ROW_INTEGERS]), row
    failing, mirror_failing = ({(row.u, row.v) for row in rep.rows
                                if _is_arm_row(row) and row.failed_checks(bound)}
                               for rep in (report, mirrored))
    assert {(_mirror(u), _mirror(v)) for u, v in failing} == mirror_failing
    if params == (2, 2, 2, 2, 2):
        assert failing == {("alpha2", "xi2"), ("gamma2", "delta2")}


@pytest.mark.parametrize("params", [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 2, 1, 2, 1),
                                    (1, 1, 2, 1, 2), (2, 2, 2, 2, 2)], ids=str)
def test_grid_matches_its_closed_form(params):
    # predicted_row reads only the arm lengths and the labels, so every
    # computed integer of the grid is checked against an independent value.
    report = _grid_report(FamilyParams(*params))
    assert report.expected_total == report.stratum_dim == sum(params)
    for row in report.rows:
        assert {name: getattr(row, name) for name in _ROW_INTEGERS} == predicted_row(
            report.params, row.u, row.v), row
    failing = sorted({f.split(":")[0] for f in report.failures})
    assert failing == sorted(f"(u={row.u}, v={row.v})" for row in report.rows
                             if row.direct > sum(params))


_AUDIT_SCALARS = (2, 3, 7, -1, F(1, 2))


def _audit_pairs(params):
    """(iu, u, iv, v) over the grid of `params`, the labels -1 and 1/2 included;
    on (2,2,2,2,2) only the (alpha_i, xi_j) and (gamma_i, delta_j) pairs."""
    fam = Family(params)
    u_labels = list(_AUDIT_SCALARS) + list(fam.ab_arrow_names)
    v_labels = list(_AUDIT_SCALARS) + list(fam.bc_arrow_names)
    pairs = [(iu, u, iv, v) for iu, u in enumerate(u_labels) for iv, v in enumerate(v_labels)]
    if params == FamilyParams(2, 2, 2, 2, 2):
        arms = {("alpha", "xi"), ("gamma", "delta")}
        pairs = [pair for pair in pairs
                 if (str(pair[1]).rstrip("0123456789"), str(pair[3]).rstrip("0123456789"))
                 in arms]
        assert len(pairs) == 8
    return pairs


@pytest.mark.parametrize("params", [FamilyParams(1, 1, 1, 1, 1), FamilyParams(2, 1, 1, 2, 1),
                                    FamilyParams(2, 2, 2, 2, 2)], ids=str)
def test_grid_points_survive_a_seeded_base_change(params):
    # Membership in the decomposable locus and hom(S_b, M) are invariant
    # under M -> gMg^-1, which is why the grid no longer audits them.
    fam = Family(params)
    probe = fam.simple_at_b()
    for iu, u, iv, v in _audit_pairs(params):
        m = direct_sum(fam.rep_h1(u), fam.rep_h2(v))
        assert fam.decomposable_locus_member(m), (u, v)
        hom_probe = hom_dim(probe, m)
        for seed in range(3):
            assert _conjugation_audit(fam, m, probe, hom_probe, seed, iu, iv), (u, v, seed)
