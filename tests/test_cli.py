import pytest

from quivrep import parse_quiver, parse_rep
from quivrep.cli import main

A2_TEXT = """\
vertex v1
vertex v2
arrow al v2 v1
"""

BOUND_A3_TEXT = """\
vertex x1
vertex x2
vertex x3
arrow alpha x2 x1
arrow beta x3 x2
rel 1*alpha.beta
"""

P_TEXT = "dim v1 1\ndim v2 1\nmat al 1 1 : 1\n"
S1_TEXT = "dim v1 1\n"
S2_TEXT = "dim v2 1\n"
S1S2_TEXT = "dim v1 1\ndim v2 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_quiver_and_rep(tmp_path, capsys):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    r = write(tmp_path, "p.rep", P_TEXT)
    assert main(["validate", "--quiver", q, "--rep", r]) == 0
    out = capsys.readouterr().out
    assert "quiver OK" in out
    assert "vertices=2 arrows=1 relations=0" in out
    assert "variety_point=yes" in out


def test_validate_parse_error_exits_2(tmp_path, capsys):
    q = write(tmp_path, "bad.quiver", "vertex v\nvertex v\n")
    assert main(["validate", "--quiver", q]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 2" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--quiver", str(tmp_path / "nope.quiver")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invariants_self_mode(tmp_path, capsys):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    r = write(tmp_path, "p.rep", P_TEXT)
    assert main(["invariants", "--quiver", q, "--rep", r]) == 0
    out = capsys.readouterr().out
    assert "end(M) = 1" in out
    assert "orbit_dim(M) = 1" in out
    assert "z(M,M) = 1" in out
    assert "b(M,M) = 1" in out
    assert "ext1(M,M) = 0" in out
    assert "tits(dim M) = 1" in out
    assert "expected_dim(dim M) = 1" in out
    assert "ext2(M,M) = unknown (pass --assume-gldim2)" in out


def test_invariants_pair_mode_with_gldim_flag(tmp_path, capsys):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    m = write(tmp_path, "s2.rep", S2_TEXT)
    n = write(tmp_path, "s1.rep", S1_TEXT)
    code = main(["invariants", "--quiver", q, "--rep", m, "--rep2", n,
                 "--assume-gldim2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hom(M,N) = 0" in out
    assert "ext1(M,N) = 1" in out
    assert "euler(dimM,dimN) = -1" in out
    assert "ext2(M,N) = 0" in out


def test_euler_subcommand(tmp_path, capsys):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    code = main(["euler", "--quiver", q, "--dim", "v1=1,v2=1",
                 "--dim2", "v2=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tits(d1) = 1" in out
    assert "glsum(d1) = 2" in out
    assert "expected_dim(d1) = 1" in out
    assert "euler(d1,d2) = 1" in out
    assert "euler(d2,d1) = 0" in out


def test_euler_classification_flag(tmp_path, capsys):
    kron = "vertex a\nvertex b\narrow f b a\narrow g b a\n"
    q = write(tmp_path, "kron.quiver", kron)
    code = main(["euler", "--quiver", q, "--dim", "a=1,b=1",
                 "--assume-tame-quasitilted"])
    assert code == 0
    assert "classification(d1) = OneParameterFamilies" in capsys.readouterr().out


def test_certify_regular_point_exits_0(tmp_path, capsys):
    q = write(tmp_path, "a3.quiver", BOUND_A3_TEXT)
    r = write(tmp_path, "m.rep",
              "dim x1 1\ndim x2 1\ndim x3 1\nmat alpha 1 1 : 1\n")
    code = main(["certify", "--quiver", q, "--rep", r, "--assume-gldim2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict = CertifiedRegular" in out
    assert "z_self_dim = 1" in out
    assert "expected_dim = 1" in out
    assert "end_dim = 2" in out


def test_certify_origin_exits_1(tmp_path, capsys):
    q = write(tmp_path, "a3.quiver", BOUND_A3_TEXT)
    r = write(tmp_path, "zero.rep", "dim x1 1\ndim x2 1\ndim x3 1\n")
    code = main(["certify", "--quiver", q, "--rep", r, "--assume-gldim2"])
    assert code == 1
    assert "verdict = BoundOnly" in capsys.readouterr().out


def test_family_emits_parseable_files(tmp_path, capsys):
    qp = tmp_path / "fam.quiver"
    h1p = tmp_path / "h1.rep"
    h2p = tmp_path / "h2.rep"
    sp = tmp_path / "s.rep"
    code = main(["family", "--p", "2", "--q", "2", "--r", "2",
                 "--s", "1", "--t", "1",
                 "--emit-quiver", str(qp),
                 "--emit-h1", "alpha2", str(h1p),
                 "--emit-h2", "3", str(h2p),
                 "--emit-simple", str(sp)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tits(h1) = 0" in out
    assert "tits(h2) = 0" in out
    assert "euler(h1,h2) = 1" in out
    assert "tits(total) = 1" in out
    bq = parse_quiver(qp.read_text())
    for path in (h1p, h2p, sp):
        m = parse_rep(path.read_text(), bq.quiver)
        assert m.is_variety_point(bq)


@pytest.mark.parametrize("flag, label", [
    pytest.param("--emit-h1", "1", id="excluded-scalar"),
    pytest.param("--emit-h1", "1/0", id="h1-zero-denominator"),
    pytest.param("--emit-h2", "1/0", id="h2-zero-denominator"),
])
def test_family_rejects_bad_label(tmp_path, capsys, flag, label):
    code = main(["family", "--p", "2", "--q", "2", "--r", "2",
                 "--s", "1", "--t", "1",
                 flag, label, str(tmp_path / "h.rep")])
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_paper_verify_pass(tmp_path, capsys):
    out_path = tmp_path / "report.kv"
    code = main(["paper-verify", "--p", "2", "--q", "2", "--r", "2",
                 "--s", "1", "--t", "1", "--seed", "3",
                 "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("ALL CHECKS PASSED\n")
    kv = out_path.read_text()
    assert "result = pass" in kv
    assert "rows = 45" in kv


def test_paper_verify_boundary_failure(tmp_path, capsys):
    out_path = tmp_path / "report.kv"
    code = main(["paper-verify", "--p", "2", "--q", "2", "--r", "2",
                 "--s", "2", "--t", "2", "--seed", "1",
                 "--out", str(out_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAILED: (u=alpha2, v=xi2): direct dim 11 exceeds bound 10" \
        in captured.out
    assert "FAILED: (u=gamma2, v=delta2): direct dim 11 exceeds bound 10" \
        in captured.out
    assert "dimension bound violated at (u=alpha2, v=xi2), " \
           "(u=gamma2, v=delta2)" in captured.err
    assert "result = fail" in out_path.read_text()


@pytest.mark.parametrize("u_scalars, v_scalars, want", [
    pytest.param("2", "3", 0, id="valid"),
    pytest.param("1/0", "3", 2, id="u-zero-denominator"),
    pytest.param("2", "2,x", 2, id="v-not-rational"),
])
def test_paper_verify_custom_scalars(capsys, u_scalars, v_scalars, want):
    code = main(["paper-verify", "--p", "1", "--q", "1", "--r", "1",
                 "--s", "1", "--t", "1",
                 "--u-scalars", u_scalars, "--v-scalars", v_scalars])
    assert code == want
    captured = capsys.readouterr()
    if want == 0:
        # u side: 1 scalar + 3 arm arrows, v side: 1 scalar + 2 arm arrows
        assert "rows: 12" in captured.out
    else:
        assert "error: " in captured.err
        assert captured.out == ""


def test_iso_exit_codes(tmp_path, capsys):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    p = write(tmp_path, "p.rep", P_TEXT)
    s = write(tmp_path, "s.rep", S1S2_TEXT)
    assert main(["iso", "--quiver", q, "--rep", p, "--rep2", p]) == 0
    assert capsys.readouterr().out.strip() == "Isomorphic"
    assert main(["iso", "--quiver", q, "--rep", p, "--rep2", s]) == 1
    assert capsys.readouterr().out.strip() == "NotIsomorphic"


def test_bisect_subcommand(tmp_path, capsys):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    t = write(tmp_path, "p.rep", P_TEXT)
    m = write(tmp_path, "s2.rep", S2_TEXT)
    assert main(["bisect", "--quiver", q, "--rep", t, "--rep2", m]) == 0
    assert capsys.readouterr().out.strip() == "InT"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--quiver", "q.quiver"])  # missing --rep
    assert exc.value.code == 2


def test_family_unwritable_emit_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.quiver"
    code = main(["family", "--p", "1", "--q", "1", "--r", "1", "--s", "1", "--t", "1",
                 "--emit-quiver", str(target)])
    assert code == 2
    assert f"error: cannot write {target}" in capsys.readouterr().err


def test_paper_verify_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.kv"
    code = main(["paper-verify", "--p", "1", "--q", "1", "--r", "1", "--s", "1", "--t", "1",
                 "--out", str(target)])
    assert code == 2
    assert f"error: cannot write {target}" in capsys.readouterr().err
