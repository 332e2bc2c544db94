import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from quivrep import (BoundQuiver, expected_dim, parse_quiver, parse_rep, serialize_quiver,
                     serialize_rep, tits_form)
from quivrep.cli import build_parser, main
from util import (hitting_set_point, random_bound_quiver, random_dims, with_rational_coefficients,
                  with_rational_entries)

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


# vertex a <- x - b <- y - c: the path x.y runs from c to a.
A3_TEXT = "vertex a\nvertex b\nvertex c\narrow x b a\narrow y c b\n"
A2_AB_TEXT = "vertex a\nvertex b\narrow x b a\n"

# (quiver file, rep file or None, reason): every reachable ParseError of a
# quiver or rep file that no other test here raises.
MALFORMED_FILES = [
    ("vertex\n", None, "line 1: vertex line needs exactly one name"),
    ("vertex a\narrow x a\n", None, "line 2: arrow line needs name, source, target"),
    ("vertex a\narrow x a a\narrow x a a\n", None, "line 3: duplicate arrow 'x'"),
    ("vertex a\narrow x b a\n", None, "line 2: arrow source 'b' not a declared vertex"),
    ("vertex a\narrow x a b\n", None, "line 2: arrow target 'b' not a declared vertex"),
    ("vertex a\nedge a a\n", None, "line 2: unknown directive 'edge'"),
    (A3_TEXT + "rel\n", None, "line 6: empty relation"),
    (A3_TEXT + "rel x.y + + x.y\n", None, "line 6: two consecutive signs in relation"),
    (A3_TEXT + "rel x.y x.y\n", None, "line 6: missing '+' or '-' before 'x.y'"),
    (A3_TEXT + "rel q*x.y\n", None, "line 6: bad rational 'q'"),
    (A3_TEXT + "rel 1/0*x.y\n", None, "line 6: bad rational '1/0'"),
    (A3_TEXT + "rel 1*x..y\n", None, "line 6: malformed path 'x..y'"),
    (A3_TEXT + "rel 1*x.z\n", None, "line 6: unknown arrow 'z' in relation"),
    (A3_TEXT + "rel 1*y.x\n", None,
     "line 6: non-composable path: y (source c) cannot follow x (target a)"),
    (A3_TEXT + "rel 0*x.y\n", None, "line 6: zero coefficient in relation"),
    (A3_TEXT + "rel x.y +\n", None, "line 6: relation ends with a dangling sign"),
    (A2_AB_TEXT, "dim a\n", "line 1: dim line needs vertex and value"),
    (A2_AB_TEXT, "dim z 1\n", "line 1: unknown vertex 'z'"),
    (A2_AB_TEXT, "dim a 1\ndim a 1\n", "line 2: duplicate dim for vertex 'a'"),
    (A2_AB_TEXT, "dim a one\n", "line 1: bad integer 'one'"),
    (A2_AB_TEXT, "dim a -1\n", "line 1: dimensions must be nonnegative"),
    (A2_AB_TEXT, "size a 1\n", "line 1: unknown directive 'size'"),
    (A2_AB_TEXT, "mat x 0 0 0\n", "line 1: mat line needs: name rows cols : entries"),
    (A2_AB_TEXT, "mat z 0 0 :\n", "line 1: unknown arrow 'z'"),
    (A2_AB_TEXT, "dim a 1\ndim b 1\nmat x 1 1 : 1\nmat x 1 1 : 1\n",
     "line 4: duplicate matrix for arrow 'x'"),
    (A2_AB_TEXT, "mat x one 0 :\n", "line 1: matrix shape must be two integers"),
    (A2_AB_TEXT, "dim a 1\nmat x 1 1 : 1\n",
     "line 2: arrow 'x': declared shape (1, 1), dimensions require (1, 0)"),
    (A2_AB_TEXT, "dim a 1\ndim b 1\nmat x 1 1 : q\n", "line 3: bad rational 'q'"),
    (A2_AB_TEXT, "dim a 1\ndim b 1\nmat x 1 1 : 1 2\n",
     "line 3: arrow 'x': expected 1 entries, got 2"),
]

# (--dim value, reason) for `quivrep euler` on A2_AB_TEXT.
MALFORMED_DIMS = [
    ("a", "line 1: expected vertex=value, got 'a'"),
    ("z=1", "line 1: unknown vertex 'z'"),
    ("a=1,a=2", "line 1: duplicate vertex 'a'"),
    ("a=one", "line 1: bad integer 'one'"),
    ("a=-1", "line 1: dimension vector entry must be an integer >= 0, got -1"),
]


@pytest.mark.parametrize("quiver_text, rep_text, reason", MALFORMED_FILES)
def test_validate_malformed_file_exits_2(tmp_path, capsys, quiver_text, rep_text, reason):
    # The quiver's summary line is printed before the rep file is read, but
    # a call that exits 2 prints nothing to stdout.
    argv = ["validate", "--quiver", write(tmp_path, "q.quiver", quiver_text)]
    if rep_text is not None:
        argv += ["--rep", write(tmp_path, "m.rep", rep_text)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {reason}\n"


@pytest.mark.parametrize("dim, reason", MALFORMED_DIMS)
def test_euler_malformed_dim_exits_2(tmp_path, capsys, dim, reason):
    q = write(tmp_path, "q.quiver", A2_AB_TEXT)
    assert main(["euler", "--quiver", q, "--dim", dim]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {reason}\n"


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


def test_invariants_self_mode_forms_on_bound_quivers_with_relations(tmp_path, capsys):
    """Self mode prints q(dim M) and dim GL - q(dim M) from the pair's Euler
    value; on bound quivers with fractional relation coefficients they must
    still be `tits_form` and `expected_dim`, relation term included."""
    rng = Random(3201)
    checked = with_relation_term = 0
    while checked < 12:
        bq = random_bound_quiver(rng, max_relations=3)
        if not bq.relations:
            continue
        bq = with_rational_coefficients(bq, rng)
        m = with_rational_entries(hitting_set_point(rng, bq, random_dims(rng, bq.quiver, 2)), rng)
        q = write(tmp_path, f"q{checked}.quiver", serialize_quiver(bq))
        r = write(tmp_path, f"m{checked}.rep", serialize_rep(m))
        assert main(["invariants", "--quiver", q, "--rep", r]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"tits(dim M) = {tits_form(m.dim, bq)}" in out
        assert f"expected_dim(dim M) = {expected_dim(m.dim, bq)}" in out
        with_relation_term += tits_form(m.dim, bq) != tits_form(m.dim, BoundQuiver.of(bq.quiver, ()))
        checked += 1
    assert with_relation_term >= 3


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


def test_invariants_on_a_huge_point_with_no_arrows_returns_at_once(tmp_path):
    # No arrow means an empty Hom system with 10^16 columns; elimination
    # must stop when no rows are left instead of scanning every column.
    q = write(tmp_path, "one.quiver", "vertex a\n")
    r = write(tmp_path, "big.rep", "dim a 100000000\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "quivrep.cli", "invariants",
                           "--quiver", q, "--rep", r],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "end(M) = 10000000000000000\n" in proc.stdout
    assert "orbit_dim(M) = 0\n" in proc.stdout


def test_iso_on_a_huge_point_with_no_arrows_refuses_its_hom_basis_with_exit_2(tmp_path):
    # Both Hom systems are empty, but a Hom basis would be 10^16 vectors of
    # length 10^16: the kernel basis cap refuses it before allocating it.
    q = write(tmp_path, "one.quiver", "vertex a\n")
    r = write(tmp_path, "big.rep", "dim a 100000000\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "quivrep.cli", "iso",
                           "--quiver", q, "--rep", r, "--rep2", r],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "more than the cap of 10000000" in proc.stderr


def test_invariants_refuses_an_oversized_system_with_exit_2(tmp_path):
    # One arrow between two 1000-dimensional vertices: 10^6 x 2*10^6 cells.
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    r = write(tmp_path, "big.rep", "dim v1 1000\ndim v2 1000\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "quivrep.cli", "invariants",
                           "--quiver", q, "--rep", r],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "more than the cap" in proc.stderr


def _cli_child(*argv):
    """A CLI call in a child process, killed after 30 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "quivrep.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))


# Fraction('1e100000000') builds a hundred-million-digit integer.
@pytest.mark.parametrize("quiver_text, rep_text, argv", [
    pytest.param(A2_TEXT, "dim v1 1\ndim v2 1\nmat al 1 1 : 1e100000000\n",
                 ["validate"], id="mat-entry"),
    pytest.param(A3_TEXT + "rel 1e100000000*x.y\n", None, ["validate"], id="rel-coefficient"),
    pytest.param(None, None,
                 ["paper-verify", "--p", "1", "--q", "1", "--r", "1", "--s", "1", "--t", "1",
                  "--u-scalars", "1e100000000"], id="family-label"),
])
def test_exponent_notation_is_refused_at_once_with_exit_2(tmp_path, quiver_text, rep_text,
                                                          argv):
    if quiver_text is not None:
        argv = argv + ["--quiver", write(tmp_path, "q.quiver", quiver_text)]
    if rep_text is not None:
        argv = argv + ["--rep", write(tmp_path, "m.rep", rep_text)]
    proc = _cli_child(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "1e100000000" in proc.stderr


def test_validate_refuses_oversized_zero_matrices_with_exit_2(tmp_path):
    # No mat line: the one arrow would get a 10^5 x 10^5 zero matrix.
    q = write(tmp_path, "ab.quiver", "vertex a\nvertex b\narrow x a b\n")
    r = write(tmp_path, "big.rep", "dim a 100000\ndim b 100000\n")
    proc = _cli_child("validate", "--quiver", q, "--rep", r)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "10000000000 entries, more than the cap of 10000000" in proc.stderr
    # The cap is not a syntax error of any line.
    assert "line 0" not in proc.stderr
    assert proc.stderr.startswith("error: arrow matrices")


@pytest.mark.parametrize("bad", ["quiver", "rep"])
def test_validate_refuses_a_file_that_is_not_utf8_with_exit_2(tmp_path, bad):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    r = write(tmp_path, "p.rep", P_TEXT)
    path = q if bad == "quiver" else r
    Path(path).write_bytes(b"\xff" + Path(path).read_bytes())
    proc = _cli_child("validate", "--quiver", q, "--rep", r)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot read {path}: not UTF-8 text\n"


def test_family_on_a_long_arm_returns(tmp_path):
    # The H' (+) H'' intertwiner system has (n + 5) x (n + 1) cells for n
    # arrows: n = 3159 is the longest family under the cap of 10**7 cells.
    proc = _cli_child("family", "--p", "3155", "--q", "1", "--r", "1", "--s", "1", "--t", "1")
    assert proc.returncode == 0, proc.stderr
    assert "vertices=3157 arrows=3159" in proc.stdout
    for p, cells in (("3156", "3165 x 3161"), ("100000", "100009 x 100005")):
        proc = _cli_child("family", "--p", p, "--q", "1", "--r", "1", "--s", "1", "--t", "1")
        assert (proc.returncode, proc.stdout) == (2, ""), p
        assert f"give a {cells} intertwiner system, more than the cap" in proc.stderr
    # 100,002 vertices: checking each arrow's endpoints against the vertex
    # tuple made building the quiver quadratic.
    script = ("from quivrep import Quiver\n"
              "v = [f'v{i}' for i in range(100002)]\n"
              "q = Quiver.build(v, [(f'a{i}', v[i + 1], v[i]) for i in range(100001)])\n"
              "print(len(q.vertices), len(q.arrows))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "100002 100001\n", proc.stderr


def test_a_cli_child_does_not_import_graphlib(tmp_path):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    r = write(tmp_path, "p.rep", P_TEXT)
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys\nfrom quivrep.cli import main\n"
              f"main(['certify', '--quiver', {q!r}, '--rep', {r!r}, '--assume-gldim2'])\n"
              "print('graphlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "triangular = yes" in proc.stdout
    assert proc.stdout.endswith("False\n")


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


def test_euler_prints_its_forms_byte_for_byte_on_a_bound_quiver_with_relations(tmp_path, capsys):
    # Both relations run c -> a, so q(d1) = 14 - 17 + 2 * 6 = 9 counts them;
    # expected_dim(d1) is glsum(d1) - q(d1).
    q = write(tmp_path, "rel.quiver", "vertex a\nvertex b\nvertex c\narrow x b a\narrow y c b\n"
              "arrow z c a\narrow w c a\nrel 1/2*x.y - 3/4*z + 2*w\nrel 5/3*z - 1/6*x.y\n")
    assert main(["euler", "--quiver", q, "--dim", "a=2,b=1,c=3", "--dim2", "b=1,c=2"]) == 0
    assert capsys.readouterr().out == ("d1 = a=2,b=1,c=3\ntits(d1) = 9\nglsum(d1) = 14\n"
                                       "expected_dim(d1) = 5\nd2 = a=0,b=1,c=2\ntits(d2) = 3\n"
                                       "euler(d1,d2) = 4\neuler(d2,d1) = 3\n")


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
    # The valid --emit-quiver comes first, yet nothing is written or printed.
    code = main(["family", "--p", "2", "--q", "2", "--r", "2",
                 "--s", "1", "--t", "1",
                 "--emit-quiver", str(tmp_path / "ok.quiver"),
                 flag, label, str(tmp_path / "h.rep")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err
    assert list(tmp_path.iterdir()) == []


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
    pytest.param("alpha1", "2", 2, id="u-arm-arrow-among-scalars"),
    pytest.param("2,4/2", "3", 2, id="u-equal-rationals"),
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


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_iso_entry_bound_below_one_exits_2(tmp_path, capsys, bound):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    p = write(tmp_path, "p.rep", P_TEXT)
    assert main(["iso", "--quiver", q, "--rep", p, "--rep2", p,
                 "--entry-bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: entry bound must be an integer >= 1, got {bound}\n"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_iso_trials_below_one_exits_2(tmp_path, capsys, trials):
    q = write(tmp_path, "a2.quiver", A2_TEXT)
    p = write(tmp_path, "p.rep", P_TEXT)
    assert main(["iso", "--quiver", q, "--rep", p, "--rep2", p, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trial count must be an integer >= 1, got {trials}\n"


def test_cancelling_relation_exits_2(tmp_path, capsys):
    q = write(tmp_path, "bad.quiver", "vertex a\nvertex b\narrow x a b\nrel 2*x - 2*x\n")
    assert main(["validate", "--quiver", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 4:")


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


# Each subcommand with its required options, file names that are never read.
ARMS = ["--p", "1", "--q", "1", "--r", "1", "--s", "1", "--t", "1"]
REQUIRED = {
    "validate": ["--quiver", "q"],
    "invariants": ["--quiver", "q", "--rep", "r"],
    "euler": ["--quiver", "q", "--dim", "a=1"],
    "certify": ["--quiver", "q", "--rep", "r"],
    "family": ARMS,
    "paper-verify": ARMS,
    "iso": ["--quiver", "q", "--rep", "r", "--rep2", "r"],
    "bisect": ["--quiver", "q", "--rep", "r", "--rep2", "r"],
}


def _exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(REQUIRED))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, name):
    # The help, a missing required option (the subparser's error) and a
    # left-over argument (the top-level parser's error, whose usage line
    # names every subcommand), through main and through build_parser(name).
    cases = {"help": ([name, "--help"], 0, "usage: quivrep " + name),
             "missing": ([name], 2, "the following arguments are required"),
             "left-over": ([name, *REQUIRED[name], "extra"], 2, "unrecognized arguments: extra")}
    for argv, code, text in cases.values():
        full = _exit(capsys, build_parser().parse_args, argv)
        assert full[0] == code and text in full[1] + full[2], full
        assert _exit(capsys, build_parser(name).parse_args, argv) == full
        assert _exit(capsys, main, argv) == full


def test_help_names_every_subcommand(capsys):
    code, out, _ = _exit(capsys, main, ["--help"])
    assert code == 0
    assert "{" + ",".join(REQUIRED) + "}" in out
    for name in REQUIRED:
        assert f"\n    {name} " in out, name


def test_family_unwritable_emit_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.quiver"
    code = main(["family", "--p", "1", "--q", "1", "--r", "1", "--s", "1", "--t", "1",
                 "--emit-quiver", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {target}" in captured.err


@pytest.mark.parametrize("params", [("1", "1", "1", "1", "1"), ("2", "2", "2", "2", "2")],
                         ids=["passing-grid", "failing-grid"])
def test_paper_verify_unwritable_out_path_exits_2(tmp_path, capsys, params):
    target = tmp_path / "missing" / "report.kv"
    flags = [x for name, value in zip("pqrst", params) for x in (f"--{name}", value)]
    code = main(["paper-verify", *flags, "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
