"""Command-line interface.

Subcommands: validate, invariants, euler, certify, family, paper-verify,
iso.  Exit codes: 0 on success (or a verified positive answer), 1 when a
verification produced a negative/unproven answer, 2 on usage or parse
errors.  Reports go to stdout, diagnostics to stderr; all output is
deterministic for fixed inputs and seeds.  A handler's stdout is held
back until it returns, so a call that exits 2 prints nothing to stdout.

Each handler imports what it runs from ``family``, ``geometry`` and
``homology`` when it is called, so a process loads only the layers of its
subcommand.  ``validate`` and ``euler`` load none of them;
``invariants`` and ``iso`` load ``homology``; ``certify`` and ``bisect`` load ``geometry``,
which imports ``homology``; ``family`` and ``paper-verify`` load all three.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from .errors import (DecompositionMismatch, InequalityViolated, ParseError,
                     QuivrepError)
from .quiver import (classify_dimvector, euler_form, expected_dim, quiver_facts,
                     tits_form, yes_no)
from .rep import Representation
from .textio import (parse_dimvec, parse_quiver, parse_rep, serialize_quiver,
                     serialize_rep)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise QuivrepError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise QuivrepError(f"cannot read {path}: not UTF-8 text") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise QuivrepError(f"cannot write {path}: {exc.strerror}") from None


def _load_quiver(path: str):
    return parse_quiver(_read(path))


def _load_rep(path: str, quiver) -> Representation:
    return parse_rep(_read(path), quiver)


def _quiver_summary(bq) -> str:
    return " ".join(f"{name}={value}" for name, value in quiver_facts(bq))


# -- subcommand handlers ---------------------------------------------------


def _cmd_validate(args) -> int:
    bq = _load_quiver(args.quiver)
    print(f"quiver OK: {_quiver_summary(bq)}")
    if args.rep:
        m = _load_rep(args.rep, bq.quiver)
        print(f"rep OK: dim {m.dim} variety_point={yes_no(m.is_variety_point(bq))}")
    return 0


def _cmd_invariants(args) -> int:
    from .homology import ext_report

    bq = _load_quiver(args.quiver)
    m = _load_rep(args.rep, bq.quiver)
    print(f"quiver: {_quiver_summary(bq)}")
    print(f"rep M: dim {m.dim} variety_point={yes_no(m.is_variety_point(bq))}")
    if args.rep2:
        n = _load_rep(args.rep2, bq.quiver)
        print(f"rep N: dim {n.dim} variety_point={yes_no(n.is_variety_point(bq))}")
        rep = ext_report(m, n, bq, assert_gldim2=args.assume_gldim2)
        print(f"hom(M,N) = {rep.hom}")
        print(f"z(M,N) = {rep.z_dim}")
        print(f"b(M,N) = {rep.b_dim}")
        print(f"ext1(M,N) = {rep.ext1}")
        print(f"euler(dimM,dimN) = {rep.euler}")
        ext2 = "unknown (pass --assume-gldim2)" if rep.ext2 is None else rep.ext2
        print(f"ext2(M,N) = {ext2}")
    else:
        rep = ext_report(m, m, bq, assert_gldim2=args.assume_gldim2)
        print(f"end(M) = {rep.hom}")
        print(f"orbit_dim(M) = {m.dim.glsum() - rep.hom}")
        print(f"z(M,M) = {rep.z_dim}")
        print(f"b(M,M) = {rep.b_dim}")
        print(f"ext1(M,M) = {rep.ext1}")
        print(f"tits(dim M) = {tits_form(m.dim, bq)}")
        print(f"expected_dim(dim M) = {expected_dim(m.dim, bq)}")
        ext2 = "unknown (pass --assume-gldim2)" if rep.ext2 is None else rep.ext2
        print(f"ext2(M,M) = {ext2}")
    return 0


def _cmd_euler(args) -> int:
    bq = _load_quiver(args.quiver)
    d1 = parse_dimvec(args.dim, bq.quiver)
    print(f"d1 = {d1}")
    print(f"tits(d1) = {tits_form(d1, bq)}")
    print(f"glsum(d1) = {d1.glsum()}")
    print(f"expected_dim(d1) = {expected_dim(d1, bq)}")
    if args.assume_tame_quasitilted:
        verdict = classify_dimvector(d1, bq)
        print(f"classification(d1) = {verdict}")
    if args.dim2:
        d2 = parse_dimvec(args.dim2, bq.quiver)
        print(f"d2 = {d2}")
        print(f"tits(d2) = {tits_form(d2, bq)}")
        print(f"euler(d1,d2) = {euler_form(d1, d2, bq)}")
        print(f"euler(d2,d1) = {euler_form(d2, d1, bq)}")
    return 0


def _cmd_certify(args) -> int:
    from .geometry import regularity_certificate

    bq = _load_quiver(args.quiver)
    m = _load_rep(args.rep, bq.quiver)
    cert = regularity_certificate(m, bq, assert_gldim2=args.assume_gldim2)
    for line in cert.lines():
        print(line)
    return 0 if cert.verdict == "CertifiedRegular" else 1


def _cmd_family(args) -> int:
    from .family import Family, FamilyParams, FamilyReport

    fam = Family(FamilyParams(args.p, args.q, args.r, args.s, args.t))
    bq = fam.bound_quiver
    print(f"family {fam.params}: {_quiver_summary(bq)}")
    for _, label, field in FamilyReport._FORMS:
        if field != "glsum_total":  # never printed here; this stdout is pinned byte for byte
            print(f"{label} = {fam.forms[field]}")
    # Every text is built before the first write, so a bad label writes no file.
    emits = []
    if args.emit_quiver:
        emits.append((args.emit_quiver, serialize_quiver(bq), "quiver file"))
    if args.emit_h1:
        label, path = args.emit_h1
        emits.append((path, serialize_rep(fam.rep_h1(label)), f"h1 representation ({label})"))
    if args.emit_h2:
        label, path = args.emit_h2
        emits.append((path, serialize_rep(fam.rep_h2(label)), f"h2 representation ({label})"))
    if args.emit_simple:
        emits.append((args.emit_simple, serialize_rep(fam.simple_at_b()),
                      "simple-at-b representation"))
    for path, text, what in emits:
        _write(path, text)
        print(f"wrote {what}: {path}")
    return 0


def _parse_scalars(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_paper_verify(args) -> int:
    from .family import FamilyParams, verify_family

    params = FamilyParams(args.p, args.q, args.r, args.s, args.t)
    kwargs = {}
    if args.u_scalars is not None:
        kwargs["u_scalars"] = _parse_scalars(args.u_scalars)
    if args.v_scalars is not None:
        kwargs["v_scalars"] = _parse_scalars(args.v_scalars)
    try:
        report, error = verify_family(params, **kwargs), None
    except (DecompositionMismatch, InequalityViolated) as exc:
        report, error = exc.report, exc
    sys.stdout.write(report.to_text())
    if args.out:
        _write(args.out, report.to_kv())
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_iso(args) -> int:
    from .homology import iso_probable

    bq = _load_quiver(args.quiver)
    m = _load_rep(args.rep, bq.quiver)
    n = _load_rep(args.rep2, bq.quiver)
    verdict = iso_probable(m, n, trials=args.trials, seed=args.seed,
                           entry_bound=args.entry_bound)
    print(verdict)
    return 0 if verdict == "Isomorphic" else 1


def _cmd_bisect(args) -> int:
    from .geometry import bisection_classify

    bq = _load_quiver(args.quiver)
    t = _load_rep(args.rep, bq.quiver)
    m = _load_rep(args.rep2, bq.quiver)
    print(bisection_classify(t, m, bq))
    return 0


# -- parser ---------------------------------------------------------------


def _add_family_params(sub):
    for name in ("p", "q", "r", "s", "t"):
        sub.add_argument(f"--{name}", type=int, required=True,
                         help=f"arm length {name} (>= 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivrep",
        description="Exact invariants of bound-quiver representations "
                    "and module varieties.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="parse and summarize a quiver (and rep) file")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("invariants", help="hom/ext/euler/orbit invariants")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--rep2")
    p.add_argument("--assume-gldim2", action="store_true",
                   help="assert global dimension <= 2 so ext2 is computable")
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("euler", help="bilinear form values on dimension vectors")
    p.add_argument("--quiver", required=True)
    p.add_argument("--dim", required=True, help='comma list, e.g. "a=1,b=2"')
    p.add_argument("--dim2")
    p.add_argument("--assume-tame-quasitilted", action="store_true",
                   help="assert tame quasi-tilted so the form classifies")
    p.set_defaults(func=_cmd_euler)

    p = subs.add_parser("certify", help="regularity certificate at a variety point")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--assume-gldim2", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("family", help="build the arm family and emit files")
    _add_family_params(p)
    p.add_argument("--emit-quiver", metavar="PATH")
    p.add_argument("--emit-h1", nargs=2, metavar=("LABEL", "PATH"))
    p.add_argument("--emit-h2", nargs=2, metavar=("LABEL", "PATH"))
    p.add_argument("--emit-simple", metavar="PATH")
    p.set_defaults(func=_cmd_family)

    p = subs.add_parser("paper-verify",
                        help="grid verification of the family's stratum geometry")
    _add_family_params(p)
    p.add_argument("--u-scalars", metavar="CSV",
                   help="scalar labels for the a-side reps (default 2,3,7)")
    p.add_argument("--v-scalars", metavar="CSV",
                   help="scalar labels for the c-side reps (default 2,3,5)")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the grid makes no random draw")
    p.add_argument("--out", metavar="PATH",
                   help="also write a machine-readable key-value report")
    p.set_defaults(func=_cmd_paper_verify)

    p = subs.add_parser("iso", help="randomized isomorphism test with certificates")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--rep2", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=int, default=100)
    p.set_defaults(func=_cmd_iso)

    p = subs.add_parser("bisect", help="torsion-pair placement of a module")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep", required=True, help="the tilting module T")
    p.add_argument("--rep2", required=True, help="the module to place")
    p.set_defaults(func=_cmd_bisect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except QuivrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
