"""Command-line interface.

Subcommands: validate, invariants, euler, certify, family, paper-verify,
iso, bisect.  Exit codes: 0 on success (or a verified positive answer), 1
when a verification produced a negative/unproven answer, 2 on usage or
parse errors.  Reports go to stdout, diagnostics to stderr; all output is
deterministic for fixed inputs and seeds.  A handler's stdout is held
back until it returns, so a call that exits 2 prints nothing to stdout.

A process loads only what its subcommand runs: ``main`` builds the
subparser of the named subcommand alone, each handler imports what it
runs from ``family``, ``geometry`` and ``homology`` when it is called, and
``textio.parse_rep`` imports ``rep`` and ``linalg`` when a representation
is read.  So ``euler`` loads none of these, and ``validate`` only ``rep``
and ``linalg``, with ``--rep``.  The others load those two and add:
``invariants`` and ``iso`` ``homology``; ``bisect`` ``geometry`` (which
imports ``homology``); ``certify`` ``geometry`` and ``certificate`` (so
``dataclasses``); ``family`` and ``paper-verify`` ``geometry`` and
``family``.
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


def _load_rep(path: str, quiver):
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
    n, pair = m, "M,M"
    if args.rep2:
        n, pair = _load_rep(args.rep2, bq.quiver), "M,N"
        print(f"rep N: dim {n.dim} variety_point={yes_no(n.is_variety_point(bq))}")
    rep = ext_report(m, n, bq, assert_gldim2=args.assume_gldim2)
    if args.rep2:
        print(f"hom(M,N) = {rep.hom}")
    else:
        print(f"end(M) = {rep.hom}")
        print(f"orbit_dim(M) = {m.dim.glsum() - rep.hom}")
    print(f"z({pair}) = {rep.z_dim}")
    print(f"b({pair}) = {rep.b_dim}")
    print(f"ext1({pair}) = {rep.ext1}")
    if args.rep2:
        print(f"euler(dimM,dimN) = {rep.euler}")
    else:
        print(f"tits(dim M) = {tits_form(m.dim, bq)}")
        print(f"expected_dim(dim M) = {expected_dim(m.dim, bq)}")
    ext2 = "unknown (pass --assume-gldim2)" if rep.ext2 is None else rep.ext2
    print(f"ext2({pair}) = {ext2}")
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


_QUIVER = ("--quiver", {"required": True})
_REP = ("--rep", {"required": True})
_FAMILY_PARAMS = tuple((f"--{name}", {"type": int, "required": True,
                                       "help": f"arm length {name} (>= 1)"})
                       for name in "pqrst")

# name -> (handler, help line, options), in the order `quivrep --help` lists
# them; an option is a flag and the keywords of its `add_argument`.
_SUBCOMMANDS = {
    "validate": (_cmd_validate, "parse and summarize a quiver (and rep) file",
                 (_QUIVER, ("--rep", {}))),
    "invariants": (_cmd_invariants, "hom/ext/euler/orbit invariants", (
        _QUIVER, _REP, ("--rep2", {}),
        ("--assume-gldim2", {"action": "store_true",
                             "help": "assert global dimension <= 2 so ext2 is computable"}))),
    "euler": (_cmd_euler, "bilinear form values on dimension vectors", (
        _QUIVER, ("--dim", {"required": True, "help": 'comma list, e.g. "a=1,b=2"'}),
        ("--dim2", {}),
        ("--assume-tame-quasitilted", {
            "action": "store_true",
            "help": "assert tame quasi-tilted so the form classifies"}))),
    "certify": (_cmd_certify, "regularity certificate at a variety point",
                (_QUIVER, _REP, ("--assume-gldim2", {"action": "store_true"}))),
    "family": (_cmd_family, "build the arm family and emit files", (
        *_FAMILY_PARAMS,
        ("--emit-quiver", {"metavar": "PATH"}),
        ("--emit-h1", {"nargs": 2, "metavar": ("LABEL", "PATH")}),
        ("--emit-h2", {"nargs": 2, "metavar": ("LABEL", "PATH")}),
        ("--emit-simple", {"metavar": "PATH"}))),
    "paper-verify": (_cmd_paper_verify, "grid verification of the family's stratum geometry", (
        *_FAMILY_PARAMS,
        ("--u-scalars", {"metavar": "CSV",
                         "help": "scalar labels for the a-side reps (default 2,3,7)"}),
        ("--v-scalars", {"metavar": "CSV",
                         "help": "scalar labels for the c-side reps (default 2,3,5)"}),
        ("--seed", {"type": int, "default": 0,
                    "help": "accepted and ignored: the grid makes no random draw"}),
        ("--out", {"metavar": "PATH",
                   "help": "also write a machine-readable key-value report"}))),
    "iso": (_cmd_iso, "randomized isomorphism test with certificates", (
        _QUIVER, _REP, ("--rep2", {"required": True}),
        ("--trials", {"type": int, "default": 8}),
        ("--seed", {"type": int, "default": 0}),
        ("--entry-bound", {"type": int, "default": 100}))),
    "bisect": (_cmd_bisect, "torsion-pair placement of a module", (
        _QUIVER, ("--rep", {"required": True, "help": "the tilting module T"}),
        ("--rep2", {"required": True, "help": "the module to place"}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `quivrep` parser; given a subcommand name, with only its subparser.

    A process parses one subcommand, so building the other seven is waste.
    The one-subparser parser prints byte for byte the help and the errors
    that the full one prints for that subcommand: its subcommand metavar
    names all eight, as the full parser's choices do.  The full parser
    sets no metavar, so that its own errors name the argument ``command``.
    """
    one = command in _SUBCOMMANDS
    parser = argparse.ArgumentParser(
        prog="quivrep",
        description="Exact invariants of bound-quiver representations "
                    "and module varieties.")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if one else None)
    for name in [command] if one else _SUBCOMMANDS:
        func, help_line, options = _SUBCOMMANDS[name]
        p = subs.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
