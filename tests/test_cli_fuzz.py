"""Whole CLI calls on small generated inputs keep the 0/1/2 exit contract.

Each example writes a small quiver file and representation files (at most
4 vertices, dimensions at most 2), picks a subcommand with generated flag
values, runs ``quivrep.cli.main`` in process and checks that it returns 0,
1 or 2 (or that argparse exits with 0 or 2) without raising, and that a
call ending with 2 printed nothing to stdout.  Family arms stay at most 2,
or are refused before anything is built (0, and 10**6, whose family would
pass the cap on system cells), and scalar lists stay short, so no call
does unbounded work.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quivrep.cli import main

# "1e100000000" is refused: Fraction would build a hundred-million-digit integer.
ENTRIES = st.sampled_from(["0", "1", "-1", "2", "1/2", "1e100000000"])
LABELS = st.sampled_from(["0", "1", "2", "-1", "1/2", "1/0", "1e100000000", "x", "alpha1",
                          "beta2", "xi1", "delta1"])
JUNK_LINES = st.sampled_from(["dim v1 x\n", "dim v1 -1\n", "mat zz 1 1 : 1\n",
                              "mat a0 1 1 :\n", "bogus\n"])


def _rep_text(draw, vertices, arrows):
    dims = {v: draw(st.integers(0, 2)) for v in vertices}
    lines = [f"dim {v} {d}" for v, d in dims.items()]
    for name, source, target in arrows:
        size = dims[source] * dims[target]
        entries = draw(st.lists(ENTRIES, min_size=size, max_size=size))
        lines.append(f"mat {name} {dims[target]} {dims[source]} : {' '.join(entries)}")
    junk = draw(JUNK_LINES) if draw(st.integers(0, 3)) == 0 else ""
    return "\n".join(lines) + "\n" + junk


def _relation_line(draw, names):
    terms = draw(st.lists(
        st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["1", "2", "1/2"]),
                  st.lists(st.sampled_from(names), min_size=1, max_size=2)),
        min_size=1, max_size=3))
    words = []
    for i, (sign, coeff, path) in enumerate(terms):
        if i:
            words.append(sign)
        words.append(f"{coeff}*{'.'.join(path)}")
    return "rel " + " ".join(words)


def _dim_list(draw, vertices):
    chunks = draw(st.lists(st.tuples(st.sampled_from(vertices + ("zz",)),
                                     st.sampled_from(["0", "1", "2", "-1", "x"])),
                           max_size=4))
    return ",".join(f"{v}={x}" for v, x in chunks)


def _scalar_list(draw):
    return ",".join(draw(st.lists(LABELS, max_size=2)))


def _arms(draw):
    lengths = st.sampled_from([1, 1, 2, 0, 10**6])  # 0 and 10**6 are refused
    return [arg for name in "pqrst" for arg in (f"--{name}", str(draw(lengths)))]


@st.composite
def cli_calls(draw):
    """(files to write, argv); file names in argv are resolved later."""
    vertices = tuple(f"v{i}" for i in range(1, draw(st.integers(1, 4)) + 1))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=4))
    arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)]
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"arrow {name} {s} {t}" for name, s, t in arrows]
    if arrows:
        names = [name for name, _, _ in arrows]
        lines += [_relation_line(draw, names) for _ in range(draw(st.integers(0, 2)))]
    rep = _rep_text(draw, vertices, arrows)
    rep2 = rep if draw(st.booleans()) else _rep_text(draw, vertices, arrows)
    files = {"q.quiver": "\n".join(lines) + "\n", "m.rep": rep, "n.rep": rep2}
    base = ["--quiver", "q.quiver"]
    gldim = ["--assume-gldim2"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(["validate", "invariants", "euler", "certify", "iso",
                                    "bisect", "family", "paper-verify"]))
    if command == "validate":
        argv = base + (["--rep", "m.rep"] if draw(st.booleans()) else [])
    elif command == "invariants":
        argv = base + ["--rep", "m.rep"] + gldim
        argv += ["--rep2", "n.rep"] if draw(st.booleans()) else []
    elif command == "euler":
        argv = base + ["--dim", _dim_list(draw, vertices)]
        argv += ["--dim2", _dim_list(draw, vertices)] if draw(st.booleans()) else []
        argv += ["--assume-tame-quasitilted"] if draw(st.booleans()) else []
    elif command == "certify":
        argv = base + ["--rep", "m.rep"] + gldim
    elif command == "iso":
        argv = base + ["--rep", "m.rep", "--rep2", "n.rep",
                       "--trials", str(draw(st.integers(-2, 4))),
                       "--seed", str(draw(st.integers(0, 3))),
                       "--entry-bound", str(draw(st.integers(-2, 5)))]
    elif command == "bisect":
        argv = base + ["--rep", "m.rep", "--rep2", "n.rep"]
    elif command == "family":
        argv = _arms(draw)
        for flag, path in (("--emit-h1", "h1.rep"), ("--emit-h2", "h2.rep")):
            if draw(st.booleans()):
                argv += [flag, draw(LABELS), path]
        argv += ["--emit-quiver", "out.quiver"] if draw(st.booleans()) else []
    else:
        argv = _arms(draw) + ["--u-scalars", _scalar_list(draw),
                              "--v-scalars", _scalar_list(draw),
                              "--seed", str(draw(st.integers(0, 3)))]
        argv += ["--out", "out.kv"] if draw(st.booleans()) else []
    return files, [command] + argv


def _run(files, argv):
    """The exit code of one call and what it printed to stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        names = set(files) | {"h1.rep", "h2.rep", "out.quiver", "out.kv"}
        argv = [str(Path(tmp, a)) if a in names else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                assert exc.code in (0, 2), (argv, exc.code, err.getvalue())
                code = exc.code
        return code, out.getvalue()


@settings(derandomize=True, deadline=None, max_examples=500)
@given(cli_calls())
def test_cli_call_exits_0_1_or_2(call):
    files, argv = call
    code, out = _run(files, argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
