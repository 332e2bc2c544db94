"""One gate decides what a vertex or arrow name means:
`Quiver.vertex_position` and `Quiver.arrow_position`.

Every entry point that takes a name refuses an unknown one with a
QuivrepError "unknown vertex 'z'" or "unknown arrow 'z'" (a parser adds
its line), never a bare KeyError or TypeError; every entry point that
takes a sequence of names refuses a bare string instead of reading it as
its characters.  The quiver has vertices a, b and ab and arrows x, y and
xy, so a string read as characters names real vertices and arrows.  A
scan of the package's source, in the style of `tests/test_same_quiver.py`,
keeps `quiver.py` the only module that reads the name tables or words an
unknown-name refusal.
"""

import ast
from pathlib import Path

import pytest

from quivrep import (
    CocycleElement,
    DimVector,
    Path as QPath,
    Quiver,
    make_rep,
    minimal_convex,
    parse_dimvec,
    parse_quiver,
    parse_rep,
    simple_rep,
)
from quivrep.errors import ParseError, QuivrepError

ROOT = Path(__file__).resolve().parent.parent

Q = Quiver.build(("a", "b", "ab"), [("x", "a", "b"), ("y", "b", "ab"), ("xy", "a", "ab")])
D = DimVector.of(Q, (1, 1, 1))
M = make_rep(Q, D, {"x": [[1]]})
Z = CocycleElement.from_flat(Q, D, D, [0, 0, 0])
QUIVER_TEXT = "vertex a\nvertex b\nvertex ab\narrow x a b\narrow y b ab\n"

UNKNOWN_VERTEX = {
    "Quiver.vertex_position": lambda name: Q.vertex_position(name),
    "DimVector.of": lambda name: DimVector.of(Q, {name: 1}),
    "DimVector.__getitem__": lambda name: D[name],
    "minimal_convex": lambda name: minimal_convex(Q, [name]),
    "simple_rep": lambda name: simple_rep(Q, name),
    "make_rep": lambda name: make_rep(Q, {name: 1}),
}
UNKNOWN_ARROW = {
    "Quiver.arrow_position": lambda name: Q.arrow_position(name),
    "Quiver.arrow": lambda name: Q.arrow(name),
    "Quiver.path": lambda name: Q.path(["x", name]),
    "Path.of": lambda name: QPath.of(Q, [name]),
    "make_rep": lambda name: make_rep(Q, D, {name: [[1]]}),
    "Representation.matrix": lambda name: M.matrix(name),
    "CocycleElement.matrix": lambda name: Z.matrix(name),
}
UNKNOWN = [(f"{entry}-vertex", call, "vertex") for entry, call in UNKNOWN_VERTEX.items()] + [
    (f"{entry}-arrow", call, "arrow") for entry, call in UNKNOWN_ARROW.items()]


@pytest.mark.parametrize("name", ["z", "", 1, None, ("a",)],
                         ids=["z", "empty", "int", "None", "tuple"])
@pytest.mark.parametrize("call, kind", [case[1:] for case in UNKNOWN],
                         ids=[case[0] for case in UNKNOWN])
def test_every_name_lookup_refuses_an_unknown_name(call, kind, name):
    with pytest.raises(QuivrepError) as exc:
        call(name)
    assert str(exc.value) == f"unknown {kind} {name!r}"


# A mapping cannot hold an unhashable key: the entry points taking names as keys are left out.
DIRECT = [case for case in UNKNOWN if not case[0].startswith(("DimVector.of", "make_rep"))]


@pytest.mark.parametrize("call, kind", [case[1:] for case in DIRECT],
                         ids=[case[0] for case in DIRECT])
def test_an_unhashable_name_is_an_unknown_name_not_a_type_error(call, kind):
    with pytest.raises(QuivrepError) as exc:
        call(["a"])
    assert str(exc.value) == f"unknown {kind} ['a']"


@pytest.mark.parametrize("call, message", [
    (lambda: parse_dimvec("a=1,z=1", Q), "line 1: unknown vertex 'z'"),
    (lambda: parse_rep("dim a 1\ndim z 1\n", Q), "line 2: unknown vertex 'z'"),
    (lambda: parse_rep("dim a 1\nmat z 0 0 :\n", Q), "line 2: unknown arrow 'z'"),
    (lambda: parse_quiver(QUIVER_TEXT + "rel 1*x.z\n"), "line 6: unknown arrow 'z' in relation"),
], ids=["parse_dimvec", "parse_rep-dim", "parse_rep-mat", "parse_quiver-rel"])
def test_parsers_put_the_gate_text_on_their_line(call, message):
    with pytest.raises(ParseError) as exc:
        call()
    assert str(exc.value) == message


BARE_STRINGS = {
    "Quiver.build-vertices": (lambda: Quiver.build("xyz", []), "vertices", "xyz"),
    "Quiver.build-arrows": (lambda: Quiver.build(("a", "b"), "xab"), "arrows", "xab"),
    "Quiver.build-arrow": (lambda: Quiver.build(("a", "b"), ["xab"]), "an arrow", "xab"),
    "Quiver.path": (lambda: Q.path("xy"), "arrow names", "xy"),
    "Path.of": (lambda: QPath.of(Q, "xy"), "arrow names", "xy"),
    "minimal_convex": (lambda: minimal_convex(Q, "ab"), "seed vertices", "ab"),
}


@pytest.mark.parametrize("call, what, text", BARE_STRINGS.values(), ids=BARE_STRINGS)
def test_a_bare_string_is_not_read_as_a_sequence_of_names(call, what, text):
    with pytest.raises(QuivrepError) as exc:
        call()
    assert str(exc.value) == f"{what} must be a sequence, not the string {text!r}"


def test_sequences_of_names_other_than_strings_still_pass():
    assert minimal_convex(Q, {"a", "ab"}) == ("a", "b", "ab")
    assert minimal_convex(Q, ("ab",)) == ("ab",)
    assert Q.path(("xy",)) == QPath.of(Q, ["xy"])
    assert str(Q.path(iter(["y", "x"]))) == "y.x"


@pytest.mark.parametrize("vertices, arrows, name", [
    ((1, "b"), [], 1),
    (("a", None), [], None),
    (("a", "b"), [(2, "a", "b")], 2),
    (("a", "b"), [("x", "a", ["b"])], ["b"]),
], ids=["int-vertex", "None-vertex", "int-arrow", "unhashable-endpoint"])
def test_build_refuses_a_name_that_is_not_a_str(vertices, arrows, name):
    with pytest.raises(QuivrepError) as exc:
        Quiver.build(vertices, arrows)
    assert str(exc.value) == f"vertex and arrow names must be strings, got {name!r}"


def test_build_keeps_names_the_serialisers_refuse():
    q = Quiver.build(("", "a b", "c#", "d.e"), [("f.g", "", "a b")])
    assert q.vertex_position("d.e") == 3 and q.arrow("f.g").target == "a b"


def name_table_reads(source: str):
    """Lines that read `vertex_index` or `arrow_index`, or hold a string
    constant wording an unknown-name refusal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("vertex_index", "arrow_index"):
            found.append(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and ("unknown vertex" in node.value or "unknown arrow" in node.value)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(
    str(path.relative_to(ROOT)) for path in ROOT.glob("src/quivrep/*.py")
    if path.name != "quiver.py"))
def test_only_the_gate_reads_the_name_tables(module):
    assert name_table_reads((ROOT / module).read_text()) == []


def test_scan_flags_a_name_table_read_outside_the_gate():
    source = ("def f(q, name):\n"
              "    if name not in q.vertex_index:\n"
              "        raise ValueError(f'unknown vertex {name!r}')\n"
              "    index = q.arrow_index\n"
              "    return q.vertex_position(name)\n")
    assert name_table_reads(source) == [2, 3, 4]
    assert name_table_reads((ROOT / "src/quivrep/quiver.py").read_text()) != []
