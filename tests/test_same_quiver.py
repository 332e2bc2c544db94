"""One gate decides whether values share a quiver: `quiver.same_quiver`.

Every entry point that combines values refuses one from another quiver
with a QuivrepError "<what> on a different quiver".  The table uses two
quivers on vertices a, b with one arrow x, a -> b on one and b -> a on
the other: they share every vertex and arrow name, so an entry point
without the gate reads the other quiver's values silently instead of
failing on an unknown name.  A scan of the package's source, in the style
of `tests/test_imports.py`, keeps the gate the only place that compares
a `.quiver` attribute.
"""

import ast
from pathlib import Path

import pytest

from quivrep import (
    BoundQuiver,
    CocycleElement,
    DimVector,
    Quiver,
    Relation,
    Representation,
    classify_dimvector,
    direct_sum,
    euler_form,
    expected_dim,
    iso_probable,
    make_rep,
    middle_term,
    tits_form,
    twisted_evaluate,
)
from quivrep.errors import QuivrepError
from quivrep.homology import cocycle_rows, intertwiner_rows
from quivrep.rep import cocycle_ambient_dim

ROOT = Path(__file__).resolve().parent.parent

Q1 = Quiver.build(("a", "b"), [("x", "a", "b")])
Q2 = Quiver.build(("a", "b"), [("x", "b", "a")])
BQ1 = BoundQuiver.of(Q1, [Relation.of([(1, Q1.path(["x"]))])])
REL2 = Relation.of([(1, Q2.path(["x"]))])
D1, D2 = DimVector.of(Q1, (1, 1)), DimVector.of(Q2, (1, 1))
M1, M2 = make_rep(Q1, D1, {"x": [[1]]}), make_rep(Q2, D2, {"x": [[1]]})
Z1 = CocycleElement.from_flat(Q1, D1, D1, [1])
Z2 = CocycleElement.from_flat(Q2, D2, D2, [1])

FOREIGN_CALLS = {
    "intertwiner_rows": lambda: intertwiner_rows(M1, M2),
    "cocycle_rows": lambda: cocycle_rows(M1, M2, BQ1),
    "iso_probable": lambda: iso_probable(M1, M2),
    "BoundQuiver.of": lambda: BoundQuiver.of(Q1, [REL2]),
    "DimVector.__add__": lambda: D1 + D2,
    "euler_form": lambda: euler_form(D1, D2, BQ1),
    "tits_form": lambda: tits_form(D2, BQ1),
    "expected_dim": lambda: expected_dim(D2, BQ1),
    "classify_dimvector": lambda: classify_dimvector(D2, BQ1),
    "Representation.of": lambda: Representation.of(Q1, D2, M1.matrices),
    "is_variety_point": lambda: M2.is_variety_point(BQ1),
    "make_rep": lambda: make_rep(Q1, D2),
    "direct_sum": lambda: direct_sum(M1, M2),
    "middle_term": lambda: middle_term(Z1, M1, M2),
    "CocycleElement.__add__": lambda: Z1 + Z2,
    # Silent before the gate: each returned a value read off the other quiver.
    "CocycleElement.from_flat": lambda: CocycleElement.from_flat(Q1, D1, D2, [1]),
    "cocycle_ambient_dim": lambda: cocycle_ambient_dim(Q1, D2, D1),
    "Relation.of": lambda: Relation.of([(1, Q1.path(["x"])), (1, Q2.path(["x"]))]),
    "twisted_evaluate": lambda: twisted_evaluate(Z1, REL2, M1, M1),
}


@pytest.mark.parametrize("call", FOREIGN_CALLS.values(), ids=FOREIGN_CALLS)
def test_every_entry_point_refuses_a_value_of_another_quiver(call):
    with pytest.raises(QuivrepError, match="on a different quiver"):
        call()


def test_an_equal_quiver_built_apart_passes_the_gate():
    twin = Quiver.build(("a", "b"), [("x", "a", "b")])
    assert twin is not Q1
    assert make_rep(twin, D1, {"x": [[1]]}) == M1
    assert expected_dim(DimVector.of(twin, (1, 1)), BQ1) == 0


def quiver_comparisons(source: str):
    """Lines of the comparisons that read a `.quiver` attribute, directly or
    as a tuple or list element, outside the body of the gate."""
    tree = ast.parse(source)
    exempt = {id(node) for gate in ast.walk(tree)
              if isinstance(gate, ast.FunctionDef) and gate.name == "same_quiver"
              for node in ast.walk(gate)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in exempt:
            continue
        operands = []
        for operand in (node.left, *node.comparators):
            operands.extend(operand.elts if isinstance(operand, (ast.Tuple, ast.List))
                            else [operand])
        if any(isinstance(op, ast.Attribute) and op.attr == "quiver" for op in operands):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", sorted(
    str(path.relative_to(ROOT)) for path in ROOT.glob("src/quivrep/*.py")))
def test_only_the_gate_compares_quivers(module):
    assert quiver_comparisons((ROOT / module).read_text()) == []


def test_scan_flags_a_quiver_comparison_outside_the_gate():
    source = ("def same_quiver(quiver, what, *values):\n"
              "    return all(v.quiver == quiver for v in values)\n"
              "def f(m, n):\n"
              "    if m.quiver != n.quiver:\n"
              "        pass\n"
              "    if (m.quiver, m.dim) == (n.quiver, n.dim):\n"
              "        pass\n"
              "    return m.quiver is not n.quiver or len(m.quiver.vertices) == 2\n")
    assert quiver_comparisons(source) == [4, 6, 8]
