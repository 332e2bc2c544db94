"""One gate keeps the work cap: `linalg.capped`.

Five entry points refuse work beyond `linalg.MAX_CELLS` cells through it,
each before it builds anything: the two system writers, the kernel basis,
`make_rep` and `FamilyParams`.  Each accepts a size of exactly the cap and
refuses one cell more with "<what it would build>, more than the cap of
N".  A scan of the package's source, in the style of `tests/test_names.py`,
keeps `capped` the only function that reads `MAX_CELLS` or words the
refusal.
"""

import ast
from pathlib import Path

import pytest

from quivrep import BoundQuiver, FamilyParams, MatrixQ, Quiver, Relation, linalg, make_rep
from quivrep.errors import QuivrepError
from quivrep.homology import cocycle_rows, intertwiner_rows

ROOT = Path(__file__).resolve().parent.parent

# c --y--> b --x--> a, bound by x.y; every point has dimension 1 at each vertex.
Q = Quiver.build(("a", "b", "c"), [("x", "b", "a"), ("y", "c", "b")])
BQ = BoundQuiver.of(Q, [Relation.of([(1, Q.path(["x", "y"]))])])
M = make_rep(Q, (1, 1, 1), {"x": [[1]]})

# (call, cells at the cap, refusal text before ", more than the cap of N")
SITES = {
    # Two arrows of 1 x 1 blocks over three 1 x 1 vertex unknowns.
    "intertwiner_rows": (lambda: intertwiner_rows(M, M), 2 * 3,
                         "the intertwiner system would have 2 x 3 cells"),
    # One relation c -> a of 1 x 1 entries over two 1 x 1 arrow unknowns.
    "cocycle_rows": (lambda: cocycle_rows(M, M, BQ), 1 * 2,
                     "the cocycle system would have 1 x 2 cells"),
    # A 0 x 3 matrix has a kernel basis of 3 vectors of length 3.
    "kernel_basis": (lambda: linalg.kernel_basis(MatrixQ(0, 3, ())), 3 * 3,
                     "the kernel basis would have 3 x 3 entries"),
    # Arrows x: 2 -> 1 and y: 3 -> 2 hold 2 + 6 entries.
    "make_rep": (lambda: make_rep(Q, (1, 2, 3)), 8, "arrow matrices would hold 8 entries"),
    # Arms summing to 5: the H' (+) H'' intertwiner system is 10 x 6.
    "FamilyParams": (lambda: FamilyParams(1, 1, 1, 1, 1), 10 * 6,
                     "arm lengths summing to 5 give a 10 x 6 intertwiner system"),
}


@pytest.mark.parametrize("call, cells, text", SITES.values(), ids=SITES)
def test_every_site_admits_exactly_the_cap_and_refuses_one_cell_more(monkeypatch, call, cells,
                                                                      text):
    monkeypatch.setattr(linalg, "MAX_CELLS", cells)
    call()
    monkeypatch.setattr(linalg, "MAX_CELLS", cells - 1)
    with pytest.raises(QuivrepError) as exc:
        call()
    assert str(exc.value) == f"{text}, more than the cap of {cells - 1}"


def test_the_gate_formats_nothing_within_the_cap():
    class Unprintable:
        def __format__(self, spec):
            raise AssertionError("formatted within the cap")

    linalg.capped(linalg.MAX_CELLS, "{} cells", Unprintable())
    with pytest.raises(AssertionError, match="formatted within the cap"):
        linalg.capped(linalg.MAX_CELLS + 1, "{} cells", Unprintable())


def cap_sites(source: str) -> list:
    """Sorted qualified names of the functions (``<module>`` for module
    level) that read `MAX_CELLS`, as a name, an attribute or an import, or
    hold a string constant wording the cap's refusal."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{where}.{child.name}" if where else child.name
            if ((isinstance(child, ast.Name) and child.id == "MAX_CELLS"
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == "MAX_CELLS")
                    or (isinstance(child, ast.alias) and child.name == "MAX_CELLS")
                    or (isinstance(child, ast.Constant) and isinstance(child.value, str)
                        and "more than the cap" in child.value)):
                found.add(name or "<module>")
            visit(child, name)

    visit(ast.parse(source), "")
    return sorted(found)


@pytest.mark.parametrize("module", sorted(
    str(path.relative_to(ROOT)) for path in ROOT.glob("src/quivrep/*.py")))
def test_only_the_gate_reads_the_cap(module):
    want = ["capped"] if module.endswith("linalg.py") else []
    assert cap_sites((ROOT / module).read_text()) == want


def test_scan_flags_a_cap_check_outside_the_gate():
    source = ("from .linalg import MAX_CELLS\n"
              "class Params:\n"
              "    def __init__(self, n):\n"
              "        if n > MAX_CELLS:\n"
              "            raise ValueError(f'{n} cells, more than the cap of {MAX_CELLS}')\n"
              "def cap(linalg):\n"
              "    return linalg.MAX_CELLS\n"
              "MAX_CELLS = 10\n")
    assert cap_sites(source) == ["<module>", "Params.__init__", "cap"]
