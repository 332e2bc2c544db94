"""The value-type contract: construction, equality, hashing, immutability,
copying and pickling.

These are the semantics a frozen dataclass gives; ``RegularityCertificate``,
the one dataclass left, must also keep working with ``dataclasses.replace``
and ``dataclasses.asdict``.
"""

import copy
import dataclasses
import pickle

import pytest

from quivrep import (
    Arrow,
    DimVector,
    FamilyParams,
    FamilyReport,
    MatrixQ,
    QuivrepError,
    Quiver,
    RegularityCertificate,
    Relation,
    make_rep,
    regularity_certificate,
)
from quivrep._value import Value
from quivrep.family import GridRow
from quivrep.geometry import StratumReport
from quivrep.homology import Basis, ExtReport
from quivrep.linalg import MatrixZ
from quivrep.quiver import BoundQuiver
from quivrep.rep import CocycleElement


def _quiver():
    return Quiver.build(("a", "b", "c"), [("x", "b", "a"), ("y", "c", "b")])


def _values():
    """One instance of each value type, built afresh on every call."""
    q = _quiver()
    return [
        q,
        DimVector.of(q, {"a": 1, "b": 2}),
        q.path(["x", "y"]),
        Relation.of([(2, q.path(["x", "y"]))]),
        MatrixQ.from_rows([[1, "1/2"], [0, 3]]),
        make_rep(q, (1, 1, 1), {"x": [[2]], "y": [["1/3"]]}),
        FamilyParams(1, 2, 1, 3, 1),
    ]


def test_separately_built_values_are_equal_and_hash_equal():
    for left, right in zip(_values(), _values()):
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)


def test_values_of_different_classes_never_compare_equal():
    values = _values() + [Arrow("x", "b", "a"), ("x", "b", "a"), None]
    for i, left in enumerate(values):
        for j, right in enumerate(values):
            assert (left == right) == (i == j), (left, right)
    assert FamilyParams(1, 2, 1, 3, 1) != (1, 2, 1, 3, 1)


def test_frozen_fields_refuse_assignment_and_deletion():
    for value in _values() + [Arrow("x", "b", "a")]:
        name = type(value).__name__
        field = {"Quiver": "vertices", "DimVector": "entries", "Path": "arrow_names",
                 "Relation": "terms", "MatrixQ": "rows", "Representation": "dim",
                 "FamilyParams": "p", "Arrow": "name"}[name]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == before


def test_constructor_binds_positionals_then_keywords_in_field_order():
    positional = Arrow("x", "b", "a")
    assert Arrow(name="x", source="b", target="a") == positional
    assert Arrow(target="a", name="x", source="b") == positional
    assert Arrow("x", target="a", source="b") == positional
    assert Arrow("x", "b", target="a") == positional


@pytest.mark.parametrize("args, kwargs, message", [
    pytest.param(("x", "b"), {}, "missing field 'target'", id="missing"),
    pytest.param(("x", "b", "a"), {"label": "y"}, "field 'label' unknown", id="unknown"),
    pytest.param(("x", "b"), {"name": "y", "target": "a"}, "field 'name' given twice",
                 id="twice"),
    pytest.param(("x", "b", "a", "c"), {}, "takes 3 fields, got 4", id="too-many"),
])
def test_constructor_refuses_bad_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Arrow(*args, **kwargs)


def test_repr_names_every_field_in_constructor_order():
    assert repr(FamilyParams(1, 2, 3, 4, 5)) == "FamilyParams(p=1, q=2, r=3, s=4, t=5)"


@pytest.mark.parametrize("arms, message", [
    ((0, 1, 1, 1, 1), "arm length p"),
    ((1, 1, 1, 1, 0), "arm length t"),
    ((2.5, 1, 1, 1, 1), "arm length p must be an integer"),
    (("2", 1, 1, 1, 1), "arm length p must be an integer"),
    ((1, True, 1, 1, 1), "arm length q must be an integer >= 1, got True"),
    # The H' (+) H'' intertwiner system would be 1000009 x 1000005.
    ((10**6, 1, 1, 1, 1), "1000009 x 1000005 intertwiner system, more than the cap"),
], ids=str)
def test_family_params_validation(arms, message):
    with pytest.raises(QuivrepError, match=message):
        FamilyParams(*arms)


def test_dimension_vector_refuses_a_non_integer_entry():
    # int() would truncate 1.9 to 1 and build a smaller point than asked for.
    q = _quiver()
    with pytest.raises(QuivrepError, match="must be an integer"):
        DimVector.of(q, (1.9, 2, 0))
    with pytest.raises(QuivrepError, match="must be an integer"):
        make_rep(q, {"a": 1.5, "b": 1})
    # A bool is no dimension: (True, 1, 0) would print as a=True,b=1,c=0.
    with pytest.raises(QuivrepError, match="entry must be an integer >= 0, got True"):
        DimVector.of(q, (True, 1, 0))


def _report():
    q = _quiver()
    d = DimVector.of(q, (1, 1, 1))
    facts = (("vertices", 3), ("arrows", 2), ("relations", 0), ("admissible", "yes"),
             ("triangular", "yes"))
    return FamilyReport(params=FamilyParams(1, 1, 1, 1, 1), quiver_facts=facts, h1=d, h2=d,
                        total=d + d, tits_h1=1, tits_h2=1, euler_h1_h2=0, euler_h2_h1=0,
                        tits_total=2, glsum_total=12, expected_total=8, rows=(),
                        min_hom_12=0, min_hom_21=0, stratum_dim=8, failures=())


def test_family_reports_are_frozen_values():
    first, second = _report(), _report()
    assert first == second and first is not second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        first.stratum_dim = 7
    with pytest.raises(AttributeError):
        first.failures = ("failure",)
    assert first == second and first.stratum_dim == 8 and first.failures == ()


def test_regularity_certificate_supports_dataclasses_replace():
    q = Quiver.build(("a", "b"), [("x", "b", "a")])
    bq = BoundQuiver.of(q, [])
    cert = regularity_certificate(make_rep(q, (1, 1), {"x": [[1]]}), bq, assert_gldim2=True)
    forged = dataclasses.replace(cert, z_self_dim=cert.z_self_dim + 1)
    assert forged != cert
    assert forged.z_self_dim == cert.z_self_dim + 1
    assert dataclasses.replace(forged, z_self_dim=cert.z_self_dim) == cert


def _value_types(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_types(sub)


def _one_of_every_value_type():
    """`_values()` and one instance of each value type it leaves out."""
    values = _values()
    q, d, m = values[0], values[1], values[5]
    return values + [
        Arrow("x", "b", "a"),
        BoundQuiver.of(q, [values[3]]),
        CocycleElement.from_flat(q, d, d, [1, 2]),
        MatrixZ(1, 2, ((1, 2),), (3,)),
        Basis((m.matrices[0],)),  # one field: a bare value, not a tuple, to attrgetter
        ExtReport(hom=1, z_dim=2, b_dim=1, ext1=1, euler=0, ext2=None),
        StratumReport(hom_to_probe=1, constrained_dim=2),
        GridRow("x", "y", 1, 2, 2, 0, 1, 5, 0, 0),
        _report(),
    ]


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"])
def test_every_value_type_copies_and_pickles_to_an_equal_value(clone):
    values = _one_of_every_value_type()
    assert {type(value) for value in values} == set(_value_types())
    for value in values:
        again = clone(value)
        assert type(again) is type(value) and again == value, type(value).__name__


def test_a_copied_representation_recomputes_its_integer_form():
    m = _values()[5]
    kept = m.integer_form
    again = copy.copy(m)
    assert again.integer_form == kept and again.integer_form is not kept


def test_regularity_certificate_supports_dataclasses_asdict():
    # asdict deep-copies every field, the DimVector included.
    q = Quiver.build(("a", "b"), [("x", "b", "a")])
    cert = regularity_certificate(make_rep(q, (1, 1), {"x": [[1]]}), BoundQuiver.of(q, []),
                                  assert_gldim2=True)
    fields = dataclasses.asdict(cert)
    assert fields["dim_vector"] == cert.dim_vector
    assert RegularityCertificate(**fields) == cert
