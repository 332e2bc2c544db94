"""The value-type contract: equality, hashing, immutability and defaults.

These are the semantics a frozen dataclass gives; ``RegularityCertificate``,
the one dataclass left, must also keep working with ``dataclasses.replace``.
"""

import dataclasses

import pytest

from quivrep import (
    Arrow,
    DimVector,
    FamilyParams,
    FamilyReport,
    MatrixQ,
    QuivrepError,
    Quiver,
    Relation,
    make_rep,
    regularity_certificate,
)
from quivrep.quiver import BoundQuiver


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


def test_family_params_validation():
    with pytest.raises(QuivrepError):
        FamilyParams(0, 1, 1, 1, 1)
    with pytest.raises(QuivrepError, match="arm length t"):
        FamilyParams(1, 1, 1, 1, 0)


def _report():
    q = _quiver()
    d = DimVector.of(q, (1, 1, 1))
    return FamilyReport(params=FamilyParams(1, 1, 1, 1, 1), vertices=3, arrows=2,
                        relations=0, admissible=True, triangular=True, h1=d, h2=d,
                        total=d + d, tits_h1=1, tits_h2=1, euler_h1_h2=0, euler_h2_h1=0,
                        tits_total=2, glsum_total=12, expected_total=8)


def test_family_reports_get_fresh_lists_and_stay_mutable():
    first, second = _report(), _report()
    assert first == second
    first.rows.append("row")
    first.failures.append("failure")
    assert second.rows == [] and second.failures == []
    assert first != second
    first.stratum_dim = 8
    assert first.stratum_dim == 8
    with pytest.raises(TypeError):
        hash(first)


def test_regularity_certificate_supports_dataclasses_replace():
    q = Quiver.build(("a", "b"), [("x", "b", "a")])
    bq = BoundQuiver.of(q, [])
    cert = regularity_certificate(make_rep(q, (1, 1), {"x": [[1]]}), bq, assert_gldim2=True)
    forged = dataclasses.replace(cert, z_self_dim=cert.z_self_dim + 1)
    assert forged != cert
    assert forged.z_self_dim == cert.z_self_dim + 1
    assert dataclasses.replace(forged, z_self_dim=cert.z_self_dim) == cert
