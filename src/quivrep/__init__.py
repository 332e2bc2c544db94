"""Exact-arithmetic invariants of bound-quiver representations.

The public surface re-exports the main types and operations; see the
module docstrings for the conventions (path order, cocycle shapes, form
signs).

The re-exports are lazy (PEP 562): ``import quivrep`` loads no submodule,
and the first access to a name imports the submodule that defines it and
caches the name in this module.  A program that only certifies points
never loads ``family`` or ``textio``.
"""

import importlib

_EXPORTS = {
    "errors": ("DecompositionMismatch", "InequalityViolated", "InvalidLabel",
               "MixedEndpoints", "NonComposable", "NotAVarietyPoint", "ParseError",
               "QuivrepError", "ShapeMismatch", "WrongDimension"),
    "linalg": ("MatrixQ", "kernel_basis", "kron", "random_invertible", "random_matrix",
               "rank", "seeded_rng"),
    "quiver": ("Arrow", "BoundQuiver", "DimVector", "Path", "Quiver", "Relation",
               "classify_dimvector", "euler_form", "expected_dim", "is_triangular",
               "minimal_convex", "tits_form"),
    "rep": ("CocycleElement", "Representation", "conjugate", "direct_sum",
            "make_rep", "middle_term", "simple_rep", "twisted_evaluate"),
    "homology": ("Basis", "ExtReport", "coboundary_space",
                 "cocycle_space", "ext1_dim", "ext_report", "hom_basis", "hom_dim",
                 "iso_probable", "orbit_dim"),
    "geometry": ("StratumReport", "bisection_classify", "constrained_cocycles",
                 "direct_sum_stratum_dim", "regularity_certificate"),
    "certificate": ("RegularityCertificate",),
    "family": ("Family", "FamilyParams", "FamilyReport", "verify_family"),
    "textio": ("parse_dimvec", "parse_quiver", "parse_rep", "serialize_quiver",
               "serialize_rep"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as `quivrep.linalg`
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
