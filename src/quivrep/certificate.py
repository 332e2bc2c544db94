"""The outcome of :func:`quivrep.geometry.regularity_certificate`.

It is the package's one dataclass: callers may derive altered
certificates with ``dataclasses.replace``.  It has a module of its own so
that only a process that builds a certificate pays for importing
``dataclasses`` (and ``inspect``, which that imports); ``geometry``
imports it when ``regularity_certificate`` is called.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import DimVector, yes_no


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of the smooth-point check at one variety point."""

    dim_vector: DimVector
    triangular: bool
    gldim2_asserted: bool
    end_dim: int
    ext1_self: int
    ext2_self: int | None
    z_self_dim: int
    expected: int
    orbit_dim: int
    verdict: str  # CertifiedRegular | BoundOnly | NotApplicable

    def lines(self):
        yield f"dim_vector = {self.dim_vector}"
        yield f"triangular = {yes_no(self.triangular)}"
        yield f"gldim2_asserted = {yes_no(self.gldim2_asserted)}"
        yield f"end_dim = {self.end_dim}"
        yield f"ext1_self = {self.ext1_self}"
        yield f"ext2_self = {'unknown' if self.ext2_self is None else self.ext2_self}"
        yield f"z_self_dim = {self.z_self_dim}"
        yield f"expected_dim = {self.expected}"
        yield f"orbit_dim = {self.orbit_dim}"
        yield f"verdict = {self.verdict}"
