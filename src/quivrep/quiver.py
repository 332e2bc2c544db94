"""Quivers, paths, relations and dimension vectors.

Conventions, used consistently everywhere:

* A path is written ``a1 a2 ... an`` with the *rightmost* arrow acting
  first: ``source(a_i) == target(a_{i+1})``.  The source of the path is the
  source of its last arrow, the target is the target of its first arrow.
  Trivial paths sit at a single vertex and act as identities.
* A relation is a rational linear combination of paths of length >= 1 that
  all share one source and one target.  It is admissible when every path
  has length >= 2.
* Vertex and arrow declaration order is canonical: dimension vectors,
  matrix families and serialised files all follow it.
"""

from __future__ import annotations

import graphlib
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from ._value import Value, _set
from .errors import MixedEndpoints, NonComposable, QuivrepError


class Arrow(Value):
    __slots__ = _fields = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str):
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)


class Quiver(Value):
    """A finite quiver; loops and parallel arrows are allowed.

    No ``__slots__``: the cached indexes live in the instance ``__dict__``.
    """

    _fields = ("vertices", "arrows")

    def __init__(self, vertices: tuple, arrows: tuple):
        _set(self, "vertices", vertices)
        _set(self, "arrows", arrows)

    @staticmethod
    def build(vertices: Sequence[str], arrows: Sequence) -> "Quiver":
        """Build from vertex names and (name, source, target) triples."""
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise QuivrepError("duplicate vertex names")
        arrow_objs = []
        for spec in arrows:
            a = spec if isinstance(spec, Arrow) else Arrow(*spec)
            if a.source not in verts or a.target not in verts:
                raise QuivrepError(f"arrow {a.name}: endpoint not a declared vertex")
            arrow_objs.append(a)
        names = [a.name for a in arrow_objs]
        if len(set(names)) != len(names):
            raise QuivrepError("duplicate arrow names")
        return Quiver(verts, tuple(arrow_objs))

    @cached_property
    def vertex_index(self) -> Mapping[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_index(self) -> Mapping[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrows[self.arrow_index[name]]
        except KeyError:
            raise QuivrepError(f"unknown arrow {name!r}") from None

    def path(self, arrow_names: Sequence[str]) -> "Path":
        return Path.of(self, arrow_names)

    def trivial_path(self, vertex: str) -> "Path":
        if vertex not in self.vertex_index:
            raise QuivrepError(f"unknown vertex {vertex!r}")
        return Path(self, (), vertex)


class Path(Value):
    """A composable word of arrows, or a trivial path at `base`."""

    __slots__ = _fields = ("quiver", "arrow_names", "base")

    def __init__(self, quiver: Quiver, arrow_names: tuple, base: str | None = None):
        _set(self, "quiver", quiver)
        _set(self, "arrow_names", arrow_names)
        _set(self, "base", base)  # set exactly when the path is trivial

    @staticmethod
    def of(quiver: Quiver, arrow_names: Sequence[str]) -> "Path":
        names = tuple(arrow_names)
        if not names:
            raise QuivrepError("empty arrow list; use trivial_path for identities")
        arrows = [quiver.arrow(n) for n in names]
        for left, right in zip(arrows, arrows[1:]):
            if left.source != right.target:
                raise NonComposable(
                    f"{left.name} (source {left.source}) cannot follow "
                    f"{right.name} (target {right.target})")
        return Path(quiver, names, None)

    @property
    def is_trivial(self) -> bool:
        return not self.arrow_names

    @property
    def length(self) -> int:
        return len(self.arrow_names)

    @property
    def source(self) -> str:
        if self.is_trivial:
            return self.base
        return self.quiver.arrow(self.arrow_names[-1]).source

    @property
    def target(self) -> str:
        if self.is_trivial:
            return self.base
        return self.quiver.arrow(self.arrow_names[0]).target

    def __str__(self) -> str:
        if self.is_trivial:
            return f"e({self.base})"
        return ".".join(self.arrow_names)


def compose_paths(p1: Path, p2: Path) -> Path:
    """Concatenation p1 * p2, meaning p2 acts first."""
    if p1.quiver != p2.quiver:
        raise NonComposable("paths live on different quivers")
    if p1.source != p2.target:
        raise NonComposable(
            f"cannot compose: source {p1.source!r} of left path != "
            f"target {p2.target!r} of right path")
    if p1.is_trivial:
        return p2
    if p2.is_trivial:
        return p1
    return Path(p1.quiver, p1.arrow_names + p2.arrow_names, None)


class Relation(Value):
    """A linear combination sum_i coeff_i * path_i with common endpoints."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple):
        _set(self, "terms", terms)  # tuple of (Fraction, Path)

    @staticmethod
    def of(terms: Sequence) -> "Relation":
        cleaned = []
        for coeff, path in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                raise QuivrepError("relation term with zero coefficient")
            if path.is_trivial:
                raise QuivrepError("relation paths must have length >= 1")
            cleaned.append((coeff, path))
        if not cleaned:
            raise QuivrepError("relation must have at least one term")
        src = cleaned[0][1].source
        tgt = cleaned[0][1].target
        for _, path in cleaned[1:]:
            if path.source != src or path.target != tgt:
                raise MixedEndpoints(
                    f"relation mixes endpoints: ({path.source},{path.target})"
                    f" vs ({src},{tgt})")
        return Relation(tuple(cleaned))

    @property
    def source(self) -> str:
        return self.terms[0][1].source

    @property
    def target(self) -> str:
        return self.terms[0][1].target

    @property
    def is_admissible(self) -> bool:
        return all(path.length >= 2 for _, path in self.terms)

    def __str__(self) -> str:
        parts = []
        for coeff, path in self.terms:
            parts.append(f"{coeff}*{path}")
        return " + ".join(parts)


def relation_endpoints(rel: Relation) -> tuple:
    return (rel.source, rel.target)


class BoundQuiver(Value):
    """A quiver together with a finite set of relations on it."""

    __slots__ = _fields = ("quiver", "relations")

    def __init__(self, quiver: Quiver, relations: tuple):
        _set(self, "quiver", quiver)
        _set(self, "relations", relations)

    @staticmethod
    def of(quiver: Quiver, relations: Sequence[Relation]) -> "BoundQuiver":
        rels = tuple(relations)
        for rel in rels:
            for _, path in rel.terms:
                if path.quiver != quiver:
                    raise QuivrepError("relation path on a different quiver")
        return BoundQuiver(quiver, rels)

    @property
    def is_admissible(self) -> bool:
        return all(rel.is_admissible for rel in self.relations)


class DimVector(Value):
    """A nonnegative integer per vertex, stored in declaration order."""

    __slots__ = _fields = ("quiver", "entries")

    def __init__(self, quiver: Quiver, entries: tuple):
        _set(self, "quiver", quiver)
        _set(self, "entries", entries)

    @staticmethod
    def of(quiver: Quiver, values) -> "DimVector":
        if isinstance(values, Mapping):
            unknown = [v for v in values if v not in quiver.vertex_index]
            if unknown:
                raise QuivrepError(f"dimension given for unknown vertex {unknown[0]!r}")
            entries = tuple(int(values.get(v, 0)) for v in quiver.vertices)
        else:
            entries = tuple(int(x) for x in values)
            if len(entries) != len(quiver.vertices):
                raise QuivrepError("dimension vector length != number of vertices")
        if any(x < 0 for x in entries):
            raise QuivrepError("dimension vector entries must be nonnegative")
        return DimVector(quiver, entries)

    def __getitem__(self, vertex: str) -> int:
        return self.entries[self.quiver.vertex_index[vertex]]

    def __add__(self, other: "DimVector") -> "DimVector":
        if self.quiver != other.quiver:
            raise QuivrepError("dimension vectors on different quivers")
        return DimVector(self.quiver, tuple(a + b for a, b in zip(self.entries, other.entries)))

    @property
    def total(self) -> int:
        return sum(self.entries)

    def glsum(self) -> int:
        """dim GL(d) = sum of squares of the entries."""
        return sum(x * x for x in self.entries)

    def as_dict(self) -> dict:
        return dict(zip(self.quiver.vertices, self.entries))

    def __str__(self) -> str:
        return ",".join(f"{v}={x}" for v, x in zip(self.quiver.vertices, self.entries))


# -- integral bilinear forms -------------------------------------------


def euler_form(d1: DimVector, d2: DimVector, bq: BoundQuiver) -> int:
    """<d1, d2> = sum_x d1 d2 - sum_arrows d1_s d2_t + sum_rels d1_s d2_t.

    For an algebra of global dimension at most two this equals
    hom - ext^1 + ext^2 on any pair of modules with these dimension
    vectors; the relation term counts one generator per relation.
    """
    quiver = bq.quiver
    if d1.quiver != quiver or d2.quiver != quiver:
        raise QuivrepError("dimension vectors on a different quiver")
    value = sum(a * b for a, b in zip(d1.entries, d2.entries))
    for arrow in quiver.arrows:
        value -= d1[arrow.source] * d2[arrow.target]
    for rel in bq.relations:
        value += d1[rel.source] * d2[rel.target]
    return value


def tits_form(d: DimVector, bq: BoundQuiver) -> int:
    """The quadratic form q(d) = <d, d>."""
    return euler_form(d, d, bq)


def expected_dim(d: DimVector, bq: BoundQuiver) -> int:
    """Naive dimension count for the module variety of d.

    Sum of arrow matrix sizes minus the sizes of the relation equations;
    always equals dim GL(d) - q(d).
    """
    quiver = bq.quiver
    if d.quiver != quiver:
        raise QuivrepError("dimension vector on a different quiver")
    value = sum(d[a.source] * d[a.target] for a in quiver.arrows)
    value -= sum(d[r.source] * d[r.target] for r in bq.relations)
    return value


# -- structural predicates and closures --------------------------------


def is_triangular(quiver: Quiver) -> bool:
    """True when the quiver has no oriented cycles (loops included)."""
    sorter = graphlib.TopologicalSorter({v: [] for v in quiver.vertices})
    for a in quiver.arrows:
        sorter.add(a.target, a.source)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True


def _reachable_from(quiver: Quiver, starts) -> set:
    adj = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        adj[a.source].append(a.target)
    seen = set(starts)
    stack = list(starts)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _reaching_into(quiver: Quiver, targets) -> set:
    adj = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        adj[a.target].append(a.source)
    seen = set(targets)
    stack = list(targets)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def minimal_convex(quiver: Quiver, seed_vertices) -> tuple:
    """Smallest convex vertex set containing the seeds.

    Convex means closed under interiors of paths between members.  The
    closure adds every vertex that is simultaneously reachable from a
    member and able to reach a member, repeated to a fixed point.  Returns
    the vertices in declaration order.
    """
    current = set(seed_vertices)
    for v in current:
        if v not in quiver.vertex_index:
            raise QuivrepError(f"unknown vertex {v!r}")
    while True:
        downstream = _reachable_from(quiver, current)
        upstream = _reaching_into(quiver, current)
        closed = downstream & upstream
        if closed == current:
            break
        current = closed
    return tuple(v for v in quiver.vertices if v in current)


def full_subquiver(quiver: Quiver, vertex_subset) -> Quiver:
    """The full subquiver on the given vertices (all arrows between them)."""
    keep = set(vertex_subset)
    verts = tuple(v for v in quiver.vertices if v in keep)
    arrows = tuple(a for a in quiver.arrows if a.source in keep and a.target in keep)
    return Quiver(verts, arrows)


class SupportInfo(Value):
    __slots__ = _fields = ("subquiver", "is_sincere", "is_connected")

    def __init__(self, subquiver: Quiver, is_sincere: bool, is_connected: bool):
        _set(self, "subquiver", subquiver)
        _set(self, "is_sincere", is_sincere)
        _set(self, "is_connected", is_connected)


def support(d: DimVector, quiver: Quiver) -> SupportInfo:
    """Full subquiver on the support of d, plus sincerity/connectedness.

    Connectedness is of the underlying undirected graph of the support
    subquiver; the empty support counts as not connected.
    """
    supported = [v for v, x in zip(quiver.vertices, d.entries) if x > 0]
    sub = full_subquiver(quiver, supported)
    sincere = len(supported) == len(quiver.vertices)
    if not supported:
        return SupportInfo(sub, sincere, False)
    adj = {v: set() for v in sub.vertices}
    for a in sub.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen = {supported[0]}
    stack = [supported[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return SupportInfo(sub, sincere, len(seen) == len(supported))
