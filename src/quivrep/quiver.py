"""Quivers, paths, relations and dimension vectors.

Conventions, used consistently everywhere:

* A path is written ``a1 a2 ... an`` with the *rightmost* arrow acting
  first: ``source(a_i) == target(a_{i+1})``.  The source of the path is the
  source of its last arrow, the target is the target of its first arrow.
* A relation is a rational linear combination of paths of length >= 1 that
  all share one source and one target.  It is admissible when every path
  has length >= 2.
* Vertex and arrow declaration order is canonical: dimension vectors,
  matrix families and serialised files all follow it.
* Names are strings.  ``Quiver.vertex_position`` and ``arrow_position``
  are the package's one lookup from a name to its declaration position;
  an unknown name is a QuivrepError "unknown vertex 'z'" or "unknown
  arrow 'z'", and a bare string is refused where a sequence of names goes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from operator import mul

from ._value import Value, count, rational
from .errors import MixedEndpoints, NonComposable, QuivrepError


def same_quiver(quiver: "Quiver", what: str, *values) -> None:
    """The one check that values share a quiver, for the whole package:
    QuivrepError "<what> on a different quiver" unless every value's
    ``.quiver`` is or equals `quiver`.  Internal: not in ``quivrep.__all__``."""
    for value in values:
        if value.quiver is not quiver and value.quiver != quiver:
            raise QuivrepError(f"{what} on a different quiver")


def _sequence(names, what: str, length: int | None = None) -> tuple:
    """`names` as a tuple; QuivrepError for a bare str, which would otherwise
    be read as a sequence of one-character names, for a set, whose order
    follows the hash seed, for a value that is not iterable and, when
    `length` is given, for a tuple of another length."""
    if isinstance(names, str):
        raise QuivrepError(f"{what} must be a sequence, not the string {names!r}")
    if isinstance(names, (set, frozenset)):  # its repr order follows the hash seed too
        raise QuivrepError(f"{what} must be a sequence, not a {type(names).__name__}")
    try:
        items = tuple(names)
    except TypeError:
        raise QuivrepError(f"{what} must be a sequence, got {names!r}") from None
    if length is not None and len(items) != length:
        raise QuivrepError(f"{what} must have {length} entries, got {items!r}")
    return items


class Arrow(Value):
    __slots__ = _fields = ("name", "source", "target")


class Quiver(Value):
    """A finite quiver; loops and parallel arrows are allowed.

    No ``__slots__``: the cached indexes live in the instance ``__dict__``.
    """

    _fields = ("vertices", "arrows")

    @staticmethod
    def build(vertices: Sequence[str], arrows: Sequence) -> "Quiver":
        """Build from vertex names and (name, source, target) triples; every
        name, endpoints included, must be a str."""
        verts = _sequence(vertices, "vertices")
        arrow_objs = tuple([spec if isinstance(spec, Arrow) else Arrow(*_sequence(spec, "an arrow", 3))
                            for spec in _sequence(arrows, "arrows")])
        for name in verts + tuple([x for a in arrow_objs for x in (a.name, a.source, a.target)]):
            if not isinstance(name, str):
                raise QuivrepError(f"vertex and arrow names must be strings, got {name!r}")
        declared = set(verts)
        if len(declared) != len(verts):
            raise QuivrepError("duplicate vertex names")
        for a in arrow_objs:
            if a.source not in declared or a.target not in declared:
                raise QuivrepError(f"arrow {a.name}: endpoint not a declared vertex")
        if len({a.name for a in arrow_objs}) != len(arrow_objs):
            raise QuivrepError("duplicate arrow names")
        return Quiver(verts, arrow_objs)

    @cached_property
    def vertex_index(self) -> Mapping[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_index(self) -> Mapping[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    @cached_property
    def arrow_ends(self) -> tuple:
        """(source index, target index) of each arrow, in arrow order."""
        index = self.vertex_index
        return tuple([(index[a.source], index[a.target]) for a in self.arrows])

    @cached_property
    def _triangular(self) -> bool:
        """Kahn's algorithm: strip vertices with no arrow in until none is left."""
        into = [0] * len(self.vertices)
        out = [[] for _ in self.vertices]
        for s, t in self.arrow_ends:
            into[t] += 1
            out[s].append(t)
        ready = [v for v, k in enumerate(into) if k == 0]
        stripped = 0
        while ready:
            stripped += 1
            for w in out[ready.pop()]:
                into[w] -= 1
                if into[w] == 0:
                    ready.append(w)
        return stripped == len(self.vertices)

    def vertex_position(self, name: str) -> int:
        """The declaration position of vertex `name`; QuivrepError if unknown."""
        try:
            return self.vertex_index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise QuivrepError(f"unknown vertex {name!r}") from None

    def arrow_position(self, name: str) -> int:
        """The declaration position of arrow `name`; QuivrepError if unknown."""
        try:
            return self.arrow_index[name]
        except (KeyError, TypeError):
            raise QuivrepError(f"unknown arrow {name!r}") from None

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_position(name)]

    def path(self, arrow_names: Sequence[str]) -> "Path":
        return Path.of(self, arrow_names)


class Path(Value):
    """A nonempty composable word of arrows."""

    __slots__ = _fields = ("quiver", "arrow_names")

    @staticmethod
    def of(quiver: Quiver, arrow_names: Sequence[str]) -> "Path":
        names = _sequence(arrow_names, "arrow names")
        if not names:
            raise QuivrepError("empty arrow list")
        arrows = [quiver.arrow(n) for n in names]
        for left, right in zip(arrows, arrows[1:]):
            if left.source != right.target:
                raise NonComposable(
                    f"{left.name} (source {left.source}) cannot follow "
                    f"{right.name} (target {right.target})")
        return Path(quiver, names)

    @property
    def length(self) -> int:
        return len(self.arrow_names)

    @property
    def source(self) -> str:
        return self.quiver.arrow(self.arrow_names[-1]).source

    @property
    def target(self) -> str:
        return self.quiver.arrow(self.arrow_names[0]).target

    def __str__(self) -> str:
        return ".".join(self.arrow_names)


class Relation(Value):
    """A linear combination of (Fraction, Path) `terms` with common endpoints.
    :meth:`of` takes int, Fraction and rational-string coefficients, not floats."""

    __slots__ = _fields = ("terms",)

    @staticmethod
    def of(terms: Sequence) -> "Relation":
        """Validate the terms and merge like ones.

        Terms on the same path (the same arrow word) are summed into one,
        in first-occurrence order, and paths whose coefficients cancel are
        dropped; a relation with no term left is refused.
        """
        terms = [_sequence(term, "a relation term", 2) for term in _sequence(terms, "relation terms")]
        if not terms:
            raise QuivrepError("relation must have at least one term")
        for _, path in terms:
            if not isinstance(path, Path):
                raise QuivrepError(f"a relation term's path must be a Path, got {path!r}")
        same_quiver(terms[0][1].quiver, "relation path", *[path for _, path in terms])
        merged = {}  # arrow word -> (summed coefficient, first path)
        for coeff, path in terms:
            coeff = rational(coeff)
            if coeff == 0:
                raise QuivrepError("relation term with zero coefficient")
            if path.arrow_names in merged:
                total, path = merged[path.arrow_names]
                coeff += total
            merged[path.arrow_names] = (coeff, path)
        (_, first), *rest = merged.values()
        src, tgt = first.source, first.target
        for _, path in rest:
            if path.source != src or path.target != tgt:
                raise MixedEndpoints(
                    f"relation mixes endpoints: ({path.source},{path.target})"
                    f" vs ({src},{tgt})")
        kept = tuple(term for term in merged.values() if term[0])
        if not kept:
            raise QuivrepError("relation terms cancel to zero")
        return Relation(kept)

    @property
    def source(self) -> str:
        return self.terms[0][1].source

    @property
    def target(self) -> str:
        return self.terms[0][1].target

    @property
    def is_admissible(self) -> bool:
        return all(path.length >= 2 for _, path in self.terms)


class BoundQuiver(Value):
    """A quiver together with a finite set of relations on it."""

    __slots__ = _fields = ("quiver", "relations")

    @staticmethod
    def of(quiver: Quiver, relations: Sequence[Relation]) -> "BoundQuiver":
        rels = _sequence(relations, "relations")
        for rel in rels:
            if not isinstance(rel, Relation):
                raise QuivrepError(f"a relation must be a Relation, got {rel!r}")
        same_quiver(quiver, "relation path", *[path for rel in rels for _, path in rel.terms])
        return BoundQuiver(quiver, rels)

    @property
    def is_admissible(self) -> bool:
        return all(rel.is_admissible for rel in self.relations)

    @property
    def relation_ends(self) -> list:
        """(source index, target index) of each relation, by its first path."""
        ends, index = self.quiver.arrow_ends, self.quiver.arrow_index
        return [(ends[index[p[-1]]][0], ends[index[p[0]]][1])
                for p in [rel.terms[0][1].arrow_names for rel in self.relations]]


class DimVector(Value):
    """A nonnegative integer per vertex, stored in declaration order."""

    __slots__ = _fields = ("quiver", "entries")

    @staticmethod
    def of(quiver: Quiver, values) -> "DimVector":
        if isinstance(values, Mapping):
            entries = [0] * len(quiver.vertices)
            for v, x in values.items():
                entries[quiver.vertex_position(v)] = x
        else:
            entries = _sequence(values, "dimension vector")
            if len(entries) != len(quiver.vertices):
                raise QuivrepError("dimension vector length != number of vertices")
        return DimVector(quiver, tuple([count(x, "dimension vector entry", 0) for x in entries]))

    def __getitem__(self, vertex: str) -> int:
        return self.entries[self.quiver.vertex_position(vertex)]

    def __add__(self, other: "DimVector") -> "DimVector":
        same_quiver(self.quiver, "dimension vector", other)
        return DimVector(self.quiver, tuple(a + b for a, b in zip(self.entries, other.entries)))

    @property
    def total(self) -> int:
        return sum(self.entries)

    def glsum(self) -> int:
        """dim GL(d) = sum of squares of the entries."""
        return sum(map(mul, self.entries, self.entries))

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
    same_quiver(quiver, "dimension vector", d1, d2)
    x, y = d1.entries, d2.entries
    return (sum(map(mul, x, y)) - sum([x[s] * y[t] for s, t in quiver.arrow_ends])
            + sum([x[s] * y[t] for s, t in bq.relation_ends]))


def tits_form(d: DimVector, bq: BoundQuiver) -> int:
    """The quadratic form q(d) = <d, d>."""
    return euler_form(d, d, bq)


def expected_dim(d: DimVector, bq: BoundQuiver) -> int:
    """Naive dimension count for the module variety of d.

    Sum of arrow matrix sizes minus the sizes of the relation equations,
    which is dim GL(d) - q(d).
    """
    return d.glsum() - tits_form(d, bq)


# -- structural predicates and closures --------------------------------


def is_triangular(quiver: Quiver) -> bool:
    """True when the quiver has no oriented cycles (loops included).

    Computed once per quiver and kept in its ``__dict__``.
    """
    return quiver._triangular


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def quiver_facts(bq: BoundQuiver) -> tuple:
    """The five (name, value) facts every report gives about a bound quiver."""
    quiver = bq.quiver
    return (("vertices", len(quiver.vertices)), ("arrows", len(quiver.arrows)),
            ("relations", len(bq.relations)), ("admissible", yes_no(bq.is_admissible)),
            ("triangular", yes_no(is_triangular(quiver))))


def _reach(adjacency: Mapping, starts) -> set:
    """The starts plus every vertex reachable from them along `adjacency`."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def minimal_convex(quiver: Quiver, seed_vertices) -> tuple:
    """Smallest convex vertex set containing the seeds.

    Convex means closed under interiors of paths between members.  The
    hull is every vertex reachable from a seed that reaches a seed: each
    lies on a path between two seeds, and a vertex on a path between two
    members is again one, so one pass is convex and minimal.  Returns the
    vertices in declaration order.
    """
    # A set of seeds is taken as it is: the hull comes back in declaration order.
    seeds = (seed_vertices if isinstance(seed_vertices, (set, frozenset))
             else _sequence(seed_vertices, "seed vertices"))
    for v in seeds:
        quiver.vertex_position(v)
    forward = {v: [] for v in quiver.vertices}
    backward = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        forward[a.source].append(a.target)
        backward[a.target].append(a.source)
    hull = _reach(forward, seeds) & _reach(backward, seeds)
    return tuple(v for v in quiver.vertices if v in hull)


def classify_dimvector(d: DimVector, bq: BoundQuiver) -> str:
    """Indecomposable count prediction from connectedness and the Tits form.

    The prediction assumes the algebra is tame quasi-tilted; nothing here
    checks that, so the caller must know it (``quivrep euler`` prints the
    verdict only under ``--assume-tame-quasitilted``).
    The support is connected when its vertices are connected through
    arrows with both ends in it, in either direction; the empty support is
    not connected.
    Verdicts: "NoIndecomposable" (support disconnected or q not in {0,1}),
    "UniqueIndecomposable" (q = 1), "OneParameterFamilies" (q = 0).
    """
    quiver = bq.quiver
    q = tits_form(d, bq)  # first: euler_form refuses a DimVector of another quiver
    supported = [v for v, x in zip(quiver.vertices, d.entries) if x > 0]
    adj = {v: [] for v in supported}
    for a in quiver.arrows:
        if a.source in adj and a.target in adj:
            adj[a.source].append(a.target)
            adj[a.target].append(a.source)
    if not supported or len(_reach(adj, supported[:1])) < len(supported):
        return "NoIndecomposable"
    if q == 1:
        return "UniqueIndecomposable"
    if q == 0:
        return "OneParameterFamilies"
    return "NoIndecomposable"
