"""Line-oriented text formats for quivers and representations.

Quiver files::

    # comment
    vertex a
    arrow alpha1 valpha1 a
    rel 1*alpha1.alpha2 - 1*beta1.beta2 + 1*gamma1.gamma2

Representation files (against a known quiver)::

    dim a 1
    mat alpha1 1 1 : 2/3

Rules: ``#`` starts a comment anywhere on a line; blank lines are ignored;
declaration order of vertices, arrows and relations is the canonical
order.  Serialisation emits the sections in the fixed order vertex, arrow,
rel (entries in declaration order) and normalises every coefficient to a
reduced fraction with positive denominator, so serialising is idempotent
across a parse round trip.  Matrix entries are row-major rationals; a
matrix with zero rows or columns has an empty entry list.  Vertices and
arrows missing from a representation file get dimension zero and zero
matrices.  An unknown name is a ParseError carrying the text of the
quiver's name lookup.  The serialisers refuse a name that would not read
back: one that is not a str, an empty one, one holding whitespace or
``#``, and in a relation an arrow name holding ``.``.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import rational
from .errors import NonComposable, ParseError, QuivrepError
from .quiver import BoundQuiver, DimVector, Quiver, Relation


def _text(text: str) -> str:
    """`text` itself; QuivrepError for anything that is not a str."""
    if not isinstance(text, str):
        raise QuivrepError(f"the text to parse must be a str, got {type(text).__name__}")
    return text


def _content_lines(text: str):
    for lineno, raw in enumerate(_text(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _at(lineno: int, lookup, name: str):
    """lookup(name), a quiver's name lookup, with its QuivrepError re-raised
    as a ParseError at `lineno`."""
    try:
        return lookup(name)
    except QuivrepError as exc:
        raise ParseError(lineno, str(exc)) from None


def _fraction(token: str, lineno: int) -> Fraction:
    try:
        return rational(token)
    except QuivrepError:
        raise ParseError(lineno, f"bad rational {token!r}") from None


# -- quiver files --------------------------------------------------------


def parse_quiver(text: str) -> BoundQuiver:
    vertices = []
    arrows = []
    rel_lines = []
    seen_vertices = set()
    seen_arrows = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, "vertex line needs exactly one name")
            name = tokens[1]
            if name in seen_vertices:
                raise ParseError(lineno, f"duplicate vertex {name!r}")
            seen_vertices.add(name)
            vertices.append(name)
        elif kind == "arrow":
            if len(tokens) != 4:
                raise ParseError(lineno, "arrow line needs name, source, target")
            name, src, tgt = tokens[1:]
            if name in seen_arrows:
                raise ParseError(lineno, f"duplicate arrow {name!r}")
            if src not in seen_vertices:
                raise ParseError(lineno, f"arrow source {src!r} not a declared vertex")
            if tgt not in seen_vertices:
                raise ParseError(lineno, f"arrow target {tgt!r} not a declared vertex")
            seen_arrows.add(name)
            arrows.append((name, src, tgt))
        elif kind == "rel":
            rel_lines.append((lineno, tokens[1:]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    quiver = Quiver.build(vertices, arrows)
    relations = [_parse_relation(quiver, lineno, tokens) for lineno, tokens in rel_lines]
    return BoundQuiver.of(quiver, relations)


def _parse_relation(quiver: Quiver, lineno: int, tokens) -> Relation:
    if not tokens:
        raise ParseError(lineno, "empty relation")
    terms = []
    sign = Fraction(1)
    expect_term = True
    for token in tokens:
        if token in ("+", "-"):
            if expect_term:
                raise ParseError(lineno, "two consecutive signs in relation")
            sign = Fraction(1) if token == "+" else Fraction(-1)
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(lineno, f"missing '+' or '-' before {token!r}")
        if "*" in token:
            coeff_text, _, path_text = token.partition("*")
            coeff = _fraction(coeff_text, lineno)
        else:
            coeff, path_text = Fraction(1), token
        names = path_text.split(".")
        if not all(names):
            raise ParseError(lineno, f"malformed path {path_text!r}")
        try:
            path = quiver.path(names)
        except NonComposable as exc:
            raise ParseError(lineno, f"non-composable path: {exc}") from None
        except QuivrepError as exc:
            raise ParseError(lineno, f"{exc} in relation") from None
        if coeff == 0:
            raise ParseError(lineno, "zero coefficient in relation")
        terms.append((sign * coeff, path))
        sign = Fraction(1)
        expect_term = False
    if expect_term:
        raise ParseError(lineno, "relation ends with a dangling sign")
    try:
        return Relation.of(terms)
    except QuivrepError as exc:
        raise ParseError(lineno, str(exc)) from None


def _token(name: str, what: str) -> str:
    """`name` if it reads back as one whole token, else QuivrepError."""
    if not isinstance(name, str) or not name or "#" in name or any(c.isspace() for c in name):
        raise QuivrepError(f"cannot write {what} name {name!r}: "
                           "it is not a str, is empty or holds whitespace or '#'")
    return name


def serialize_quiver(bq: BoundQuiver) -> str:
    lines = []
    for v in bq.quiver.vertices:
        lines.append(f"vertex {_token(v, 'vertex')}")
    for a in bq.quiver.arrows:
        lines.append(f"arrow {_token(a.name, 'arrow')} {a.source} {a.target}")
    for rel in bq.relations:
        parts = []
        for i, (coeff, path) in enumerate(rel.terms):
            for name in path.arrow_names:
                if "." in name:
                    raise QuivrepError(
                        f"cannot write relation path through arrow {name!r}: "
                        "'.' separates the arrows of a path")
            body = f"{abs(coeff)}*" + ".".join(path.arrow_names)
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        lines.append("rel " + " ".join(parts))
    return "\n".join(lines) + "\n"


# -- representation files -------------------------------------------------


def parse_rep(text: str, quiver: Quiver):
    """A :class:`~quivrep.rep.Representation` of `quiver` read from `text`.

    ``rep`` and ``linalg`` are imported here, on the first call, so that a
    process that reads only quivers and dimension vectors never loads them.
    """
    from .linalg import MatrixQ
    from .rep import make_rep

    dims = {}
    mats = {}
    mat_lines = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "dim":
            if len(tokens) != 3:
                raise ParseError(lineno, "dim line needs vertex and value")
            vertex, value = tokens[1], tokens[2]
            _at(lineno, quiver.vertex_position, vertex)
            if vertex in dims:
                raise ParseError(lineno, f"duplicate dim for vertex {vertex!r}")
            try:
                dims[vertex] = int(value)
            except ValueError:
                raise ParseError(lineno, f"bad integer {value!r}") from None
            if dims[vertex] < 0:
                raise ParseError(lineno, "dimensions must be nonnegative")
        elif kind == "mat":
            mat_lines.append((lineno, tokens[1:]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    for lineno, tokens in mat_lines:
        if len(tokens) < 4 or tokens[3] != ":":
            raise ParseError(lineno, "mat line needs: name rows cols : entries")
        name, rows_text, cols_text = tokens[0], tokens[1], tokens[2]
        arrow = _at(lineno, quiver.arrow, name)
        if name in mats:
            raise ParseError(lineno, f"duplicate matrix for arrow {name!r}")
        try:
            nrows, ncols = int(rows_text), int(cols_text)
        except ValueError:
            raise ParseError(lineno, "matrix shape must be two integers") from None
        want = (dims.get(arrow.target, 0), dims.get(arrow.source, 0))
        if (nrows, ncols) != want:
            raise ParseError(
                lineno, f"arrow {name!r}: declared shape {(nrows, ncols)}, "
                f"dimensions require {want}")
        entries = [_fraction(tok, lineno) for tok in tokens[4:]]
        if len(entries) != nrows * ncols:
            raise ParseError(
                lineno, f"arrow {name!r}: expected {nrows * ncols} entries, "
                f"got {len(entries)}")
        data = tuple(tuple(entries[i * ncols:(i + 1) * ncols]) for i in range(nrows))
        mats[name] = MatrixQ(nrows, ncols, data)
    return make_rep(quiver, dims, mats)


def serialize_rep(m) -> str:
    """The text of representation `m`, in the form `parse_rep` reads."""
    lines = []
    for v in m.quiver.vertices:
        lines.append(f"dim {_token(v, 'vertex')} {m.dim[v]}")
    for arrow, mat in zip(m.quiver.arrows, m.matrices):
        entries = " ".join(str(x) for x in mat.entries())
        head = f"mat {_token(arrow.name, 'arrow')} {mat.rows} {mat.cols} :"
        lines.append(f"{head} {entries}" if entries else head)
    return "\n".join(lines) + "\n"


# -- command-line dimension vectors ---------------------------------------


def parse_dimvec(text: str, quiver: Quiver) -> DimVector:
    """Parse ``vertex=value`` comma lists; omitted vertices get zero."""
    values = {}
    for chunk in _text(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, value = chunk.partition("=")
        if not eq:
            raise ParseError(1, f"expected vertex=value, got {chunk!r}")
        name = name.strip()
        if name in values:
            raise ParseError(1, f"duplicate vertex {name!r}")
        try:
            values[name] = int(value.strip())
        except ValueError:
            raise ParseError(1, f"bad integer {value!r}") from None
    try:
        return DimVector.of(quiver, values)
    except QuivrepError as exc:
        raise ParseError(1, str(exc)) from None
