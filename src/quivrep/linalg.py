"""Exact linear algebra over the rationals.

All computations in this package reduce to ranks and kernels of small
rational matrices.  A `MatrixQ` holds `fractions.Fraction` entries; a
`MatrixZ` holds the same kind of matrix as integer rows, each with the
positive scale it was multiplied by, as the systems of
:mod:`quivrep.homology` are written.  One elimination core serves them
all, on exact Python ints.  Its one way in, `_rows`, takes a `MatrixZ`
row as it is and scales a `MatrixQ` row by the lcm of its denominators;
scaling a row changes neither the kernel nor the reduced row echelon
form, so `rank`, `rref` and `kernel_basis` take either type.  Its one
row step, `_clear`, is fraction-free and divides each new row by the gcd
of its entries, in place of Bareiss's exact division by the previous
pivot.  `rank` stops after forward elimination and builds no Fraction;
`rref` divides only the final pivot rows back into Fractions, which
gives exactly the unique RREF of a Fraction Gauss-Jordan elimination.
`rank` takes the short side: a system with more nonzero rows than
columns is eliminated as its transpose (rank A = rank A^T).
`image_basis` takes either type too, bringing a `MatrixZ`'s rows to one
scale first, as scaling single rows changes the column space.
`EchelonBasis` keeps a growing span as integer rows and tests
membership by reducing a vector with `_clear`.
:func:`capped` is the one gate of the work cap, :data:`MAX_CELLS`: the
system writers, :func:`kernel_basis`, ``rep.make_rep`` and
``family.FamilyParams`` ask it before they build anything.  Matrices are
immutable; zero-by-n and n-by-zero shapes are first-class citizens
because representations routinely carry them at unsupported vertices.

Randomness: every random draw goes through :func:`seeded_rng`, which seeds
the standard Mersenne Twister (`random.Random`) with the SHA-512 digest of
a label string.  Both the seeding scheme and the generator are documented
and stable across platforms and Python versions, which keeps reports
byte-reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from ._value import Value, _set, count, rational
from .errors import QuivrepError, ShapeMismatch

# The most cells of a system, or entries of a basis or of arrow matrices,
# that a caller of `capped` may build.  Eliminating a system this size in
# pure Python already takes hours; no option lifts it.
MAX_CELLS = 10**7


def capped(cells: int, text: str, *args) -> None:
    """The one gate of the work cap: QuivrepError "<text>, more than the cap
    of MAX_CELLS" if `cells` exceeds it; `text` is formatted only then."""
    if cells > MAX_CELLS:
        raise QuivrepError(text.format(*args) + f", more than the cap of {MAX_CELLS}")


class MatrixQ(Value):
    """An immutable rows x cols matrix over the rationals."""

    __slots__ = _fields = ("rows", "cols", "data")

    # Written out, not inherited: one (2,2,2,2,2) grid pass builds 44,635 matrices.
    def __init__(self, rows: int, cols: int, data: tuple):
        # data: tuple of row tuples, each entry a Fraction
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "MatrixQ":
        """A matrix literal: a list or tuple of rows, each a list or tuple.

        A string is refused as a literal or a row, not split into characters;
        a string entry is read as a rational.
        """
        if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in rows):
            raise QuivrepError("matrix literal must be a list or tuple of list or tuple rows")
        table = tuple(tuple(rational(x) for x in row) for row in rows)
        nrows = len(table)
        ncols = len(table[0]) if table else 0
        if any(len(row) != ncols for row in table):
            raise ShapeMismatch("ragged rows in matrix literal")
        return MatrixQ(nrows, ncols, table)

    @staticmethod
    def zeros(rows: int, cols: int) -> "MatrixQ":
        rows, cols = count(rows, "row count", 0), count(cols, "column count", 0)
        zero = Fraction(0)
        return MatrixQ(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "MatrixQ":
        n = count(n, "matrix size", 0)
        return MatrixQ(n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    # -- basic queries -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def entries(self) -> Iterable[Fraction]:
        for row in self.data:
            yield from row

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if self.shape != other.shape:
            raise ShapeMismatch(f"add: {self.shape} vs {other.shape}")
        return MatrixQ(self.rows, self.cols, tuple(
            tuple(a + b if a and b else a or b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        if self.shape != other.shape:
            raise ShapeMismatch(f"sub: {self.shape} vs {other.shape}")
        return MatrixQ(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def scale(self, c) -> "MatrixQ":
        c = rational(c)
        return MatrixQ(self.rows, self.cols, tuple(tuple(c * a for a in row) for row in self.data))

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul: {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            ra = self.data[i]
            out_row = []
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    a = ra[k]
                    if a:
                        acc += a * other.data[k][j]
                out_row.append(acc)
            out.append(tuple(out_row))
        return MatrixQ(self.rows, other.cols, tuple(out))

    def transpose(self) -> "MatrixQ":
        return MatrixQ(self.cols, self.rows, tuple(
            tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))


_ZERO = Fraction(0)


class MatrixZ(Value):
    """A rows x cols rational matrix as integer rows: row i is data[i] / scales[i].

    `data` is a tuple of int row tuples and every scale is a positive int.
    Scaling a row changes neither the kernel nor the RREF, so the
    elimination core takes the integer rows as they are.
    """

    __slots__ = _fields = ("rows", "cols", "data", "scales")

    def __init__(self, rows: int, cols: int, data: tuple, scales: tuple):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)
        _set(self, "scales", scales)

    def to_q(self) -> MatrixQ:
        """The same matrix with Fraction entries."""
        return MatrixQ(self.rows, self.cols, tuple(
            tuple(Fraction(x, s) if x else _ZERO for x in row)
            for row, s in zip(self.data, self.scales)))


def unflatten(coords: Sequence, shapes: Iterable[tuple]) -> list:
    """Row-major flat coordinates as one MatrixQ per (rows, cols) shape, in
    order; ShapeMismatch unless the shapes take up all of `coords`."""
    mats = []
    pos = 0
    for r, c in shapes:
        rows = []
        for _ in range(r):
            rows.append(tuple(coords[pos:pos + c]))
            pos += c
        mats.append(MatrixQ(r, c, tuple(rows)))
    if pos != len(coords):
        raise ShapeMismatch("flat coordinate vector has wrong length")
    return mats


def hstack(blocks: Sequence[MatrixQ]) -> MatrixQ:
    blocks = list(blocks)
    if not blocks:
        return MatrixQ.zeros(0, 0)
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ShapeMismatch("hstack: row counts differ")
    data = tuple(tuple(x for b in blocks for x in b.data[i]) for i in range(rows))
    return MatrixQ(rows, sum(b.cols for b in blocks), data)


def vstack(blocks: Sequence[MatrixQ]) -> MatrixQ:
    blocks = list(blocks)
    if not blocks:
        return MatrixQ.zeros(0, 0)
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ShapeMismatch("vstack: column counts differ")
    data = tuple(row for b in blocks for row in b.data)
    return MatrixQ(sum(b.rows for b in blocks), cols, data)


def kron(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Kronecker product: vec(A X B) = kron(A, B^T) vec(X), row-major.  The
    systems of :mod:`quivrep.homology` write this entry by entry instead."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    data = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a.data[i][j]
                if aij:
                    row.extend(aij * x for x in b.data[k])
                else:
                    row.extend(Fraction(0) for _ in range(b.cols))
            data.append(tuple(row))
    return MatrixQ(rows, cols, tuple(data))


# -- echelon form and derived quantities -------------------------------


def _integer_rows(data) -> list:
    """The nonzero rows of `data`, each scaled by the lcm of its denominators.

    Scaling a row by a nonzero constant changes neither the row space nor
    the reduced row echelon form, so elimination can run on Python ints.
    """
    rows = []
    for row in data:
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row] if den != 1 \
            else [x.numerator for x in row]
        if any(ints):
            rows.append(ints)
    return rows


def _rows(m: MatrixQ | MatrixZ) -> list:
    """The nonzero rows of m as integers: a MatrixZ's as written, a
    MatrixQ's scaled by :func:`_integer_rows`."""
    if isinstance(m, MatrixZ):
        return [row for row in m.data if any(row)]
    return _integer_rows(m.data)


def _clear(row: list, pivot_row: list, c: int) -> list:
    """The one row step: clear the nonzero a = row[c] against p = pivot_row[c].

    The row becomes row - (a/p)*pivot_row when p divides a, and otherwise
    (p/g)*row - (a/g)*pivot_row with g = gcd(p, a), divided by the gcd of
    its entries.
    """
    a, p = row[c], pivot_row[c]
    if a % p == 0:
        f = a // p
        return [x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(a, p)
    s, f = p // g, a // g
    row = [s * x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(rows: list, ncols: int, reduce: bool) -> list:
    """Fraction-free elimination of integer rows in place; returns the pivot columns.

    Row r ends with its pivot in column pivots[r].  Each step clears the
    pivot column, with :func:`_clear`, from the rows below it, and with
    `reduce` also from the rows above it (Gauss-Jordan, for `rref`).  The
    pivot of least magnitude is taken: in the 0/+-1 systems of the family
    grids it is almost always +-1.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best, size = -1, 0
        for i in range(r, nrows):
            a = rows[i][c]
            if a and (best < 0 or abs(a) < size):
                best, size = i, abs(a)
                if size == 1:
                    break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pivot_row = rows[r]
        for i in range(0 if reduce else r + 1, nrows):
            if rows[i][c] and i != r:
                rows[i] = _clear(rows[i], pivot_row, c)
        pivots.append(c)
        r += 1
    return pivots


class EchelonBasis:
    """A growing span, kept as independent integer rows with one pivot each.

    Row k is nonzero at column pivots[k] and zero at the pivot columns of
    the rows kept before it.  :meth:`reduce` clears the pivot columns of a
    vector in the order the rows were kept, with :func:`_clear`;
    clearing column pivots[k] leaves the earlier pivot columns clear,
    since row k is zero there.  A nonzero combination of the rows is
    nonzero at the pivot of its first row with a nonzero coefficient, as
    the later rows vanish there, so the reduced row is zero exactly when
    the vector lies in the span.  The number of rows is the dimension.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots = []
        self.rows = []

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Fraction]) -> list | None:
        """v reduced against the basis as an integer row; None when v is in the span."""
        scaled = _integer_rows((v,))
        if not scaled:
            return None
        row = scaled[0]
        for c, pivot_row in zip(self.pivots, self.rows):
            if row[c]:
                row = _clear(row, pivot_row, c)
        return row if any(row) else None

    def add(self, row: list) -> None:
        """Keep a row that :meth:`reduce` returned, divided by the gcd of its entries."""
        g = gcd(*row)
        self.pivots.append(next(c for c, x in enumerate(row) if x))
        self.rows.append([x // g for x in row] if g > 1 else row)


def rref(m: MatrixQ | MatrixZ):
    """Reduced row echelon form together with the pivot column list.

    The elimination runs on integers; only the final pivot rows, divided by
    their pivots, become Fractions.  Scaling a row changes no RREF, so a
    MatrixZ is eliminated as written.
    """
    rows = _rows(m)
    pivots = _echelon(rows, m.cols, reduce=True)
    out = [tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
           for row, c in zip(rows, pivots)]
    if m.rows > len(pivots):  # one zero row, shared; a system without rows builds none
        out.extend([(_ZERO,) * m.cols] * (m.rows - len(pivots)))
    return MatrixQ(m.rows, m.cols, tuple(out)), pivots


def rank(m: MatrixQ | MatrixZ) -> int:
    """Number of pivots after forward elimination on integers, along the
    short side: with more nonzero rows than columns, of the nonzero columns."""
    rows = _rows(m)
    if len(rows) > m.cols:
        cols = [col for col in zip(*rows) if any(col)]
        return len(_echelon(cols, len(rows), reduce=False))
    return len(_echelon(rows, m.cols, reduce=False))


def kernel_basis(m: MatrixQ | MatrixZ):
    """Basis of the right null space {v : m v = 0}, as row vectors.

    One basis vector per free column, with a 1 in the free position; this
    makes the basis canonical for a fixed input matrix.  A basis beyond
    the work cap is refused by :func:`capped` before it is built.
    """
    reduced, pivots = rref(m)
    nullity = m.cols - len(pivots)
    capped(nullity * m.cols, "the kernel basis would have {} x {} entries", nullity, m.cols)
    pivot_set = dict.fromkeys(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.data[r][fc]
        basis.append(tuple(v))
    return basis


def image_basis(m: MatrixQ | MatrixZ):
    """Basis of the column space, as row vectors of length m.rows.  The
    transpose is a zip of the rows, so a matrix without rows has none.
    A MatrixZ's rows are first brought to the scale L = lcm(scales), row i
    to data[i] * (L // scales[i]): scaling the whole matrix changes no RREF.
    """
    if isinstance(m, MatrixZ):
        top = lcm(*m.scales)
        cols = tuple(zip(*[row if s == top else [x * (top // s) for x in row]
                           for row, s in zip(m.data, m.scales)]))
        reduced, _ = rref(MatrixZ(len(cols), m.rows, cols, (top,) * len(cols)))
    else:
        cols = tuple(zip(*m.data))
        reduced, _ = rref(MatrixQ(len(cols), m.rows, cols))
    return [row for row in reduced.data if any(row)]


def in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    """Whether v lies in the linear span of the given row vectors."""
    if all(x == 0 for x in v):
        return True
    if not vectors:
        return False
    base = MatrixQ.from_rows(vectors)
    extended = MatrixQ.from_rows(list(vectors) + [list(v)])
    return rank(base) == rank(extended)


def independent_subset(vectors):
    """Greedily keep vectors that strictly grow the span; returns the kept list."""
    kept = []
    current_rank = 0
    for v in vectors:
        candidate = kept + [list(v)]
        r = rank(MatrixQ.from_rows(candidate))
        if r > current_rank:
            kept.append(list(v))
            current_rank = r
    return [tuple(v) for v in kept]


def inverse(m: MatrixQ) -> MatrixQ:
    if m.rows != m.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = hstack([m, MatrixQ.identity(n)])
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ShapeMismatch("matrix is singular")
    return MatrixQ(n, n, tuple(row[n:] for row in reduced.data))


def is_invertible(m: MatrixQ) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


# -- deterministic randomness -----------------------------------------


def seeded_rng(*label) -> random.Random:
    """A Mersenne Twister generator seeded from the string form of `label`.

    `random.Random` seeded with a str hashes it through SHA-512
    independently of PYTHONHASHSEED, so identical labels give identical
    streams on every platform.
    """
    return random.Random(":".join(str(part) for part in label))


def random_matrix(rows: int, cols: int, rng: random.Random, bound: int = 3) -> MatrixQ:
    """Uniform integer entries in [-bound, bound], as exact rationals."""
    rows, cols = count(rows, "row count", 0), count(cols, "column count", 0)
    bound = count(bound, "entry bound", 1)
    return MatrixQ(rows, cols, tuple(
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(cols)) for _ in range(rows)))


def random_invertible(n: int, rng: random.Random, bound: int = 3) -> MatrixQ:
    """A random invertible n x n integer matrix (retry sampling)."""
    while True:
        m = random_matrix(n, n, rng, bound)
        if rank(m) == n:
            return m
