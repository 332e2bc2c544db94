"""Exact linear algebra over the rationals.

All computations in this package reduce to ranks and kernels of small
matrices with `fractions.Fraction` entries.  One elimination core,
`_echelon`, serves them all.  It scales each row to integers by the lcm
of its denominators and eliminates with exact Python ints, in
fraction-free row operations; each new row is divided by the gcd of its
entries, which this core uses in place of Bareiss's exact division by
the previous pivot.  `rank` stops after forward elimination and builds no
Fraction; `rref` divides only the final pivot rows back into Fractions.
The reduced row echelon form is unique, so this gives exactly the values
of a Fraction Gauss-Jordan elimination, without its per-entry gcds.
Matrices are immutable; zero-by-n and n-by-zero shapes are first-class
citizens because representations routinely carry them at unsupported
vertices.

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

from ._value import Value, _set
from .errors import ShapeMismatch

Q = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class MatrixQ(Value):
    """An immutable rows x cols matrix over the rationals."""

    __slots__ = _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):
        # data: tuple of row tuples, each entry a Fraction
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "MatrixQ":
        table = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        nrows = len(table)
        ncols = len(table[0]) if table else 0
        if any(len(row) != ncols for row in table):
            raise ShapeMismatch("ragged rows in matrix literal")
        return MatrixQ(nrows, ncols, table)

    @staticmethod
    def zeros(rows: int, cols: int) -> "MatrixQ":
        zero = Fraction(0)
        return MatrixQ(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "MatrixQ":
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

    def row(self, i: int) -> tuple:
        return self.data[i]

    def entries(self) -> Iterable[Fraction]:
        for row in self.data:
            yield from row

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if self.shape != other.shape:
            raise ShapeMismatch(f"add: {self.shape} vs {other.shape}")
        return MatrixQ(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        if self.shape != other.shape:
            raise ShapeMismatch(f"sub: {self.shape} vs {other.shape}")
        return MatrixQ(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def __neg__(self) -> "MatrixQ":
        return MatrixQ(self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.data))

    def scale(self, c) -> "MatrixQ":
        c = _as_fraction(c)
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


def block_matrix(grid: Sequence[Sequence[MatrixQ]]) -> MatrixQ:
    return vstack([hstack(row) for row in grid])


def kron(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Kronecker product.

    With row-major vectorisation, vec(A X B) = kron(A, B^T) vec(X); this is
    how all intertwiner and cocycle systems are assembled.
    """
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


def _echelon(rows: list, ncols: int, reduce: bool) -> list:
    """Fraction-free elimination of integer rows in place; returns the pivot columns.

    Row r ends with its pivot in column pivots[r].  Each step clears the
    pivot column from the rows below it, and with `reduce` also from the
    rows above it (Gauss-Jordan, for `rref`).  To clear entry a against
    pivot p, a row becomes row - (a/p)*pivot_row when p divides a, and
    otherwise (p/g)*row - (a/g)*pivot_row with g = gcd(p, a), divided by
    the gcd of its entries.  The pivot of least magnitude is taken: in the
    0/+-1 systems of the family grids it is almost always +-1.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
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
        p = pivot_row[c]
        for i in range(0 if reduce else r + 1, nrows):
            row = rows[i]
            a = row[c]
            if not a or i == r:
                continue
            if a % p == 0:
                f = a // p
                rows[i] = [x - f * y for x, y in zip(row, pivot_row)]
                continue
            g = gcd(a, p)
            s, f = p // g, a // g
            row = [s * x - f * y for x, y in zip(row, pivot_row)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


_ZERO = Fraction(0)


def rref(m: MatrixQ):
    """Reduced row echelon form together with the pivot column list.

    The elimination runs on integers; only the final pivot rows, divided by
    their pivots, become Fractions.
    """
    rows = _integer_rows(m.data)
    pivots = _echelon(rows, m.cols, reduce=True)
    out = [tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
           for row, c in zip(rows, pivots)]
    out.extend([(_ZERO,) * m.cols] * (m.rows - len(pivots)))
    return MatrixQ(m.rows, m.cols, tuple(out)), pivots


def rank(m: MatrixQ) -> int:
    """Number of pivots after forward elimination on integers."""
    return len(_echelon(_integer_rows(m.data), m.cols, reduce=False))


def kernel_basis(m: MatrixQ):
    """Basis of the right null space {v : m v = 0}, as row vectors.

    One basis vector per free column, with a 1 in the free position; this
    makes the basis canonical for a fixed input matrix.
    """
    reduced, pivots = rref(m)
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


def image_basis(m: MatrixQ):
    """Basis of the column space, as row vectors of length m.rows."""
    reduced, _ = rref(m.transpose())
    out = []
    for row in reduced.data:
        if any(x for x in row):
            out.append(tuple(row))
    return out


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


def solve_right(m: MatrixQ, rhs: Sequence[Fraction]):
    """One solution x of m x = rhs, or None if inconsistent."""
    aug = MatrixQ(m.rows, m.cols + 1, tuple(
        row + (_as_fraction(b),) for row, b in zip(m.data, rhs)))
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.data[r][m.cols]
    return tuple(x)


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
    if bound < 1:
        raise ValueError("entry bound must be at least 1")
    return MatrixQ(rows, cols, tuple(
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(cols)) for _ in range(rows)))


def random_invertible(n: int, rng: random.Random, bound: int = 3) -> MatrixQ:
    """A random invertible n x n integer matrix (retry sampling)."""
    if n == 0:
        return MatrixQ.zeros(0, 0)
    while True:
        m = random_matrix(n, n, rng, bound)
        if rank(m) == n:
            return m
