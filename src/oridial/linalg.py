"""Exact linear algebra over the rationals, dense or sparse.

Everything here is exact: entries are Python ints or ``fractions.Fraction``
values, never floats.  A matrix argument is a dense ``Matrix`` or a sparse
map, that is any object with ``rows``, ``cols`` and an ``entries`` dict
from (row, col) to a scalar, such as ``cohomology.SparseMap``.

There is one elimination, and it is sparse.  It keeps the nonzero rows as
integer dicts {column: value}; each vector is scaled to integers once.
Rows are inserted sparsest first.  A pivot row removes its leading column
from another row by a gcd-scaled integer combination, and every new row is
divided by its content.  Only the surviving pivot rows are back-substituted
and divided by their pivots, which gives the reduced row echelon form.
That form is unique, so ranks, pivot columns, nullspace bases and
preimages do not depend on the order of elimination and are reproducible
bit for bit across runs and platforms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


def kernel_backend() -> str:
    """Name of the row-reduction kernel; there is only the sparse one."""
    return "sparse"


class ShapeMismatchError(ValueError):
    """Operand dimensions do not line up."""


class NonComplexError(ValueError):
    """A pair of maps expected to compose to zero does not."""


def normalize_scalar(x):
    """Canonical exact scalar: ints stay ints, integral fractions collapse."""
    if type(x) is int:  # the common case, without Fraction's ABC instance check
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(value) -> Fraction:
    """Read a rational from an int or a "p/q" / "p" string.

    A string is an optional minus sign and digits, optionally followed by
    "/" and a positive denominator; nothing else (no spaces, exponents,
    decimal points, underscores or plus signs).
    """
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return Fraction(value)
    raise ValueError(f"malformed rational {value!r}")


def format_rational(x) -> str:
    """Canonical string form: "p" when the denominator is 1, else "p/q"."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Matrix:
    """A dense rows x cols matrix with exact rational entries (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [normalize_scalar(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data) -> "Matrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ShapeMismatchError("ragged rows")
        return cls(nrows, ncols, [x for r in rows_data for x in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def matvec(self, v: list) -> list:
        if len(v) != self.cols:
            raise ShapeMismatchError(f"vector of length {self.cols} expected, got {len(v)}")
        nonzero = [(j, x) for j, x in enumerate(v) if x]
        e, out = self.entries, []
        for i in range(self.rows):
            base, acc = i * self.cols, None
            for j, x in nonzero:
                a = e[base + j]
                if a:
                    # a Fraction operand on the left, as in dialgebra.bilinear
                    if x != 1:
                        a = a * x if type(a) is Fraction else x * a
                    if acc is not None:
                        a = acc + a if type(acc) is Fraction else a + acc
                    acc = a
            out.append(0 if acc is None else normalize_scalar(acc))
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply {self.shape()} by {other.shape()}")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    obase = k * other.cols
                    rbase = i * other.cols
                    for j in range(other.cols):
                        b = other.entries[obase + j]
                        if b:
                            out[rbase + j] += a * b
        return Matrix(self.rows, other.cols, out)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape() == other.shape()
            and all(Fraction(a) == Fraction(b) for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(Fraction, self.entries))))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _row_dicts(m, transpose: bool = False) -> list[dict]:
    """Every row (or column) of a dense or sparse matrix as a {index: value} dict."""
    if isinstance(m, Matrix):
        if transpose:
            m = m.transpose()
        c, e = m.cols, m.entries
        return [{j: x for j, x in enumerate(e[i * c:(i + 1) * c]) if x} for i in range(m.rows)]
    out = [{} for _ in range(m.cols if transpose else m.rows)]
    for (i, j), x in m.entries.items():
        if x:
            if transpose:
                out[j][i] = x
            else:
                out[i][j] = x
    return out


def _integral(row: dict) -> dict:
    """The row scaled by the least common multiple of its denominators."""
    denom = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (denom // x.denominator) for j, x in row.items()}


def _eliminate(row: dict, piv: dict, c: int) -> None:
    """Clear column c of ``row`` in place by a gcd-scaled multiple of ``piv``."""
    p, a = piv[c], row[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, x in piv.items():
        v = row.get(j, 0) - a * x
        if v:
            row[j] = v
        else:
            del row[j]
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _insert(row: dict, echelon: dict) -> bool:
    """Reduce an integer row by the echelon rows and keep what is left of it.

    ``echelon`` maps each pivot column to the row that leads there.  The
    row is reduced until its leading column has no pivot yet; it then
    becomes that column's pivot row, with a positive pivot.  Returns
    False when the row reduces to zero.
    """
    while row:
        c = min(row)
        piv = echelon.get(c)
        if piv is None:
            if row[c] < 0:
                for j in row:
                    row[j] = -row[j]
            echelon[c] = row
            return True
        _eliminate(row, piv, c)
    return False


def _echelon(rows) -> dict:
    """Integer row echelon form of the given rows, inserted sparsest first."""
    echelon = {}
    for row in sorted((_integral(r) for r in rows if r), key=len):
        _insert(row, echelon)
    return echelon


def _reduced(echelon: dict) -> list[tuple[int, dict]]:
    """Back-substitute echelon rows into (pivot column, RREF row) pairs.

    Pivot rows are cleared from the right: a row never gains a pivot
    column from a row below it that is already reduced.
    """
    pivots = sorted(echelon)
    for c in reversed(pivots):
        row = echelon[c]
        for j in [j for j in row if j != c and j in echelon]:
            _eliminate(row, echelon[j], j)
    out = []
    for c in pivots:
        row, p = echelon[c], echelon[c][c]
        if p != 1:
            row = {j: normalize_scalar(Fraction(x, p)) for j, x in row.items()}
        out.append((c, row))
    return out


def rank(m) -> int:
    """Rank over the rationals."""
    return len(_echelon(_row_dicts(m)))


def rref(m) -> tuple[list[int], list[list]]:
    """Reduced row echelon form over the rationals.

    Returns (pivot columns, nonzero rows), the rows as dense lists.
    """
    pivots, rows = [], []
    for c, row in _reduced(_echelon(_row_dicts(m))):
        dense = [0] * m.cols
        for j, x in row.items():
            dense[j] = x
        pivots.append(c)
        rows.append(dense)
    return pivots, rows


def nullspace(m) -> list[list]:
    """Canonical basis of the kernel of m.

    One basis vector per free column f, with entry 1 at f, the negated
    reduced-echelon column above the pivots, and 0 at the other free
    columns.  Size is always cols - rank.
    """
    pivots, reduced = rref(m)
    pivot_set = set(pivots)
    basis = {}
    for f in range(m.cols):
        if f not in pivot_set:
            basis[f] = [0] * m.cols
            basis[f][f] = 1
    for pc, row in zip(pivots, reduced):
        for f, x in enumerate(row):
            if x and f != pc:
                basis[f][pc] = -x
    return list(basis.values())


def in_image(m, v: list):
    """A preimage u with m*u = v, or None when v is not in the column space."""
    if len(v) != m.rows:
        raise ShapeMismatchError(f"vector of length {m.rows} expected, got {len(v)}")
    rows = _row_dicts(m)
    for row, x in zip(rows, v):
        if x:
            row[m.cols] = x
    echelon = _echelon(rows)
    if m.cols in echelon:
        return None
    u = [0] * m.cols
    for pc, row in _reduced(echelon):
        u[pc] = row.get(m.cols, 0)
    return u


def column_space_complement(image, candidates: list[list]) -> list[int]:
    """Indices of candidate vectors that extend the column space of ``image``.

    Candidates are scanned in order; an index is kept when its vector is
    not in the span of the columns of ``image`` and the candidates kept
    before it.  Deterministic, used to pick cohomology representatives.
    """
    echelon = _echelon(_row_dicts(image, transpose=True))
    return [i for i, vec in enumerate(candidates)
            if _insert(_integral({j: x for j, x in enumerate(vec) if x}), echelon)]


def cohomology_dim(d_out: Matrix, d_in: Matrix) -> int:
    """dim ker(d_out) - rank(d_in) for a composable pair with d_out∘d_in = 0."""
    if d_out.cols != d_in.rows:
        raise ShapeMismatchError(
            f"middle space mismatch: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows"
        )
    if not d_out.mul(d_in).is_zero():
        raise NonComplexError("d_out . d_in is not zero; the pair is not a complex")
    return (d_out.cols - rank(d_out)) - rank(d_in)
