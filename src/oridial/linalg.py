"""Exact linear algebra over the rationals, dense or sparse.

Everything here is exact: entries are Python ints or ``fractions.Fraction``
values, never floats.  There are two matrix types, the dense ``Matrix`` and
the ``SparseMap`` every coboundary is assembled as, and the elimination
reads both the same way, by ``columns``: a list of ``cols`` dicts
{row: value} with no zero values, each copied before elimination.

There is one elimination, and it is sparse.  It keeps the nonzero rows as
integer dicts {column: value}; each vector is scaled to integers once.
``_echelon`` inserts rows sparsest first; ``nullspace`` inserts its tagged
columns and its seeds last first, for the reason given there.  A pivot row
removes its leading column from another row by a gcd-scaled integer
combination; a row that had to be scaled up for it is then divided by its
content.

There is one solve route, the tagged column echelon of ``nullspace``.
Each column is tagged with an identity entry that records which
combination of columns a vector stands for, and a tagged vector whose
column part vanishes is a kernel vector.  Keyed so that the largest column
leads, those vectors form the kernel echelon.  ``reduced_row`` clears one
echelon row of the other pivot keys in integers, and ``scaled_vector``
divides it once by its pivot, which gives one vector of the canonical
kernel basis.  That basis is unique, so kernels, preimages and reduced
row echelon forms do not depend on the order of elimination and are
reproducible bit for bit across runs and platforms.  ``nullspace``
reduces every row, ``in_image`` the one row of the column it appends, and
``rref`` reads its rows off the basis.  A caller that needs only a few of
the basis vectors reduces just those, and may divide by another entry.

Coboundaries are tall: many more rows than columns.  Eliminating columns
costs at most one insertion per column instead of one per row, and none
for a column that a known kernel vector (a coboundary) accounts for.  The
known vectors are checked exactly, all in one product: ``_check_square``
packs them into one integer vector, in slots too wide for any product to
spill over.  ``rank`` and ``column_space_complement`` need no
back-substitution and keep the row echelon, ``rank`` of the shorter side.
One helper, ``_apply``, multiplies a map's columns by a sparse vector: for
that check, for ``SparseMap.mul`` and for the degree-1 coboundary.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import mul


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


def _rational(num: int, den: int):
    """num/den as a canonical scalar; an integral quotient builds no Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def parse_rational(value):
    """Read a rational from an int or a "p/q" / "p" string, as a canonical scalar.

    A string is an optional minus sign and digits, optionally followed by
    "/" and a positive denominator; nothing else (no spaces, exponents,
    decimal points, underscores or plus signs).  The value comes back as
    ``normalize_scalar`` would give it: an int when it is integral, else a
    ``Fraction`` in lowest terms.
    """
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str) and value.isascii():   # ASCII, so isdigit means 0-9
        num, slash, den = value.partition("/")
        if num[1:].isdigit() if num[:1] == "-" else num.isdigit():
            if not slash:
                return int(num)
            if den.isdigit() and den[0] != "0":
                return _rational(int(num), int(den))
    raise ValueError(f"malformed rational {value!r}")


def format_rational(x) -> str:
    """Canonical string form: "p" when the denominator is 1, else "p/q"."""
    return str(x if type(x) in (int, Fraction) else Fraction(x))


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

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply {self.shape()} by {other.shape()}")
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return Matrix(self.rows, other.cols, [sum(map(mul, row, col))
                                              for row in self.to_rows() for col in cols])

    @property
    def columns(self) -> list[dict]:
        """Each column as a new {row: value} dict with no zero values."""
        e, c = self.entries, self.cols
        return [{i: x for i, x in enumerate(e[j::c]) if x} for j in range(c)]

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape() == other.shape()
            and self.entries == other.entries   # exact scalars compare exactly
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class SparseMap:
    """A sparse linear map stored by columns: ``columns[j]`` is {row: value}.

    A map is built from its column dicts, none of whose values is 0; with
    no columns given it is the zero map.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: list | None = None):
        self.rows = rows
        self.cols = cols
        self.columns: list[dict] = [{} for _ in range(cols)] if columns is None else columns

    @property
    def entries(self) -> dict:
        """A new dict of (row, col) -> value, with no zero values."""
        return {(r, c): x for c, col in enumerate(self.columns) for r, x in col.items()}

    def mul(self, other: "SparseMap") -> "SparseMap":
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        products = (_apply(self.columns, col, self.rows) for col in other.columns)
        return SparseMap(self.rows, other.cols,
                         columns=[{i: x for i, x in enumerate(out) if x} for out in products])

    def to_matrix(self) -> Matrix:
        return Matrix(self.rows, self.cols,
                      [col.get(r, 0) for r in range(self.rows) for col in self.columns])


def _apply(columns, vec: dict, rows: int) -> list:
    """The map with these columns applied to {column: value}, as a dense list
    of its ``rows`` entries; ``columns[j]`` is column j as {row: value}."""
    out = [0] * rows
    for j, x in vec.items():
        for i, y in columns[j].items():
            out[i] += x * y
    return out


def _row_dicts(m, transpose: bool = False) -> list[dict]:
    """Every row (or column) of a ``Matrix`` or ``SparseMap`` as a new {index: value} dict."""
    if transpose:
        return [dict(col) for col in m.columns]
    out = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            out[i][j] = x
    return out


def _integral(row: dict) -> dict:
    """The row scaled by the least common multiple of its denominators.

    A row of ints is returned as it is, not copied.
    """
    if {*map(type, row.values())} <= {int}:   # one type scan; a bool is scaled
        return row
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
    if p != 1:   # with p = 1 the row is row - a·piv, and no content pass is made
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


def rank(m) -> int:
    """Rank over the rationals, eliminating the shorter side of m."""
    return len(_echelon(_row_dicts(m, transpose=m.rows > m.cols)))


def rref(m) -> tuple[list[int], list[list]]:
    """Reduced row echelon form over the rationals, read off the kernel basis.

    Returns (pivot columns, nonzero rows), the rows as dense lists.  Each
    key of the kernel echelon names a free column f, whose canonical kernel
    vector K_f is 1 at f and 0 at the other free columns.  The pivots are
    the other columns, and the row of pivot p has 1 at p and -K_f[p] at
    each free column f.
    """
    r, c = m.rows, m.cols
    kernel = nullspace(m, reduced=False)
    free = {r + c - 1 - key: scaled_vector(reduced_row(kernel, key), key, r, c) for key in kernel}
    pivots = [p for p in range(c) if p not in free]
    rows = []
    for p in pivots:
        row = [0] * c
        row[p] = 1
        for f, v in free.items():
            row[f] = -v[p]
        rows.append(row)
    return pivots, rows


def nullspace(m, image=None, *, reduced: bool = True) -> list[list] | dict:
    """Canonical basis of the kernel of m, given kernel vectors ``image``.

    One basis vector per free column f, with entry 1 at f, the negated
    reduced-echelon column above the pivots, and 0 at the other free
    columns.  Size is always cols - rank.  With ``reduced=False`` nothing
    is back-substituted: the result is the kernel echelon, a dict from tag
    key to integer row, and ``reduced_row`` reduces one row of it.

    The basis comes from the cols columns, not the rows, so a tall map
    costs at most cols insertions.  Column j is tagged with an identity
    entry at key rows + cols - 1 - j, which records the combination of
    columns a vector stands for.  The columns are inserted last first:
    in the tree-major layout a column's leading row mostly grows with its
    index, so a column inserted after all later ones usually becomes a
    pivot after few eliminations or none.  Once the row part of a vector
    vanishes, the vector lies in the kernel and leads with the tag of the
    largest column in its support.  Each echelon row is reduced and divided
    by its pivot, in descending key order.  For each free column f exactly
    one kernel vector has 1 at f and 0 at every other free column, so this
    is the basis above, in the same order and with the same scalars.  One
    pass over m's entries takes the bit length of the largest, for the
    square check below; a ``Fraction`` fails it, and then each inserted
    column is scaled to integers on its own.

    The columns of ``image`` (m's cols rows) seed the kernel.  In their own
    echelon each seed leads at the smallest index p of its support, so they
    go in last first, like the tagged columns.  The seeds that extend that
    echelon, as given, are multiplied by m in one exact product
    (``_check_square``), and a nonzero product raises NonComplexError; so
    m·w = 0 for every seed.  Column p then lies in the span of the later
    columns, so the last-first insertion would reduce it to zero: it is
    not inserted.  The set of leading indices of an echelon basis depends
    only on the span, so the skipped columns do not depend on the order of
    the seeds.  The kept seeds then join the kernel echelon under their tag
    keys, first column first, since that echelon leads with the largest
    column.  The reduced form is unique, so the basis is the same with or
    without seeds, in any order.
    """
    r, c = m.rows, m.cols
    columns = m.columns
    try:
        bits = _entry_bits(columns)
    except TypeError:   # a Fraction
        bits = None
    seeds: dict = {}
    kept: list = []
    if image is not None:
        if image.rows != c:
            raise ShapeMismatchError(f"image vectors of length {c} expected, got {image.rows}")
        kept = [w for w in map(_integral, reversed(image.columns)) if _insert(dict(w), seeds)]
        if kept:
            _check_square(columns, kept, r, bits)
    echelon: dict = {}
    for j in range(c - 1, -1, -1):
        if j not in seeds:   # a tagged copy of the column, in integers
            col = {**columns[j], r + c - 1 - j: 1}
            _insert(col if bits is not None else _integral(col), echelon)
    kernel = {key: row for key, row in echelon.items() if key >= r}
    for w in reversed(kept):
        _insert({r + c - 1 - j: x for j, x in w.items()}, kernel)
    if not reduced:
        return kernel
    return [scaled_vector(reduced_row(kernel, k), k, r, c) for k in sorted(kernel, reverse=True)]


def _entry_bits(columns) -> int:
    """The bit length of the largest |entry| of these {row: value} columns,
    in one pass at C speed; a ``Fraction`` entry raises TypeError, and a
    bool counts as the int it equals."""
    return max(map(int.bit_length, chain.from_iterable(map(dict.values, columns))), default=0)


def _slot_bits(bits: int, seeds: list) -> int:
    """Slot width k for ``_check_square``: a + b, where a = ``bits`` is the
    bit length of the largest |entry| of the integer map and b that of the
    largest abs-sum of an integer seed."""
    return bits + max(sum(map(abs, w.values())) for w in seeds).bit_length()


def _check_square(columns: list, seeds: list, rows: int, bits: int | None) -> None:
    """Raise NonComplexError unless the map with these columns sends every seed to 0.

    The seeds are integer vectors {column: value}, multiplied all at once:
    seed s goes into a k-bit slot, P = Σ_s w_s·2^(k·s), and only m·P is
    computed.  A single seed is its own packed vector.  ``bits`` is the bit
    length of the map's largest |entry|, or None if it holds a ``Fraction``:
    then the columns the seeds touch, the only ones read, are scaled to
    integers over one common denominator, which scales every product by the
    same nonzero factor, and ``bits`` is taken on them.

    With k = ``_slot_bits``, m·P = 0 exactly when every m·w_s = 0.  Let M
    be the largest |m[i][j]| and B the largest Σ_j |w_s[j]|; M and B are
    below 2^a and 2^b, and k = a + b.  An entry of y_s = m·w_s obeys
    |y_s[i]| ≤ Σ_j |m[i][j]|·|w_s[j]| ≤ M·B < 2^k.  Now
    (m·P)[i] = Σ_s y_s[i]·2^(k·s).  If some y_s[i] ≠ 0, let t be the least
    such s: then (m·P)[i] = 2^(k·t)·(y_t[i] + 2^k·Q) for an integer Q, and
    it would vanish only if 2^k divided y_t[i], which 0 < |y_t[i]| < 2^k
    forbids.  So no later slot cancels a nonzero product.
    """
    packed = seeds[0]
    if len(seeds) > 1:
        touched = set().union(*seeds)
        if bits is None:
            denom = lcm(*(x.denominator for j in touched for x in columns[j].values()))
            columns = {j: {i: x.numerator * (denom // x.denominator)
                           for i, x in columns[j].items()} for j in touched}
            bits = _entry_bits(columns.values())
        k = _slot_bits(bits, seeds)
        packed = dict.fromkeys(touched, 0)
        for s, w in enumerate(seeds):
            shift = k * s
            for j, x in w.items():
                packed[j] += x << shift
    if any(_apply(columns, packed, rows)):
        raise NonComplexError("an image vector is not in the kernel")


def reduced_row(kernel: dict, key: int) -> dict:
    """A copy of the kernel echelon row at ``key``, cleared of the other pivot keys.

    ``kernel`` is ``nullspace(m, image, reduced=False)``.  The other pivot
    keys are cleared in ascending order, in integers.  A pivot row has no
    key below its own, so a cleared key never comes back.  Only the pivot
    keys the row holds are queued, so a row with none costs its length.
    """
    row = dict(kernel[key])
    todo = [j for j in row if j != key and j in kernel]
    heapify(todo)
    while todo:
        j = heappop(todo)
        if j in row:   # a key queued twice is cleared at its first pop
            piv = kernel[j]
            _eliminate(row, piv, j)
            for i in piv:
                if i in row and i in kernel:
                    heappush(todo, i)
    return row


def scaled_vector(row: dict, at: int, r: int, c: int) -> list:
    """A tagged row of an r x c map, divided once by its entry at key ``at``.

    Key k stands for column r + c - 1 - k.  A ``reduced_row`` divided at its
    own key is its canonical kernel vector, and at its largest key that
    vector scaled to a leading 1.
    """
    p, v = row[at], [0] * c
    for j, x in row.items():
        v[r + c - 1 - j] = _rational(x, p)
    return v


def in_image(m, v: list):
    """A preimage u with m*u = v, or None when v is not in the column space.

    v is appended to m as column c, whose tag key in ``nullspace`` is r:
    v lies in the column space exactly when that column is free, that is
    when the kernel echelon has a row at key r.  The canonical kernel
    vector of that row is 1 at c and 0 at m's free columns, so its first c
    entries, negated, are the preimage the reduced row echelon form gives.
    """
    r, c = m.rows, m.cols
    if len(v) != r:
        raise ShapeMismatchError(f"vector of length {r} expected, got {len(v)}")
    aug = SparseMap(r, c + 1, columns=m.columns + [{i: x for i, x in enumerate(v) if x}])
    kernel = nullspace(aug, reduced=False)
    if r not in kernel:
        return None
    return [-x for x in scaled_vector(reduced_row(kernel, r), r, r, c + 1)[:c]]


def column_space_complement(image, candidates) -> list[int]:
    """Indices of the columns of ``candidates`` that extend the column space of ``image``.

    Columns are scanned in order; an index is kept when its column is not
    in the span of the columns of ``image`` and the candidates kept before
    it.  Deterministic, used to pick cohomology representatives.
    """
    echelon = _echelon(_row_dicts(image, transpose=True))
    return [i for i, col in enumerate(_row_dicts(candidates, transpose=True))
            if _insert(_integral(col), echelon)]

