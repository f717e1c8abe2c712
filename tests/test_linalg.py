import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridial.cohomology import SparseMap
from oridial.dialgebra import bilinear
from oridial.linalg import (
    Matrix,
    NonComplexError,
    ShapeMismatchError,
    cohomology_dim,
    column_space_complement,
    format_rational,
    in_image,
    nullspace,
    parse_rational,
    rank,
    rref,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(rationals, min_size=r * c, max_size=r * c).map(
                lambda xs: Matrix(r, c, xs)
            )
        )
    )


def test_rank_examples():
    assert rank(Matrix.zeros(0, 0)) == 0
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_nullspace_examples():
    assert nullspace(Matrix.identity(4)) == []
    assert len(nullspace(Matrix.zeros(2, 3))) == 3
    (v,) = nullspace(Matrix.from_rows([[1, 1]]))
    assert v == [-1, 1]


def test_in_image_examples():
    eye = Matrix.identity(3)
    assert in_image(eye, [1, Fraction(2, 3), -5]) == [1, Fraction(2, 3), -5]
    assert in_image(Matrix.zeros(2, 2), [1, 0]) is None
    assert in_image(Matrix.from_rows([[1], [1]]), [2, 2]) == [2]
    with pytest.raises(ShapeMismatchError):
        in_image(eye, [1, 2])


def test_cohomology_dim_examples():
    n = 4
    d_out = Matrix.zeros(1, n)
    d_in = Matrix.zeros(n, 1)
    assert cohomology_dim(d_out, d_in) == n
    assert cohomology_dim(Matrix.identity(n), Matrix.zeros(n, 1)) == 0
    with pytest.raises(NonComplexError):
        cohomology_dim(Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(ShapeMismatchError):
        cohomology_dim(Matrix.zeros(2, 3), Matrix.zeros(2, 2))


def test_cohomology_dim_invariant_under_middle_permutation():
    rng = random.Random(0)
    for _ in range(10):
        mid = 5
        d_in = Matrix(mid, 2, [rng.randint(-2, 2) for _ in range(2 * mid)])
        # build d_out annihilating the image so the pair is a complex
        basis = nullspace(Matrix.from_rows([[d_in.at(i, j) for i in range(mid)]
                                            for j in range(2)]))
        d_out = Matrix.from_rows([list(v) for v in basis]) if basis else Matrix.zeros(0, mid)
        dim = cohomology_dim(d_out, d_in)
        perm = list(range(mid))
        rng.shuffle(perm)
        p = Matrix(mid, mid, [1 if perm[i] == j else 0 for i in range(mid) for j in range(mid)])
        p_inv = p.transpose()
        assert cohomology_dim(d_out.mul(p_inv), p.mul(d_in)) == dim


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_nullspace_is_exact_and_full(m):
    basis = nullspace(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_rref_reproduces_row_space_shape(m):
    pivots, rows = rref(m)
    assert len(pivots) == rank(m)
    for r, pc in enumerate(pivots):
        assert rows[r][pc] == 1
        assert all(rows[i][pc] == 0 for i in range(len(rows)) if i != r)


def test_solution_verifies():
    rng = random.Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(rows, cols, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(rows * cols)])
        u = [rng.randint(-3, 3) for _ in range(cols)]
        v = m.matvec(u)
        w = in_image(m, v)
        assert w is not None
        assert m.matvec(w) == v


def reference_rref(rows: list, ncols: int) -> tuple[list, list]:
    """Plain dense Gauss-Jordan elimination in exact Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(m)) if m[i][c]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


def reference_nullspace(rows: list, ncols: int) -> list:
    pivots, reduced = reference_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -reduced[r][f]
            basis.append(v)
    return basis


def reference_in_image(rows: list, ncols: int, v: list):
    pivots, reduced = reference_rref([row + [x] for row, x in zip(rows, v)], ncols + 1)
    if ncols in pivots:
        return None
    u = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        u[pc] = reduced[r][ncols]
    return u


def reference_complement(rows: list, ncols: int, candidates: list) -> list:
    aug = [row + [c[i] for c in candidates] for i, row in enumerate(rows)]
    pivots, _ = reference_rref(aug, ncols + len(candidates))
    return [p - ncols for p in pivots if p >= ncols]


def dense(rows: list, ncols: int) -> Matrix:
    return Matrix(len(rows), ncols, [x for row in rows for x in row])


def sparse(rows: list, ncols: int) -> SparseMap:
    sm = SparseMap(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            sm.add(i, j, x)
    return sm


def canonical(x) -> bool:
    """An engine scalar: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                           st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def parity_cases(draw):
    """(rows, ncols): small, often sparse, often rank deficient, shapes down to 0."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 2 and draw(st.booleans()):   # a combination of two rows
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        rows[-1] = [a + k * b for a, b in zip(rows[i], rows[j])]
    if nrows and draw(st.booleans()):        # a zero row
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):        # a zero column
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = 0
    return rows, ncols


def vectors(n: int):
    return st.lists(sparse_entries, min_size=n, max_size=n)


@pytest.mark.parametrize("build", [dense, sparse])
@settings(max_examples=150, deadline=None)
@given(case=parity_cases(), data=st.data())
def test_elimination_matches_dense_reference(build, case, data):
    rows, ncols = case
    m = build(rows, ncols)
    pivots, reduced = reference_rref(rows, ncols)
    assert rank(m) == len(pivots)
    got_pivots, got_rows = rref(m)
    assert (got_pivots, got_rows) == (pivots, reduced)
    kernel = nullspace(m)
    assert kernel == reference_nullspace(rows, ncols)
    for vec in got_rows + kernel:
        assert all(canonical(x) for x in vec)

    u = data.draw(vectors(ncols))
    image = [sum((Fraction(a) * b for a, b in zip(row, u)), Fraction(0)) for row in rows]
    for v in (image, data.draw(vectors(len(rows)))):
        expected = reference_in_image(rows, ncols, v)
        got = in_image(m, v)
        assert got == expected
        if got is not None:
            assert all(canonical(x) for x in got)

    candidates = data.draw(st.lists(vectors(len(rows)), max_size=4))
    if candidates and data.draw(st.booleans()):   # a dependent candidate
        candidates.append([2 * x for x in candidates[0]])
    assert column_space_complement(m, candidates) == \
        reference_complement(rows, ncols, candidates)


def _fraction_sum(terms) -> Fraction:
    return sum((Fraction(a) * b for a, b in terms), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bilinear_matches_fraction_reference(data):
    # mixed int/Fraction inputs with zeros; a negated tensor row under two
    # equal coordinates of y makes the sums cancel
    d = data.draw(st.integers(1, 4))
    flat = data.draw(vectors(d ** 3))
    tensor = [[flat[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d)] for i in range(d)]
    x, y = data.draw(vectors(d)), data.draw(vectors(d))
    if d >= 2 and data.draw(st.booleans()):
        y[1] = y[0]
        for plane in tensor:
            plane[1] = [-t for t in plane[0]]
    want = [_fraction_sum((x[i] * y[j], tensor[i][j][k]) for i in range(d) for j in range(d))
            for k in range(d)]
    got = bilinear(tensor, x, y)
    assert got == want
    assert all(canonical(v) for v in got)


@settings(max_examples=150, deadline=None)
@given(case=parity_cases(), data=st.data())
def test_matvec_and_mul_match_fraction_reference(case, data):
    rows, ncols = case
    v = data.draw(vectors(ncols))
    inner = data.draw(st.integers(0, 4))
    flat = data.draw(vectors(ncols * inner))
    other = [flat[k * inner:(k + 1) * inner] for k in range(ncols)]
    if ncols >= 2 and data.draw(st.booleans()):
        # column 1 is minus column 0, against equal coordinates and rows
        for row in rows:
            row[1] = -row[0]
        v[1] = v[0]
        other[1] = list(other[0])
    m = dense(rows, ncols)
    got = m.matvec(v)
    assert got == [_fraction_sum(zip(row, v)) for row in rows]
    assert all(canonical(x) for x in got)
    product = m.mul(Matrix(ncols, inner, [x for row in other for x in row]))
    assert product.to_rows() == [
        [_fraction_sum((row[k], other[k][j]) for k in range(ncols)) for j in range(inner)]
        for row in rows]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_map_add_matches_fraction_reference(data):
    cells = st.tuples(st.integers(0, 2), st.integers(0, 2))
    writes = data.draw(st.lists(st.tuples(cells, sparse_entries), max_size=12))
    if writes and data.draw(st.booleans()):      # a write that cancels an earlier one
        (r, c), v = data.draw(st.sampled_from(writes))
        writes.append(((r, c), -v))
    block = data.draw(st.lists(st.tuples(cells, sparse_entries), max_size=6))
    scale = data.draw(st.sampled_from((1, -1)))
    off = data.draw(st.integers(0, 1))

    sm, other, want = SparseMap(4, 4), SparseMap(3, 3), {}
    for (r, c), v in writes:
        sm.add(r, c, v)
        want[r, c] = want.get((r, c), Fraction(0)) + v
    for (r, c), v in block:
        other.add(r, c, v)
    sm.add_block(other, off, off, scale)
    for (r, c), v in other.entries.items():
        want[r + off, c + off] = want.get((r + off, c + off), Fraction(0)) + scale * v
    assert sm.entries == {key: v for key, v in want.items() if v}
    assert all(v for v in sm.entries.values())   # no zero is ever stored


def test_rational_serialization():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational(-7) == Fraction(-7)
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    for bad in ("1/0", "x", None, 1.5, True):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_matrix_shape_validation():
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeMismatchError):
        Matrix.identity(2).mul(Matrix.identity(3))
