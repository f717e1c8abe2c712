import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridial import linalg
from oridial.cohomology import SparseMap, _quotient, delta_entries, total_entries
from oridial.dialgebra import Dialgebra
from oridial.linalg import (
    Matrix,
    NonComplexError,
    ShapeMismatchError,
    _rational,
    column_space_complement,
    format_rational,
    in_image,
    normalize_scalar,
    nullspace,
    parse_rational,
    rank,
    reduced_row,
    rref,
    scaled_vector,
)

from conftest import (
    basis_changed_dual_s3,
    diff3_dialgebra,
    dual_numbers_dialgebra,
    half_triangular,
    in_basis,
    oriented_dual_s3,
    oriented_dual_sign,
    oriented_trivial,
    oriented_zero_sign,
    poly3_dialgebra,
    split_products_dialgebra,
)
from reference_checkers import apply, bilinear
from reference_quotient import is_zero, leading_one, same_map, sparse_map

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


def _sparse_of(m: Matrix) -> SparseMap:
    return sparse(m.to_rows(), m.cols)


def test_cohomology_dim_examples():
    n = 4
    assert _quotient(SparseMap(1, n), SparseMap(n, 1)).dim == n
    assert _quotient(_sparse_of(Matrix.identity(n)), SparseMap(n, 1)).dim == 0
    with pytest.raises(NonComplexError):
        _quotient(_sparse_of(Matrix.identity(2)), _sparse_of(Matrix.identity(2)))
    with pytest.raises(ShapeMismatchError):
        _quotient(SparseMap(2, 3), SparseMap(2, 2))


def test_cohomology_dim_invariant_under_middle_permutation():
    rng = random.Random(0)
    for _ in range(10):
        mid = 5
        d_in = Matrix(mid, 2, [rng.randint(-2, 2) for _ in range(2 * mid)])
        # build d_out annihilating the image so the pair is a complex
        basis = nullspace(Matrix.from_rows([[d_in.at(i, j) for i in range(mid)]
                                            for j in range(2)]))
        d_out = Matrix.from_rows([list(v) for v in basis]) if basis else Matrix.zeros(0, mid)
        dim = _quotient(_sparse_of(d_out), _sparse_of(d_in)).dim
        perm = list(range(mid))
        rng.shuffle(perm)
        p = Matrix(mid, mid, [1 if perm[i] == j else 0 for i in range(mid) for j in range(mid)])
        p_inv = p.transpose()
        assert _quotient(_sparse_of(d_out.mul(p_inv)), _sparse_of(p.mul(d_in))).dim == dim


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
        assert all(x == 0 for x in apply(m, v))


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
        v = apply(m, u)
        w = in_image(m, v)
        assert w is not None
        assert apply(m, w) == v


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
    return sparse_map(len(rows), ncols,
                      {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x})


def canonical(x) -> bool:
    """An engine scalar: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                           st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def parity_cases(draw):
    """(rows, ncols): small, often sparse, often rank deficient, shapes down to 0.

    Half of the cases are tall like a coboundary: up to 12 rows, at most 4 columns.
    """
    if draw(st.booleans()):
        ncols = draw(st.integers(0, 4))
        nrows = draw(st.integers(ncols, 12))
    else:
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
    assert column_space_complement(m, Matrix.from_rows(candidates).transpose()) == \
        reference_complement(rows, ncols, candidates)


def _dual_in_another_basis() -> Dialgebra:
    """K[u]/(u²) in the basis (1, u + 1/2): T'(a, b) = P⁻¹T(Pa, Pb)."""
    half = Fraction(1, 2)
    P, P_inv = Matrix.from_rows([[1, half], [0, 1]]), Matrix.from_rows([[1, -half], [0, 1]])
    D, cols = dual_numbers_dialgebra(), P.transpose().to_rows()

    def tensor(T):
        return [[apply(P_inv, bilinear(T, a, b)) for b in cols] for a in cols]

    return Dialgebra(D.dim, tensor(D.left), tensor(D.right))


@pytest.mark.parametrize("D", [dual_numbers_dialgebra(), split_products_dialgebra(),
                               poly3_dialgebra(), _dual_in_another_basis()],
                         ids=["dual", "split", "poly3", "dual-copy"])
def test_coboundary_kernel_and_rank_match_dense_reference(D):
    for n in range(3):
        sm = delta_entries(D, n)
        rows = sm.to_matrix().to_rows()
        kernel = reference_nullspace(rows, sm.cols)
        pivots, reduced = reference_rref(rows, sm.cols)
        image = [sum(row) for row in rows]   # m times the all-ones vector
        outside = next(e for e in ([int(i == j) for i in range(sm.rows)] for j in range(sm.rows))
                       if reference_in_image(rows, sm.cols, e) is None)
        for m in (sm, sm.to_matrix()):
            got = nullspace(m)
            assert got == kernel
            assert all(canonical(x) for vec in got for x in vec)
            assert rank(m) == len(pivots)
            assert rref(m) == (pivots, reduced)
            u = in_image(m, image)
            assert u == reference_in_image(rows, sm.cols, image)
            assert all(canonical(x) for x in u)
            assert in_image(m, outside) is None


def test_tall_coboundary_inserts_at_most_its_columns(monkeypatch):
    # poly3's δ(2) is 405 x 54; eliminating its rows would insert every nonzero row
    sm = delta_entries(poly3_dialgebra(), 2)
    assert (sm.rows, sm.cols) == (405, 54)
    insert, calls = linalg._insert, []

    def counted(row, echelon):
        calls.append(row)
        return insert(row, echelon)

    monkeypatch.setattr(linalg, "_insert", counted)
    for eliminate in (nullspace, rank):
        calls.clear()
        eliminate(sm)
        assert 0 < len(calls) <= sm.cols, eliminate.__name__
    # a preimage costs one more insertion, for the appended column
    calls.clear()
    w = {j: j % 3 - 1 for j in range(sm.cols)}
    v = linalg._apply(sm.columns, w, sm.rows)
    u = in_image(sm, v)
    assert 0 < len(calls) <= sm.cols + 1
    assert apply(sm.to_matrix(), u) == v


def _inserted_columns(monkeypatch, m, image) -> list:
    """The columns of a tall m that ``nullspace(m, image)`` inserts, in order.

    A tagged column has row keys below m.rows and one tag key above; the
    seeds have keys below m.cols < m.rows, and in the kernel tag keys only.
    """
    insert, calls = linalg._insert, []

    def counted(row, echelon):
        calls.append(set(row))
        return insert(row, echelon)

    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_insert", counted)
        nullspace(m, image)
    return [m.rows + m.cols - 1 - max(keys) for keys in calls
            if keys and min(keys) < m.rows <= max(keys)]


def _reorderings(sm) -> list:
    """The map with its columns reversed, and shuffled by a fixed seed."""
    shuffled = random.Random(1).sample(sm.columns, sm.cols)
    return [SparseMap(sm.rows, sm.cols, columns=sm.columns[::-1]),
            SparseMap(sm.rows, sm.cols, columns=shuffled)]


def test_seeded_kernel_skips_each_seed_leading_column(monkeypatch):
    # poly3's δ(1) spans a subspace of ker δ(2); each of its echelon vectors
    # leads at a column of δ(2) that depends on the later ones, so only the
    # other columns are inserted, whatever the order of the seeds
    sm, d_in = (delta_entries(poly3_dialgebra(), n) for n in (2, 1))
    image_rank, pivots = rank(d_in), rref(d_in.to_matrix().transpose())[0]
    assert 0 < image_rank == len(pivots) < sm.cols
    assert {c for (_, c), x in sm.entries.items() if x} == set(range(sm.cols))   # no zero column
    for image in [d_in] + _reorderings(d_in):
        inserted = _inserted_columns(monkeypatch, sm, image)
        assert len(inserted) == sm.cols - image_rank
        assert set(inserted) == set(range(sm.cols)) - set(pivots)
        assert nullspace(sm, image) == nullspace(sm)


def _dense_copy(OD):
    """OD in the basis P₀ = L·U of the benchmark's first copies (the seed
    only reorders and signs its coordinates): L has (-1)^(i+j+1)/2 below its
    diagonal, U has (-1)^(i·j)·3 above it."""
    d = OD.dim
    L = Matrix(d, d, [1 if i == j else Fraction((-1) ** (i + j + 1), 2) if i > j else 0
                      for i in range(d) for j in range(d)])
    U = Matrix(d, d, [1 if i == j else 3 * (-1) ** (i * j) if i < j else 0
                      for i in range(d) for j in range(d)])
    return in_basis(OD, L.mul(U))


def _delta_pair(D, n):
    return delta_entries(D, n), delta_entries(D, n - 1)


def _total_pair(OD, n):
    return total_entries(OD, n), total_entries(OD, n - 1)


# δ and Tot pairs of the fixtures and of dense copies, whose public maps
# hold fractions
@pytest.mark.parametrize("build", [
    lambda: _delta_pair(dual_numbers_dialgebra(), 3),
    lambda: _delta_pair(split_products_dialgebra(), 3),
    lambda: _delta_pair(poly3_dialgebra(), 2),
    lambda: _delta_pair(diff3_dialgebra(), 2),
    lambda: _total_pair(oriented_dual_sign(), 2),
    lambda: _total_pair(oriented_zero_sign(), 2),
    lambda: _total_pair(oriented_dual_s3(), 1),
    lambda: _delta_pair(_dense_copy(oriented_trivial(dual_numbers_dialgebra())).base, 3),
    lambda: _delta_pair(_dense_copy(oriented_trivial(poly3_dialgebra())).base, 2),
    lambda: _delta_pair(_dense_copy(oriented_trivial(diff3_dialgebra())).base, 2),
    lambda: _total_pair(_dense_copy(oriented_dual_sign()), 2),
    lambda: _total_pair(basis_changed_dual_s3(), 1),
], ids=["dual δ(3)", "split δ(3)", "poly3 δ(2)", "diff3 δ(2)", "dual-sign Tot(2)",
        "zero-sign Tot(2)", "dual-s3 Tot(1)", "dual-copy δ(3)", "poly3-copy δ(2)",
        "diff3-copy δ(2)", "dual-sign-copy Tot(2)", "dual-s3-copy Tot(1)"])
def test_seed_order_does_not_change_the_result(monkeypatch, build):
    # the leading indices of an echelon basis depend only on its span, and
    # the canonical kernel basis is unique: reversing or shuffling d_in moves
    # neither the skipped columns, nor the kernel echelon's keys, nor the quotient
    d_out, d_in = build()
    assert d_out.rows > d_out.cols

    def outcome(image):
        return (repr(_quotient(d_out, image)), sorted(nullspace(d_out, image, reduced=False)),
                set(_inserted_columns(monkeypatch, d_out, image)))

    want = outcome(d_in)
    assert want[2] and len(want[2]) < d_out.cols   # some columns are skipped, not all
    for image in _reorderings(d_in):
        assert outcome(image) == want


def _kernel_vectors(sm, image=None) -> list:
    """``reduced_row`` at every key of the unreduced kernel echelon, divided
    at that key, in ``nullspace``'s order; the echelon must come through
    unchanged, and each row divided at its largest key must be its vector
    scaled to a leading 1."""
    kernel = nullspace(sm, image, reduced=False)
    before = {key: dict(row) for key, row in kernel.items()}
    rows = {key: reduced_row(kernel, key) for key in sorted(kernel, reverse=True)}
    got = [scaled_vector(row, key, sm.rows, sm.cols) for key, row in rows.items()]
    assert kernel == before
    leading = [scaled_vector(row, max(row), sm.rows, sm.cols) for row in rows.values()]
    assert leading == [leading_one(v) for v in got]
    return got


# Maps in the tree-major layout with dense basis-changed entries, where a
# column's leading row mostly grows with its index; Tot(2) of the zero-sign
# copy has a large kernel (54 of 128 columns).  Each comes with its incoming
# map, whose columns seed the kernel elimination.
@pytest.mark.parametrize("build", [
    lambda: (total_entries(basis_changed_dual_s3(), 0), None),
    lambda: (total_entries(basis_changed_dual_s3(), 1), total_entries(basis_changed_dual_s3(), 0)),
    lambda: (total_entries(in_basis(oriented_zero_sign(), half_triangular(2)), 1),
             total_entries(in_basis(oriented_zero_sign(), half_triangular(2)), 0)),
    lambda: (total_entries(in_basis(oriented_zero_sign(), half_triangular(2)), 2),
             total_entries(in_basis(oriented_zero_sign(), half_triangular(2)), 1)),
    lambda: (delta_entries(in_basis(oriented_trivial(poly3_dialgebra()), half_triangular(3)).base, 2),
             delta_entries(in_basis(oriented_trivial(poly3_dialgebra()), half_triangular(3)).base, 1)),
], ids=["dual-s3-copy Tot(0)", "dual-s3-copy Tot(1)", "zero-sign-copy Tot(1)",
        "zero-sign-copy Tot(2)", "poly3-copy delta(2)"])
def test_kernel_of_basis_changed_maps_matches_dense_reference(build):
    sm, d_in = build()
    got = nullspace(sm)
    assert got == reference_nullspace(sm.to_matrix().to_rows(), sm.cols)
    assert all(canonical(x) for vec in got for x in vec)
    images = [SparseMap(sm.cols, 0)] + ([d_in, d_in.to_matrix()] if d_in is not None else [])
    assert all(nullspace(sm, image) == got for image in images)
    assert all(_kernel_vectors(sm, image) == got for image in [None] + images)


@st.composite
def small_sparse_maps(draw, max_dim=6):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
    entries = draw(st.dictionaries(cells, rationals, max_size=2 * max_dim)) if rows and cols else {}
    return sparse_map(rows, cols, entries)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_vector_matches_nullspace_on_random_sparse_maps(data):
    # the seeds are combinations of the kernel basis, as d_in's columns are
    sm = data.draw(small_sparse_maps())
    basis = nullspace(sm)
    coefficients = data.draw(st.lists(st.lists(rationals, min_size=len(basis),
                                               max_size=len(basis)), max_size=3))
    seeds = [[sum(a * v[i] for a, v in zip(cs, basis)) for i in range(sm.cols)]
             for cs in coefficients]
    image = sparse_map(sm.cols, len(seeds),
                       {(i, j): x for j, w in enumerate(seeds) for i, x in enumerate(w)})
    assert _kernel_vectors(sm) == basis
    assert _kernel_vectors(sm, image) == basis


def test_nullspace_refuses_a_misshaped_or_noncomplex_image():
    m = Matrix.from_rows([[1, 1, 0], [0, 0, 1]])                  # kernel spanned by (1, -1, 0)
    assert nullspace(m, Matrix.from_rows([[2], [-2], [0]])) == [[-1, 1, 0]]
    with pytest.raises(ShapeMismatchError):
        nullspace(m, Matrix.from_rows([[1], [-1]]))
    with pytest.raises(NonComplexError):
        nullspace(m, Matrix.from_rows([[1, 1], [-1, 0], [0, 0]]))   # m·(1, 0, 0) ≠ 0
    with pytest.raises(NonComplexError):                            # exact with denominators
        nullspace(sparse_map(1, 2, {(0, 0): 1, (0, 1): Fraction(3, 2)}),
                  sparse_map(2, 1, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 5)}))


big_ints = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=300, deadline=None)
@given(zeros=st.integers(0, 3), lead=big_ints.filter(bool),
       rest=st.lists(st.one_of(st.just(0), big_ints), max_size=6), r=st.integers(0, 3),
       pick=st.integers(0, 6), num=big_ints, den=st.integers(-10 ** 15, 10 ** 15).filter(bool))
def test_divisions_match_fraction_arithmetic(zeros, lead, rest, r, pick, num, den):
    # an integer tagged row of an r x c map: tag key k stands for column r + c - 1 - k
    v = [0] * zeros + [lead] + rest
    c = len(v)
    row = {r + c - 1 - j: x for j, x in enumerate(v) if x}
    got = scaled_vector(row, max(row), r, c)
    assert got == [Fraction(y, lead) for y in v]
    assert got[zeros] == 1 and all(canonical(x) for x in got)
    at = sorted(row)[pick % len(row)]
    got = scaled_vector(row, at, r, c)
    assert got == [Fraction(y, row[at]) for y in v] and all(canonical(x) for x in got)
    q = _rational(num, den)
    assert q == normalize_scalar(Fraction(num, den)) and canonical(q)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_square_check_is_exact(data):
    # integer maps with small or big entries (or those entries over small
    # denominators), seeded with 2-6 integer combinations of the kernel
    # basis, any of them sometimes pushed off the kernel by ±2^j: the one
    # packed product refuses exactly when some seed's own product is nonzero
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(rows, rows + 3))
    entries = data.draw(st.lists(st.one_of(st.just(0), st.integers(-3, 3), big_ints),
                                 min_size=rows * cols, max_size=rows * cols))
    if data.draw(st.booleans()):
        entries = [Fraction(x, data.draw(st.integers(1, 12))) for x in entries]
    m = Matrix(rows, cols, entries)
    basis = nullspace(m)
    seeds = []
    for _ in range(data.draw(st.integers(2, 6))):
        cs = data.draw(st.lists(big_ints, min_size=len(basis), max_size=len(basis)))
        w = [sum((a * v[i] for a, v in zip(cs, basis)), Fraction(0)) for i in range(cols)]
        scale = lcm(*(x.denominator for x in w))
        seeds.append([int(x * scale) for x in w])
    # one push, so that pushed seeds of opposite signs cancel in any sum
    i, push = data.draw(st.integers(0, cols - 1)), 2 ** data.draw(st.integers(0, 120))
    for w in seeds:
        w[i] += data.draw(st.sampled_from((0, 0, 1, -1))) * push
    image = Matrix(cols, len(seeds), [w[i] for i in range(cols) for w in seeds])
    if any(sum(x * y for x, y in zip(row, w)) for w in seeds for row in m.to_rows()):
        with pytest.raises(NonComplexError):
            nullspace(m, image)
    else:
        assert nullspace(m, image) == basis


def test_packed_square_check_needs_its_whole_slot_width(monkeypatch):
    # m = [[3, 2]] sends (2, 1) to 8 and (1, -2) to -1.  The seeds go in
    # last first, so (2, 1) takes slot 0 and (1, -2) slot 1.  The proven
    # width is 2 + 2 bits (largest entry 3, largest seed abs-sum 3); in
    # 3-bit slots the pair packs to (10, -15), which m sends to
    # 8 + 2^3·(-1) = 0
    m, image = Matrix.from_rows([[3, 2]]), Matrix.from_rows([[1, 2], [-2, 1]])
    assert linalg._slot_bits((3).bit_length(), [{0: 2, 1: 1}, {0: 1, 1: -2}]) == 4
    with pytest.raises(NonComplexError):
        nullspace(m, image)
    slot_bits = linalg._slot_bits
    monkeypatch.setattr(linalg, "_slot_bits", lambda bits, seeds: slot_bits(bits, seeds) - 1)
    nullspace(m, image)   # one bit narrower, the two nonzero products cancel


def test_normalize_scalar_refuses_a_float():
    with pytest.raises(TypeError) as exc:
        normalize_scalar(0.5)
    assert str(exc.value) == "exact scalar expected, got float"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def reference_parse_rational(text: str):
    """The string grammar of ``parse_rational`` as a regular expression."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"malformed rational {text!r}")
    num, den = match.groups()
    return int(num) if den is None else normalize_scalar(Fraction(int(num), int(den)))


def _parsed(parse, text: str):
    try:
        x = parse(text)
    except ValueError:
        return ValueError
    return x, type(x)


MALFORMED = ("1/0", "1/02", "+1", " 1", "1 ", "1_0", "١", "1/²", "-", "", "/2", "1/", "1/2/3",
             "--1", "1/-2", "1.5", "1e3", "x")


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.sampled_from(MALFORMED), st.text("0123456789-/+_. ١²", max_size=8),
                      st.from_regex(_RATIONAL, fullmatch=True)))
def test_parse_rational_matches_the_regular_grammar(text):
    assert _parsed(parse_rational, text) == _parsed(reference_parse_rational, text)


def _fraction_sum(terms) -> Fraction:
    return sum((Fraction(a) * b for a, b in terms), Fraction(0))


@pytest.mark.parametrize("build", [dense, sparse])
@settings(max_examples=150, deadline=None)
@given(case=parity_cases(), data=st.data())
def test_mul_matches_fraction_reference(build, case, data):
    rows, ncols = case
    inner = data.draw(st.integers(0, 4))
    flat = data.draw(vectors(ncols * inner))
    other = [flat[k * inner:(k + 1) * inner] for k in range(ncols)]
    if ncols >= 2 and data.draw(st.booleans()):
        # column 1 is minus column 0, against equal rows
        for row in rows:
            row[1] = -row[0]
        other[1] = list(other[0])
    product = build(rows, ncols).mul(build(other, inner))
    want = [[_fraction_sum((row[k], other[k][j]) for k in range(ncols)) for j in range(inner)]
            for row in rows]
    assert product.columns == [{i: row[j] for i, row in enumerate(want) if row[j]}
                               for j in range(inner)]
    reference = dense(want, inner)
    matrix = product if build is dense else product.to_matrix()
    assert matrix == reference
    assert all(canonical(x) for x in matrix.entries)
    if build is sparse:
        assert same_map(product, sparse(want, inner))
        assert not same_map(product, sparse(want + [[0] * inner], inner))
        assert is_zero(product) == reference.is_zero()


def test_rational_serialization():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational(-7) == Fraction(-7)
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    for p in range(-6, 7):
        for q in range(1, 7):
            x = parse_rational(f"{p}/{q}")
            assert x == Fraction(p, q) and canonical(x)
            assert parse_rational(format_rational(x)) == x
        assert format_rational(p) == format_rational(Fraction(p)) == str(p)
    assert parse_rational("-0") == 0 and parse_rational("007/14") == Fraction(1, 2)
    assert all(type(parse_rational(v)) is int for v in ("-0", "4/2", "12", 5))
    for bad in MALFORMED + (None, 1.5, True):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_matrix_shape_validation():
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeMismatchError):
        Matrix.identity(2).mul(Matrix.identity(3))
    with pytest.raises(ShapeMismatchError) as exc:
        SparseMap(2, 3).mul(SparseMap(2, 1))
    assert str(exc.value) == "cannot compose 2x3 with 2x1"
