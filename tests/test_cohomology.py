import dataclasses
import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridial import cohomology as coh
from oridial import cli, oriented
from oridial.cli import main
from oridial.linalg import (
    Matrix,
    NonComplexError,
    ShapeMismatchError,
    column_space_complement,
    nullspace,
    rank,
)
from oridial.deformations import check_deformation, infinitesimal, rigidity_probe
from oridial.extensions import NotCocycleError, build_extension
from oridial.oriented import NoInverseError, OrientedDialgebra, OrientedGroup, sign_group
from oridial.trees import ResourceLimitError, enumerate_trees

from bundles import write_bundle
from conftest import (
    _basis_changed,
    _draw_basis_changed,
    _oriented_fixtures,
    alt_sign_action,
    basis_changed_dual_s3,
    cube_root_two_dialgebra,
    degree1_zero,
    dual_numbers_dialgebra,
    half_triangular,
    in_basis,
    oriented_dual_sign,
    oriented_dual_s3,
    oriented_split_sign,
    oriented_trivial,
    poly3_dialgebra,
    scalar_product_dialgebra,
    split_products_dialgebra,
    zero_dialgebra,
)

from reference_checkers import (
    _axiom_table,
    apply,
    basis,
    bilinear,
    constant,
    order1_deformation,
    series_apply,
    series_bilinear,
    series_mul,
    vec_sub,
    vec_sum,
)
import reference_assembly as ref
from reference_quotient import (
    is_zero,
    reference_dialgebra_cohomology,
    reference_equivariant_cohomology,
    reference_quotient,
    same_map,
    sparse_map,
)

GOLDEN_BUNDLES = Path(__file__).parent / "golden" / "bundles"


def test_cochain_dims():
    assert coh.cochain_dim(2, 0) == 2
    assert coh.cochain_dim(2, 1) == 4
    assert coh.cochain_dim(2, 2) == 16   # 2 trees * 4 inputs * 2 outputs
    assert coh.cochain_dim(3, 3) == 405


def test_delta_zero_level_is_inner_defect():
    # (δm)(x) = x ⊣ m - m ⊢ x; for the split-products fixture with m = e1:
    # x ⊣ e1 = 0 unless x = e2 (giving e1), and e1 ⊢ x = 0
    D = split_products_dialgebra()
    d0 = coh.delta_entries(D, 0)
    m = [0, 1]  # e2
    image = apply(d0.to_matrix(), m)
    # coordinates of CY(1): (input i, output k)
    assert image == [0, 0, 1, 0]  # input e2 gives output e1


def test_delta_squares_to_zero_on_all_fixtures(dia_scalar, dia_dual, dia_zero, dia_split,
                                               dia_poly3, dia_diff3):
    for D in (dia_scalar, dia_dual, dia_zero, dia_split, dia_poly3, dia_diff3):
        for n in range(3):
            first = coh.delta_entries(D, n)
            second = coh.delta_entries(D, n + 1)
            assert is_zero(second.mul(first))


def _level1_delta_by_hand(D):
    """Independent construction of CY(1) -> CY(2) straight from the two
    displayed defect formulas, bypassing the tree/face machinery."""
    d = D.dim
    t2 = {t.word: i for i, t in enumerate(enumerate_trees(2))}
    rows = coh.cochain_dim(d, 2)
    cols = coh.cochain_dim(d, 1)
    out = [[0] * cols for _ in range(rows)]
    for (word, T) in (((2, 1), D.left), ((1, 2), D.right)):
        ti = t2[word]

        def prod(x, y):
            return bilinear(T, x, y)
        for i in range(d):
            for j in range(d):
                for a in range(d):  # gamma(e_a) = e_b
                    for b in range(d):
                        col = a * d + b
                        vec = [0] * d
                        if a == j:  # x1 ∘ gamma(x2)
                            eb = [1 if t == b else 0 for t in range(d)]
                            ei = [1 if t == i else 0 for t in range(d)]
                            vec = [v + w for v, w in zip(vec, prod(ei, eb))]
                        prod_ij = prod([1 if t == i else 0 for t in range(d)],
                                       [1 if t == j else 0 for t in range(d)])
                        vec[b] -= prod_ij[a]  # -gamma(x1 ∘ x2)
                        if a == i:  # gamma(x1) ∘ x2
                            eb = [1 if t == b else 0 for t in range(d)]
                            ej = [1 if t == j else 0 for t in range(d)]
                            vec = [v + w for v, w in zip(vec, prod(eb, ej))]
                        for k in range(d):
                            out[(ti * d * d + i * d + j) * d + k][col] += vec[k]
    return Matrix(rows, cols, [x for row in out for x in row])


def test_level1_delta_matches_independent_evaluator(dia_scalar, dia_dual, dia_diff3):
    for D in (dia_scalar, dia_dual, dia_diff3):
        assert coh.delta_entries(D, 1).to_matrix() == _level1_delta_by_hand(D)


def test_equivariance_matrix_identity(od_dual_sign, od_dual_s3):
    for OD in (od_dual_sign, od_dual_s3):
        for n in (1, 2):
            delta = coh.delta_entries(OD.base, n)
            for g in OD.group.elements():
                before = coh.act_entries(OD, g, n)
                after = coh.act_entries(OD, g, n + 1)
                assert same_map(after.mul(delta), delta.mul(before))


def test_sign_exponent_is_pinned_by_equivariance(od_dual_sign):
    # the alternative exponent n(n-1)/2 breaks commutation at n = 2 and 3
    for n in (2, 3):
        delta = coh.delta_entries(od_dual_sign.base, n)
        good_b = coh.act_entries(od_dual_sign, 1, n)
        good_a = coh.act_entries(od_dual_sign, 1, n + 1)
        assert same_map(good_a.mul(delta), delta.mul(good_b))
        alt_b = alt_sign_action(od_dual_sign, 1, n)
        alt_a = alt_sign_action(od_dual_sign, 1, n + 1)
        assert not same_map(alt_a.mul(delta), delta.mul(alt_b))


def test_action_composes_as_group(od_dual_sign):
    for n in range(4):
        acts = [coh.act_entries(od_dual_sign, g, n) for g in range(2)]
        eye = sparse_map(acts[0].rows, acts[0].rows, {(i, i): 1 for i in range(acts[0].rows)})
        assert same_map(acts[0], eye)
        for g in range(2):
            for h in range(2):
                gh = od_dual_sign.group.mul(g, h)
                assert same_map(acts[g].mul(acts[h]), acts[gh])


def test_equivariant_cohomology_order_six_group(od_dual_s3):
    # |G| = 6 with three sign -1 elements; dimension cross-checked against
    # the explicit-equation system modulo explicit coboundaries
    engine = coh.equivariant_cohomology(od_dual_s3, 1).dim
    solutions = len(nullspace(coh.degree1_system(od_dual_s3)))
    boundaries = rank(coh.total_entries(od_dual_s3, 0))
    assert engine == solutions - boundaries


def test_level1_action_is_plain_conjugation(od_dual_sign):
    # at level 1 the parity of the element does not matter
    g = 1  # the sign -1 element
    rho = od_dual_sign.action[g]
    entries = {}
    for i in range(2):
        for k in range(2):
            for a in range(2):
                for b in range(2):
                    v = rho.at(k, b) * rho.at(a, i)  # rho kb * rho^{-1} ai (involution)
                    if v:
                        entries[i * 2 + k, a * 2 + b] = v
    by_hand = sparse_map(4, 4, entries)
    assert same_map(coh.act_entries(od_dual_sign, g, 1), by_hand)


def test_vertical_differential_p0_and_alternation(od_dual_sign):
    # p = 0: (dγ)(g) = g.γ - γ, so the identity block vanishes
    v = coh.vertical_entries(od_dual_sign, 0, 1)
    act = coh.act_entries(od_dual_sign, 1, 1)
    cd = coh.cochain_dim(2, 1)
    for c in range(cd):
        unit = [0] * cd
        unit[c] = 1
        image = apply(v.to_matrix(), unit)
        assert image[:cd] == [0] * cd  # g = e gives e.γ - γ = 0
        expected = apply(act.to_matrix(), unit)
        got = image[cd:]
        assert got == [a - (1 if i == c else 0) for i, a in enumerate(expected)]

    OD_triv = oriented_trivial(dual_numbers_dialgebra())
    for p in range(3):
        v = coh.vertical_entries(OD_triv, p, 1)
        if p % 2 == 0:
            assert is_zero(v)
        else:
            assert all(v.entries.get((i, i), 0) == 1 for i in range(v.cols))
            assert len(v.entries) == v.cols


def test_bicomplex_squares_and_commutation(od_dual_sign):
    OD = od_dual_sign
    for p in range(3):
        for q in range(1, 3):
            h, v = coh.horizontal_entries(OD, p, q), coh.vertical_entries(OD, p, q)
            assert is_zero(coh.horizontal_entries(OD, p, q + 1).mul(h))
            assert is_zero(coh.vertical_entries(OD, p + 1, q).mul(v))
            assert same_map(coh.horizontal_entries(OD, p + 1, q).mul(v),
                            coh.vertical_entries(OD, p, q + 1).mul(h))


def test_horizontal_p0_is_delta(od_dual_sign):
    assert same_map(coh.horizontal_entries(od_dual_sign, 0, 1),
                    coh.delta_entries(od_dual_sign.base, 1))


def test_total_square_zero_and_noncomplex_guard(od_dual_sign):
    for n in range(3):
        assert is_zero(coh.total_entries(od_dual_sign, n + 1).mul(
            coh.total_entries(od_dual_sign, n)))
    # outside the coherent domain (distinct products + sign element) the
    # machinery must refuse rather than return a wrong number
    bad = oriented_split_sign()
    with pytest.raises(NonComplexError):
        coh.equivariant_cohomology(bad, 1)


def _column(*values):
    return sparse_map(len(values), 1, {(i, 0): v for i, v in enumerate(values)})


def test_square_check_is_exact_with_denominators():
    d_out = sparse_map(1, 2, {(0, 0): 1, (0, 1): Fraction(3, 2)})
    # 1·1/2 + 3/2·(-1/3) = 0: the square check is exact on rational maps too
    result = coh._quotient(d_out, _column(Fraction(1, 2), Fraction(-1, 3)))
    assert (result.dim, result.kernel_dim, result.image_rank) == (0, 1, 1)
    # 1·1/2 + 3/2·(-1/5) = 1/5
    with pytest.raises(NonComplexError):
        coh._quotient(d_out, _column(Fraction(1, 2), Fraction(-1, 5)))


def _sparse(rows: int, cols: int, dense: list) -> coh.SparseMap:
    return sparse_map(rows, cols, {(i, j): x for i, row in enumerate(dense)
                                   for j, x in enumerate(row) if x})


_small_rationals = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quotient_matches_the_product_square_check_and_the_reference(data):
    # d_in's columns are combinations of ker d_out, one entry perturbed in
    # some draws: the quotient refuses exactly the pairs whose product is
    # nonzero and otherwise gives the reference's result
    rows, mid, cols = (data.draw(st.integers(lo, 4)) for lo in (0, 1, 0))
    d_out = _sparse(rows, mid, [data.draw(st.lists(_small_rationals, min_size=mid, max_size=mid))
                                for _ in range(rows)])
    kernel = nullspace(d_out)
    columns = [[sum(data.draw(_small_rationals) * v[i] for v in kernel) for i in range(mid)]
               for _ in range(cols)]
    if cols and data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, mid - 1)), data.draw(st.integers(0, cols - 1))
        columns[j][i] += data.draw(st.sampled_from([1, -1, Fraction(1, 3)]))
    d_in = _sparse(mid, cols, [list(row) for row in zip(*columns)] if cols else [[]] * mid)
    got = _outcome(coh._quotient, d_out, d_in, "fault")
    assert got.startswith("NonComplexError") == (not is_zero(d_out.mul(d_in)))
    assert got == _outcome(reference_quotient, d_out, d_in, "fault")


@pytest.mark.parametrize("d_out, d_in", [
    (_sparse(2, 3, [[1, 2, 0], [0, 0, 1]]), coh.SparseMap(3, 0)),          # no columns in d_in
    (coh.SparseMap(2, 3), _sparse(3, 2, [[1, 2], [0, 0], [Fraction(1, 2), 1]])),   # d_out = 0
    (_sparse(2, 2, [[1, 0], [0, 3]]), coh.SparseMap(2, 1)),                # zero kernel
    (_sparse(2, 2, [[1, 0], [0, 3]]), _sparse(2, 1, [[0], [1]])),          # zero kernel, d_in ≠ 0
    (_sparse(1, 3, [[Fraction(2, 3), 0, Fraction(-1, 2)]]),
     _sparse(3, 2, [[Fraction(3, 4), 0], [5, 7], [1, 0]])),                # Fraction entries
])
def test_quotient_edge_cases_match_the_reference(d_out, d_in):
    assert _outcome(coh._quotient, d_out, d_in, "fault") == \
        _outcome(reference_quotient, d_out, d_in, "fault")


def test_quotient_refuses_a_shape_mismatch_before_any_elimination():
    with mock.patch.object(coh, "nullspace", side_effect=AssertionError("eliminated")), \
            pytest.raises(ShapeMismatchError):
        coh._quotient(coh.SparseMap(2, 3), coh.SparseMap(2, 2))


def test_quotient_raises_when_rank_nullity_fails():
    # an explicit check, so it still holds under python -O
    with mock.patch.object(coh, "column_space_complement", return_value=[]), \
            pytest.raises(RuntimeError, match="rank-nullity"):
        coh._quotient(coh.SparseMap(1, 2), coh.SparseMap(2, 0))


def _annihilated(sm, vec) -> bool:
    """Is sm·vec = 0, summed in Fractions from the unscaled entries?"""
    out = {}
    for (r, c), v in sm.entries.items():
        out[r] = out.get(r, Fraction(0)) + Fraction(v) * vec[c]
    return not any(out.values())


def test_quotient_on_fraction_structure_constants(od_dual_sign):
    # The quotient eliminates integer multiples of δ and Tot.  With Fraction
    # structure constants a lost or wrong scale shows as a changed dimension
    # or as a representative that the unscaled map does not annihilate.
    half = Fraction(1, 2)
    copy = _basis_changed(od_dual_sign, Matrix.from_rows([[1, half], [0, 1]]),
                          Matrix.from_rows([[1, -half], [0, 1]]))
    for n in range(3):
        d_out = coh.delta_entries(copy.base, n)
        res = coh.dialgebra_cohomology(copy.base, n)
        assert res.dim == coh.dialgebra_cohomology(od_dual_sign.base, n).dim
        assert all(_annihilated(d_out, rep) for rep in res.representatives)

        d_out = coh.total_entries(copy, n)
        assert any(type(v) is Fraction for v in d_out.entries.values())
        res = coh.equivariant_cohomology(copy, n)
        assert res.dim == coh.equivariant_cohomology(od_dual_sign, n).dim
        assert len(res.representatives) == res.dim
        assert all(_annihilated(d_out, rep) for rep in res.representatives)
        assert all(next(x for x in rep if x) == 1 for rep in res.representatives)


@pytest.mark.parametrize("D, dims, top_kernel", [
    (poly3_dialgebra(), [3, 2, 2, 2], 47),
    (dual_numbers_dialgebra(), [2, 1, 1, 1, 1], 68),
    (cube_root_two_dialgebra(), [3, 0, 0, 0], 45),
], ids=["poly3-copy-3-then-2", "dual-copy-2-then-1", "cbrt2-copy-3-then-0"])
def test_copies_match_closed_form_dimensions(D, dims, top_kernel):
    # K[u]/(u^m) gives HY^0 = m and HY^n = m − 1 for n ≥ 1; the separable
    # field Q(∛2), which has no derivation, gives HY^0 = 3 and HY^n = 0 for
    # n ≥ 1.  Each is computed in a basis with denominators; at the top level
    # the kernel is far larger than the cohomology, and only the kept
    # representatives are back-substituted
    B = in_basis(oriented_trivial(D), half_triangular(D.dim)).base
    for n, dim in enumerate(dims):
        res = coh.dialgebra_cohomology(B, n)
        d_out = coh.delta_entries(B, n)
        d_in = coh.delta_entries(B, n - 1) if n else coh.SparseMap(d_out.cols, 0)
        reps = sparse_map(d_out.cols, dim, {(i, j): x for j, rep in enumerate(res.representatives)
                                            for i, x in enumerate(rep)})
        assert res.dim == len(res.representatives) == dim
        assert all(_annihilated(d_out, rep) for rep in res.representatives)
        assert column_space_complement(d_in, reps) == list(range(dim))   # independent mod im
    assert res.kernel_dim == top_kernel


class _Captured(Exception):
    """Raised by the patched quotient once it holds the maps it was given."""


def _eliminated_maps(cohomology, *args) -> tuple:
    """The (d_out, d_in) that ``cohomology`` hands to the quotient, not eliminated."""
    seen = []

    def capture(d_out, d_in, *rest):
        seen.append((d_out, d_in))
        raise _Captured

    with mock.patch.object(coh, "_quotient", capture), pytest.raises(_Captured):
        cohomology(*args)
    return seen[0]


def _is_scaled(sm, public, scale: int, reference: dict) -> bool:
    """Is sm, entry for entry, the integer map scale·public and the reference map?"""
    return ((sm.rows, sm.cols) == (public.rows, public.cols)
            and _well_stored(sm)
            and all(type(x) is int for x in sm.entries.values())
            and sm.entries == {key: scale * v for key, v in public.entries.items()}
            and sm.entries == reference)


def _eliminates_scaled_public_maps(OD) -> bool:
    """δ_n and Tot(n), n ≤ 2, reach the quotient as nL·δ and lcm(nL, nR^(n+2))·Tot."""
    D = OD.base
    nL = lcm(*(x.denominator for T in (D.left, D.right) for plane in T for row in plane
               for x in row))
    nR = lcm(*(x.denominator for m in OD.action for x in m.entries))
    deltas = [ref.integer_delta(D, n) for n in range(3)]
    totals = [ref.integer_total(OD, n) for n in range(3)]
    for n in range(3):
        d_out, d_in = _eliminated_maps(coh.dialgebra_cohomology, D, n)
        if not _is_scaled(d_out, coh.delta_entries(D, n), nL, deltas[n]):
            return False
        if n and not _is_scaled(d_in, coh.delta_entries(D, n - 1), nL, deltas[n - 1]):
            return False
        d_out, d_in = _eliminated_maps(coh.equivariant_cohomology, OD, n)
        if not _is_scaled(d_out, coh.total_entries(OD, n), lcm(nL, nR ** (n + 2)), totals[n]):
            return False
        if n and not _is_scaled(d_in, coh.total_entries(OD, n - 1), lcm(nL, nR ** (n + 1)),
                                totals[n - 1]):
            return False
    return True


def test_eliminated_maps_are_scaled_public_maps():
    # dual-S₃ in the basis (1 + u, 1 + 4u) has nL = 3 and nR = 3
    assert all(_eliminates_scaled_public_maps(OD)
               for OD in _oriented_fixtures() + [basis_changed_dual_s3()])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eliminated_maps_are_scaled_public_maps_after_basis_change(data):
    assert _eliminates_scaled_public_maps(_draw_basis_changed(data))


def _well_stored(sm) -> bool:
    """One column dict per column, no stored zero, every row key below ``rows``."""
    return (len(sm.columns) == sm.cols
            and all(x and 0 <= r < sm.rows for col in sm.columns for r, x in col.items()))


def _public_calls(OD, top: int) -> list:
    """(builder name, arguments) of every public map up to level or total degree ``top``."""
    calls = []
    for n in range(top + 1):
        calls.append(("delta_entries", (OD.base, n)))
        calls += [("act_entries", (OD, g, n)) for g in OD.group.elements()]
        calls.append(("total_entries", (OD, n)))
        for p, q in coh.total_blocks(OD, n):
            calls += [("vertical_entries", (OD, p, q)), ("horizontal_entries", (OD, p, q))]
    return calls


def _public_maps(OD) -> list:
    """(engine map, reference entries) for every public map up to n = 2, or
    n = 1 when |G| > 2 or the dimension is 3."""
    top = 1 if OD.group.order > 2 or OD.dim == 3 else 2
    return [(getattr(coh, name)(*args), getattr(ref, name)(*args))
            for name, args in _public_calls(OD, top)]


def _matches_reference_assembly(OD) -> bool:
    return all(_well_stored(sm) and sm.entries == want
               and same_map(sparse_map(sm.rows, sm.cols, want), sm)
               for sm, want in _public_maps(OD))


def test_public_maps_match_the_reference_assembly():
    assert all(_matches_reference_assembly(OD)
               for OD in _oriented_fixtures() + [basis_changed_dual_s3()])


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_public_maps_match_the_reference_assembly_after_basis_change(data):
    assert _matches_reference_assembly(_draw_basis_changed(data))


def test_sparse_map_drops_zeros_and_reads_back_its_entries():
    # the engine builds a map from its columns; the test helper drops zeros
    entries = {(0, 1): 2, (2, 1): Fraction(-1, 3), (1, 0): 5}
    sm = coh.SparseMap(3, 2, [{1: 5}, {0: 2, 2: Fraction(-1, 3)}])
    assert sm.entries == entries
    assert same_map(sparse_map(3, 2, {**entries, (2, 0): 0}), sm)
    assert coh.SparseMap(3, 2).entries == {} and coh.SparseMap(3, 2).columns == [{}, {}]


def _outcome(cohomology, *args) -> str:
    """The repr of a cohomology result, or the error it raised."""
    try:
        return repr(cohomology(*args))
    except NonComplexError as exc:
        return f"NonComplexError: {exc}"


def _matches_rational_reference(OD, top: int) -> bool:
    return all(
        _outcome(coh.dialgebra_cohomology, OD.base, n)
        == _outcome(reference_dialgebra_cohomology, OD.base, n)
        and _outcome(coh.equivariant_cohomology, OD, n)
        == _outcome(reference_equivariant_cohomology, OD, n)
        for n in range(top + 1))


def test_cohomology_matches_the_rational_reference():
    # repr compares the representatives' scalars with their types
    half = Fraction(1, 2)
    copies = [basis_changed_dual_s3(),
              in_basis(oriented_dual_sign(), Matrix.from_rows([[1, half], [-3, 1 - 3 * half]]))]
    for OD in _oriented_fixtures() + copies:
        assert _matches_rational_reference(OD, 1 if OD.group.order > 2 or OD.dim > 2 else 2)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cohomology_matches_the_rational_reference_after_basis_change(data):
    assert _matches_rational_reference(_draw_basis_changed(data), 1)


def _degree0_routes_agree(OD) -> bool:
    """The explicit degree-0 coboundary γ -> (α, β) against Tot(0) -> Tot(1).

    Column i·d + k of Tot(0) = CY(1) is the cochain e_i ↦ e_k, the γ with a
    1 at (k, i); its explicit coboundary, packed, must be that column.
    """
    d = OD.dim
    columns = coh.total_entries(OD, 0).to_matrix().transpose().to_rows()
    for col, column in enumerate(columns):
        i, k = divmod(col, d)
        gamma = Matrix(d, d, [int(r == k and c == i) for r in range(d) for c in range(d)])
        if coh.degree1_pack(OD, *coh.degree1_coboundary(OD, gamma)) != column:
            return False
    return True


def test_degree0_coboundary_matches_total_differential():
    assert all(_degree0_routes_agree(OD) for OD in _oriented_fixtures())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_degree0_coboundary_matches_total_differential_after_basis_change(data):
    assert _degree0_routes_agree(_draw_basis_changed(data))


def test_degree_zero_is_joint_kernel(od_dual_sign):
    result = coh.equivariant_cohomology(od_dual_sign, 0)
    h = coh.horizontal_entries(od_dual_sign, 0, 1).to_matrix()
    v = coh.vertical_entries(od_dual_sign, 0, 1).to_matrix()
    stacked = Matrix.from_rows(h.to_rows() + v.to_rows())
    assert result.dim == len(nullspace(stacked))


def test_trivial_group_collapse(dia_scalar, dia_dual, dia_zero, dia_split):
    for D in (dia_scalar, dia_dual, dia_zero, dia_split):
        OD = oriented_trivial(D)
        for n in (1, 2, 3):
            assert (coh.equivariant_cohomology(OD, n).dim
                    == coh.dialgebra_cohomology(D, n + 1).dim)


def test_zero_products_dimensions():
    for d in (1, 2):
        assert is_zero(coh.delta_entries(zero_dialgebra(d), 0))
    D = zero_dialgebra(2)
    # all coboundaries vanish, so HY(1) is the whole of CY(1)
    res = coh.dialgebra_cohomology(D, 1)
    assert res.dim == 4 and res.kernel_dim == 4 and res.image_rank == 0
    OD = oriented_trivial(D)
    assert coh.equivariant_cohomology(OD, 1).dim == 16  # 2 trees * 8 inputs


def test_degree1_dimension_against_explicit_oracle(od_dual_sign):
    # dimension of the degree-1 cohomology recomputed entirely from the
    # explicit equations: solutions of the displayed system modulo the
    # image of the explicit coboundary map
    engine = coh.equivariant_cohomology(od_dual_sign, 1).dim
    solutions = len(nullspace(coh.degree1_system(od_dual_sign)))
    boundaries = rank(coh.total_entries(od_dual_sign, 0))
    assert engine == solutions - boundaries == 1


def test_scalar_product_cohomology_oracle():
    # brute-force oracle: a level-1 cochain is a cocycle iff it is a
    # derivation for both products; on the 1-dim field that forces 0
    D = scalar_product_dialgebra()
    c = Fraction(1)
    defect = c * 1 * 1 + 1 * 1 * c - c  # x·f(y) + f(x)·y - f(x·y) with x = y = 1
    assert defect != 0  # only f = 0 is a derivation
    res = coh.dialgebra_cohomology(D, 1)
    assert res.dim == 0


def test_representatives_are_cocycles_and_normalized(od_dual_sign):
    res = coh.equivariant_cohomology(od_dual_sign, 1)
    d1 = coh.total_entries(od_dual_sign, 1)
    for rep in res.representatives:
        assert all(v == 0 for v in apply(d1.to_matrix(), rep))
        first = next(x for x in rep if x)
        assert first == 1


def test_degree1_kernel_matches_explicit_equations(od_dual_sign, dia_dual, dia_split):
    # fixtures where the bicomplex is coherent: equal products under a
    # sign action, or a trivially oriented group on anything
    z2_plain = OrientedGroup([[0, 1], [1, 0]], [1, 1])
    plain = OrientedDialgebra(dia_dual, z2_plain,
                              [Matrix.identity(2), Matrix.from_rows([[1, 0], [0, -1]])])
    cases = [od_dual_sign, plain, oriented_trivial(dia_split)]
    for OD in cases:
        d1 = coh.total_entries(OD, 1).to_matrix()
        system = coh.degree1_system(OD)
        k_matrix = nullspace(d1)
        k_explicit = nullspace(system)
        assert len(k_matrix) == len(k_explicit)
        for v in k_matrix:
            assert all(x == 0 for x in apply(system, v))
        for v in k_explicit:
            assert all(x == 0 for x in apply(d1, v))


def test_is_degree1_cocycle_zero_and_coboundaries(od_dual_sign):
    alpha, beta = degree1_zero(od_dual_sign)
    assert coh.is_degree1_cocycle(od_dual_sign, alpha, beta).ok
    rng = random.Random(12)
    for _ in range(10):
        gamma = Matrix(2, 2, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(4)])
        alpha, beta = coh.degree1_coboundary(od_dual_sign, gamma)
        assert coh.is_degree1_cocycle(od_dual_sign, alpha, beta).ok


def test_is_degree1_cocycle_rejects_with_residuals(od_dual_sign):
    alpha, beta = degree1_zero(od_dual_sign)
    beta[0][0][0][0] = 1  # perturb the ⊣ defect
    report = coh.is_degree1_cocycle(od_dual_sign, alpha, beta)
    assert not report.ok
    (check,) = report.checks
    assert check.name == "explicit cocycle equations" and not check.ok
    assert check.witness and all(v != 0 for _, v in check.witness)
    # the witness lists exactly the nonzero residuals, in their order
    assert check.witness == [r for r in coh.degree1_residuals(od_dual_sign, alpha, beta) if r[1]]


def reference_degree1_residuals(OD: OrientedDialgebra, alpha, beta):
    """The explicit degree-1 equations evaluated vector by vector in exact scalars."""
    D = OD.base
    d = D.dim
    beta_l, beta_r = beta
    E = basis(d)
    residuals = []

    def emit(label, vec):
        for k, v in enumerate(vec):
            residuals.append((label + (k,), v))

    def bl(x, y):
        return bilinear(beta_l, x, y)

    def br(x, y):
        return bilinear(beta_r, x, y)

    def l(x, y):
        return bilinear(D.left, x, y)

    def r(x, y):
        return bilinear(D.right, x, y)

    def act(g, x):
        return apply(OD.action[g], x)

    for g in OD.group.elements():
        for h in OD.group.elements():
            gh = OD.group.mul(g, h)
            for i, x in enumerate(E):
                lhs = apply(alpha[gh], x)
                rhs = vec_sum([act(g, apply(alpha[h], act(OD.group.inv(g), x))),
                               apply(alpha[g], x)], d)
                emit(("group-cocycle", g, h, i), vec_sub(lhs, rhs))

    ginv = OD.group.inv
    for g in OD.group.elements():
        eps = OD.sign(g)
        ag = alpha[g]
        for i, x1 in enumerate(E):
            gi_x1 = act(ginv(g), x1)
            for j, x2 in enumerate(E):
                gi_x2 = act(ginv(g), x2)
                for name, prod, defect in (
                    ("left-defect", l, bl),
                    ("right-defect", r, br),
                ):
                    lhs = vec_sum([
                        prod(x1, apply(ag, x2)),
                        [-v for v in apply(ag, prod(x1, x2))],
                        prod(apply(ag, x1), x2),
                    ], d)
                    moved = defect(gi_x1, gi_x2) if eps == 1 else defect(gi_x2, gi_x1)
                    rhs = vec_sub(defect(x1, x2), act(g, moved))
                    emit((name, g, i, j), vec_sub(lhs, rhs))

    compat = [
        ("beta-ll", lambda x, y, z: ([l(x, bl(y, z)), bl(x, l(y, z))],
                                     [bl(l(x, y), z), l(bl(x, y), z)])),
        ("beta-lr", lambda x, y, z: ([l(x, br(y, z)), bl(x, r(y, z))],
                                     [bl(l(x, y), z), l(bl(x, y), z)])),
        ("beta-ml", lambda x, y, z: ([r(x, bl(y, z)), br(x, l(y, z))],
                                     [bl(r(x, y), z), l(br(x, y), z)])),
        ("beta-rr", lambda x, y, z: ([r(x, br(y, z)), br(x, r(y, z))],
                                     [br(r(x, y), z), r(br(x, y), z)])),
        ("beta-outer", lambda x, y, z: ([br(l(x, y), z), r(bl(x, y), z)],
                                        [br(r(x, y), z), r(br(x, y), z)])),
    ]
    for name, fn in compat:
        for i, x in enumerate(E):
            for j, y in enumerate(E):
                for k, z in enumerate(E):
                    lhs, rhs = fn(x, y, z)
                    emit((name, i, j, k), vec_sub(vec_sum(lhs, d), vec_sum(rhs, d)))
    return residuals


def _typed(residuals) -> list:
    return [(label, v, type(v)) for label, v in residuals]


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def reference_degree1_system(OD: OrientedDialgebra) -> Matrix:
    """``reference_degree1_residuals`` on each coordinate unit vector, as a matrix."""
    dim = coh.total_dim(OD, 1)
    cols = [[v for _, v in reference_degree1_residuals(OD, *coh.degree1_unpack(
        OD, [int(i == j) for i in range(dim)]))] for j in range(dim)]
    return Matrix.from_rows(zip(*cols))


def reference_t1_residuals(OD: OrientedDialgebra, alpha, beta):
    """The t¹ parts of the deformation laws of (α, β)'s order-1 deformation, lhs - rhs.

    Evaluated vector by vector in exact scalars, with the labels and in the
    order of ``degree1_residuals``.
    """
    G, d = OD.group, OD.dim
    rd = range(d)
    dfm = order1_deformation(OD, alpha, beta)
    phi = list(zip(*dfm.phi))   # one series per group element
    E = [constant(e, 1) for e in basis(d)]

    def l(x, y):
        return series_bilinear(dfm.mlt, x, y)

    def r(x, y):
        return series_bilinear(dfm.mrt, x, y)

    residuals = []

    def emit(label, lhs, rhs):
        residuals.extend((label + (k,), v) for k, v in enumerate(vec_sub(lhs[1], rhs[1])))

    for g, h in product(G.elements(), repeat=2):
        diff = vec_sub(phi[G.mul(g, h)][1].entries, series_mul(phi[g], phi[h])[1].entries)
        residuals.extend((("group-cocycle", g, h, i, k), diff[k * d + i]) for i in rd for k in rd)
    for g in G.elements():
        moved = [series_apply(phi[g], e) for e in E]
        for i, j in product(rd, repeat=2):
            for name, prod in (("left-defect", l), ("right-defect", r)):
                # Φ(g)(x ∘ y) = Φ(g)x ∘ Φ(g)y, arguments swapped when ε(g) = -1
                rhs = prod(moved[i], moved[j]) if OD.sign(g) == 1 else prod(moved[j], moved[i])
                emit((name, g, i, j), series_apply(phi[g], prod(E[i], E[j])), rhs)
    table = _axiom_table(l, r)
    for name, a in (("beta-ll", 0), ("beta-lr", 2), ("beta-ml", 3), ("beta-rr", 1),
                    ("beta-outer", 4)):
        _, lhs, rhs = table[a]
        for i, j, k in product(rd, repeat=3):
            emit((name, i, j, k), lhs(E[i], E[j], E[k]), rhs(E[i], E[j], E[k]))
    return residuals


@st.composite
def degree1_pairs(draw, OD: OrientedDialgebra, cocycles: bool = False):
    """A random (α, β), the zero pair or the coboundary of a random γ.

    With ``cocycles`` also a random solution of the explicit equations, or
    one with a single coordinate nudged.
    """
    d = OD.dim
    kinds = ["random", "zero", "coboundary"] + (["cocycle", "perturbed"] if cocycles else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return degree1_zero(OD)
    if kind == "coboundary":
        gamma = Matrix(d, d, [draw(_small_fractions) for _ in range(d * d)])
        return coh.degree1_coboundary(OD, gamma)
    if kind in ("cocycle", "perturbed"):
        dim = coh.total_dim(OD, 1)
        vec = [0] * dim
        for v in nullspace(coh.degree1_system(OD)):
            c = draw(st.integers(-2, 2))
            vec = [x + c * y for x, y in zip(vec, v)]
        if kind == "perturbed":
            vec[draw(st.integers(0, dim - 1))] += draw(_small_fractions.filter(bool))
        return coh.degree1_unpack(OD, [coh.normalize_scalar(x) for x in vec])
    alpha = [Matrix(d, d, [draw(_small_fractions) for _ in range(d * d)])
             for _ in OD.group.elements()]
    beta = tuple([[[draw(_small_fractions) for _ in range(d)] for _ in range(d)]
                  for _ in range(d)] for _ in range(2))
    return alpha, beta


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_degree1_residuals_match_the_vector_evaluator(data):
    OD = _draw_basis_changed(data)
    alpha, beta = data.draw(degree1_pairs(OD))
    assert _typed(coh.degree1_residuals(OD, alpha, beta)) == _typed(
        reference_t1_residuals(OD, alpha, beta))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_degree1_verdicts_match_the_reference_equations(data):
    # the reference evaluates the equations in their derivation form; on a
    # valid structure each t¹ law is an invertible transform of that form
    OD = _draw_basis_changed(data)
    alpha, beta = data.draw(degree1_pairs(OD, cocycles=True))
    want = not any(v for _, v in reference_degree1_residuals(OD, alpha, beta))
    assert coh.is_degree1_cocycle(OD, alpha, beta).ok == want


@pytest.mark.parametrize("index", range(len(_oriented_fixtures())))
def test_degree1_system_has_the_reference_nullspace(index):
    OD = _oriented_fixtures()[index]
    assert nullspace(coh.degree1_system(OD)) == nullspace(reference_degree1_system(OD))


def _opposite_law(law_sides):
    """``oriented._law_sides`` under the D^op law: g(x ⊣ y) = gy ⊢ gx when ε(g) = -1.

    Likewise g(x ⊢ y) = gy ⊣ gx.  On the rows of the elements of sign -1,
    the right side of each twisted law is taken from the law with the
    products exchanged, whose outer product is the other one.
    """
    def opposite(G, left, right, Phi, nP, powers):
        sides = law_sides(G, left, right, Phi, nP, powers)
        exchanged = law_sides(G, right, left, Phi, nP, powers)
        for (_, rhs), (_, other) in zip(sides[-2:], exchanged[-2:]):
            for table, alt in zip(rhs, other):
                cell = len(table) // G.order
                for g in G.elements():
                    if G.sign(g) != 1:
                        table[g * cell:(g + 1) * cell] = alt[g * cell:(g + 1) * cell]
        return sides
    return opposite


def test_one_edit_of_the_law_reaches_every_checker(monkeypatch, od_zero_sign):
    # the ε-twisted law lives in one function; the cochain action mirrors
    # the tree, which is the D^op law, so the rigidity candidates of
    # zero-sign solve the D^op equations and fail today's
    OD = od_zero_sign
    candidates = rigidity_probe(OD)
    assert len(candidates) == 8
    original = oriented._law_sides
    bound = [m for name, m in sys.modules.items()
             if name.startswith("oridial") and getattr(m, "_law_sides", None) is original]
    assert sorted(m.__name__ for m in bound) == [
        "oridial.cohomology", "oridial.deformations", "oridial.oriented"]

    def verdicts():
        out = []
        for alpha, beta in candidates:
            try:
                middle = build_extension(OD, alpha, beta).total
            except NotCocycleError:
                middle = None
            out.append((coh.is_degree1_cocycle(OD, alpha, beta).ok, middle,
                        check_deformation(OD, order1_deformation(OD, alpha, beta)).ok))
        return out

    assert verdicts() == [(False, None, False)] * 8
    for module in bound:
        monkeypatch.setattr(module, "_law_sides", _opposite_law(original))
    patched = verdicts()
    assert all(ok and middle is not None and deformed for ok, middle, deformed in patched)
    assert all(oriented.check_oriented_dialgebra(middle).ok for _, middle, _ in patched)
    monkeypatch.undo()
    # build_extension re-checked each middle term under the patched law;
    # today's law rejects them
    assert not any(oriented.check_oriented_dialgebra(middle).ok for _, middle, _ in patched)


def test_degree1_residuals_refuse_a_group_without_inverses():
    # the check_all_sections group: 1·1 = 1, so element 1 has no inverse;
    # whatever needs ρ(g⁻¹) refuses it instead of reading another matrix
    bundle = json.loads((GOLDEN_BUNDLES / "check_all_sections.json").read_text())
    config = coh.DEFAULT_CONFIG
    G = cli._parse_group(bundle["group"], config)
    with pytest.raises(NoInverseError, match="group element 1 has no inverse") as refused:
        G.inv(1)
    assert refused.value.witness == 1 and G.inv(0) == 0
    OD = cli._parse_oriented(bundle, cli._parse_dialgebra(bundle["dialgebra"], config.max_dim), G)
    alpha, beta = cli._parse_cocycle(bundle, OD)
    deformation = cli._parse_deformation(bundle, OD)
    for refuse in (lambda: coh.degree1_residuals(OD, alpha, beta),
                   lambda: coh.degree1_coboundary(OD, Matrix.identity(2)),
                   lambda: coh.act_entries(OD, 1, 1),
                   lambda: coh.equivariant_cohomology(OD, 1),
                   lambda: infinitesimal(OD, deformation)):
        with pytest.raises(NoInverseError):
            refuse()


def test_valid_cocycle_is_checked_without_fractions(fractions_built):
    # dual-S₃ in a basis with denominators: the evaluation runs in integers,
    # so a cocycle with every residual zero builds no Fraction
    OD = basis_changed_dual_s3()
    alpha, beta = coh.degree1_coboundary(OD, Matrix.from_rows([[1, Fraction(1, 3)], [2, -1]]))
    assert any(type(x) is Fraction for m in alpha for x in m.entries)
    report, built = fractions_built(coh.is_degree1_cocycle, OD, alpha, beta)
    assert report.ok
    assert built == []


def test_degree1_residuals_refuse_a_wrongly_shaped_alpha(od_dual_sign):
    _, beta = degree1_zero(od_dual_sign)
    with pytest.raises(ShapeMismatchError):
        coh.is_degree1_cocycle(od_dual_sign, [Matrix.identity(3)] * 2, beta)


def test_pack_unpack_roundtrip(od_dual_sign):
    dim = coh.total_dim(od_dual_sign, 1)
    vec = [Fraction(i - 7, 3) for i in range(dim)]
    alpha, beta = coh.degree1_unpack(od_dual_sign, vec)
    assert coh.degree1_pack(od_dual_sign, alpha, beta) == [
        coh.normalize_scalar(x) for x in vec]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pack_unpack_roundtrip_after_basis_change(data):
    OD = _draw_basis_changed(data)
    d, dim = OD.dim, coh.total_dim(OD, 1)
    vec = data.draw(st.lists(_small_fractions, min_size=dim, max_size=dim))
    alpha, (beta_l, beta_r) = coh.degree1_unpack(OD, vec)
    # the layout: β⊢ at tree [1 2], then β⊣ at tree [2 1], then α(g)ᵀ for each g
    assert beta_r[d - 1][0][d - 1] == vec[(d - 1) * d * d + d - 1]
    assert beta_l[0][d - 1][0] == vec[d ** 3 + (d - 1) * d]
    assert alpha[-1].at(d - 1, 0) == vec[2 * d ** 3 + (OD.group.order - 1) * d * d + d - 1]
    assert coh.degree1_pack(OD, alpha, (beta_l, beta_r)) == [
        coh.normalize_scalar(x) for x in vec]
    pair = data.draw(degree1_pairs(OD))
    assert coh.degree1_unpack(OD, coh.degree1_pack(OD, *pair)) == (pair[0], tuple(pair[1]))


def test_resource_caps(od_dual_sign, dia_dual):
    # one refusal per field: the size of the target, the dimension, the group order
    for build, args, refusal in (
        (coh.equivariant_cohomology, (od_dual_sign, 5),
         "Tot\\(6\\) has dimension 160000, above the cap 32768"),
        (coh.delta_entries, (dia_dual, 2, coh.EngineConfig(max_dim=1)),
         "dimension 2 exceeds cap 1"),
        (coh.equivariant_cohomology, (od_dual_sign, 1, coh.EngineConfig(max_group=1)),
         "group order 2 exceeds cap 1"),
    ):
        with pytest.raises(ResourceLimitError, match=refusal):
            build(*args)
    assert [f.name for f in dataclasses.fields(coh.EngineConfig)] == [
        "max_group", "max_dim", "max_cochain_dim"]


def _refuse_writes(monkeypatch) -> None:
    """Fail on any entry written: by a builder or a block writer."""
    def refuse(*args):
        raise AssertionError("an entry was written before the size check")

    for writer in ("_delta", "_act", "_write_horizontal", "_write_vertical"):
        monkeypatch.setattr(coh, writer, refuse)


def test_default_cap_refuses_before_assembly(monkeypatch, tmp_path, capsys):
    # δ: CY(5) -> CY(6) of a dim-4 algebra is 2,162,688 x 172,032; the
    # refusal must come before a single entry is written
    _refuse_writes(monkeypatch)
    with pytest.raises(ResourceLimitError, match="CY\\(6\\) has dimension 2162688"):
        coh.dialgebra_cohomology(zero_dialgebra(4), 5)
    zero4 = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
    path = write_bundle(tmp_path / "d4.json", {"dialgebra": {"dim": 4, "left": zero4,
                                                             "right": zero4}})
    assert main(["cohomology", "--n", "5", "--input", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "resource cap" in json.loads(err)["error"]


def test_every_assembly_refuses_before_writing_an_entry(monkeypatch):
    _refuse_writes(monkeypatch)
    dim4, s3 = oriented_trivial(zero_dialgebra(4)), oriented_dual_s3()
    dim5 = oriented_trivial(zero_dialgebra(5))
    # Tot(6) of dual-S₃ holds the block (6, 1) of dimension 6⁶·4; the target
    # is checked before the dimension and the group order, and all before any entry
    small_group = coh.EngineConfig(max_group=2)
    tot6 = f"Tot\\(6\\) has dimension {coh.total_dim(s3, 6)}"
    for build, args, target in (
        (coh.act_entries, (dim4, 0, 6), "CY\\(6\\) has dimension 2162688"),
        (coh.act_entries, (dim5, 0, 1), "dimension 5 exceeds cap 4"),
        (coh.delta_entries, (zero_dialgebra(5), 0), "dimension 5 exceeds cap 4"),
        (coh.vertical_entries, (s3, 6, 1), "block \\(7, 1\\) has dimension 1119744"),
        (coh.vertical_entries, (dim5, 0, 1), "dimension 5 exceeds cap 4"),
        (coh.horizontal_entries, (s3, 5, 1), "block \\(5, 2\\) has dimension 124416"),
        (coh.total_entries, (s3, 5), tot6),
        (coh.total_entries, (dim5, 0), "dimension 5 exceeds cap 4"),
        (coh.equivariant_cohomology, (s3, 5), tot6),
        (coh.equivariant_cohomology, (s3, 5, small_group), tot6),
        (coh.equivariant_cohomology, (s3, 1, small_group), "group order 6 exceeds cap 2"),
        (coh.equivariant_cohomology, (s3, 1, coh.EngineConfig(max_dim=1)),
         "dimension 2 exceeds cap 1"),
    ):
        with pytest.raises(ResourceLimitError, match=target):
            build(*args)


def test_an_unbounded_level_is_refused_before_any_size(monkeypatch, dia_dual, od_dual_sign):
    # a level above trees.MAX_LEVEL = 12 is refused in constant time, so a
    # huge n never reaches the Catalan numbers of its sizes; level 12 itself
    # reaches the size check
    for build, args, space in ((coh.dialgebra_cohomology, (dia_dual, 11), "CY\\(12\\)"),
                               (coh.equivariant_cohomology, (od_dual_sign, 10), "Tot\\(11\\)")):
        with pytest.raises(ResourceLimitError, match=f"^{space} has dimension"):
            build(*args)
    _refuse_writes(monkeypatch)

    def refuse(n):
        raise AssertionError("a size was computed before the level check")

    monkeypatch.setattr(coh, "catalan", refuse)
    for build, args, level in (
        (coh.dialgebra_cohomology, (dia_dual, 12), 13),
        (coh.dialgebra_cohomology, (dia_dual, 10 ** 7), 10 ** 7 + 1),
        (coh.delta_entries, (dia_dual, 10 ** 7), 10 ** 7 + 1),
        (coh.equivariant_cohomology, (od_dual_sign, 11), 13),
        (coh.equivariant_cohomology, (od_dual_sign, 10 ** 6), 10 ** 6 + 2),
        (coh.total_entries, (od_dual_sign, 10 ** 6), 10 ** 6 + 2),
        (coh.act_entries, (od_dual_sign, 1, 10 ** 6), 10 ** 6),
        (coh.vertical_entries, (od_dual_sign, 0, 10 ** 6), 10 ** 6),
        (coh.horizontal_entries, (od_dual_sign, 0, 10 ** 6), 10 ** 6 + 1),
    ):
        with pytest.raises(ResourceLimitError, match=f"^tree level {level} exceeds cap 12$"):
            build(*args)


def test_an_unbounded_group_degree_is_refused_before_any_power(monkeypatch, od_dual_sign):
    # a block next to group degree p has |G|^p group slots or more, so with
    # |G| >= 2 a p above cap 15 (the bit length of 32,768, less one) is
    # refused before the power: 24 ** 10 ** 7 alone takes seconds, and the
    # size message could not print it; p = 15 itself reaches the size check
    for build, space in ((coh.vertical_entries, "block \\(16, 1\\)"),
                         (coh.horizontal_entries, "block \\(15, 2\\)")):
        with pytest.raises(ResourceLimitError, match=f"^{space} has dimension"):
            build(od_dual_sign, 15, 1)
    _refuse_writes(monkeypatch)

    class Powerless(int):
        def __pow__(self, exponent):
            raise AssertionError("a power of the group order was computed before the degree check")

    monkeypatch.setattr(od_dual_sign.group, "order", Powerless(2))
    for build in (coh.vertical_entries, coh.horizontal_entries):
        for p, config, cap in ((16, coh.DEFAULT_CONFIG, 15), (10 ** 6, coh.DEFAULT_CONFIG, 15),
                               (10 ** 7, coh.DEFAULT_CONFIG, 15),
                               (21, coh.EngineConfig(max_cochain_dim=2 ** 21 - 1), 20)):
            with pytest.raises(ResourceLimitError, match=f"^group degree {p} exceeds cap {cap}$"):
                build(od_dual_sign, p, 1, config)


def test_cochain_dim_cap_admits_exactly_its_bound(dia_dual, od_dual_sign):
    for build, args, rows in (
        (coh.delta_entries, (dia_dual, 2), coh.cochain_dim(2, 3)),
        (coh.act_entries, (od_dual_sign, 1, 2), coh.cochain_dim(2, 2)),
        (coh.vertical_entries, (od_dual_sign, 1, 1), coh.bicochain_dim(od_dual_sign, 2, 1)),
        (coh.horizontal_entries, (od_dual_sign, 1, 1), coh.bicochain_dim(od_dual_sign, 1, 2)),
        (coh.total_entries, (od_dual_sign, 1), coh.total_dim(od_dual_sign, 2)),
    ):
        assert build(*args, coh.EngineConfig(max_cochain_dim=rows)).rows == rows
        with pytest.raises(ResourceLimitError):
            build(*args, coh.EngineConfig(max_cochain_dim=rows - 1))


def test_builders_refuse_negative_levels_and_q_zero(dia_dual, od_dual_sign):
    level, q_zero = "cochain level must be non-negative", "the reduced bicomplex keeps only q >= 1"
    degree, p_negative = "total degree must be non-negative", "group degree must be non-negative"
    for build, args, text in (
        (coh.delta_entries, (dia_dual, -1), level),
        (coh.dialgebra_cohomology, (dia_dual, -1), level),
        (coh.vertical_entries, (od_dual_sign, 0, 0), q_zero),
        (coh.horizontal_entries, (od_dual_sign, 0, 0), q_zero),
        (coh.vertical_entries, (od_dual_sign, -1, 1), p_negative),
        (coh.horizontal_entries, (od_dual_sign, -1, 1), p_negative),
        (coh.total_entries, (od_dual_sign, -1), degree),
        (coh.equivariant_cohomology, (od_dual_sign, -1), degree),
    ):
        with pytest.raises(ValueError) as refused:
            build(*args)
        assert type(refused.value) is ValueError and str(refused.value) == text


def test_public_maps_hold_canonical_scalars():
    # an entry is an int or a Fraction that is not an integer, never Fraction(-9, 1)
    half = Fraction(1, 2)
    copies = [basis_changed_dual_s3(),
              in_basis(oriented_dual_sign(), Matrix.from_rows([[1, half], [-3, 1 - 3 * half]]))]
    # and every fixture in the basis P = ½·I + (the ones above the diagonal)
    copies += [in_basis(OD, Matrix(OD.dim, OD.dim, [half if i == j else int(i < j)
                                                    for i in range(OD.dim)
                                                    for j in range(OD.dim)]))
               for OD in _oriented_fixtures()]
    for OD in copies:
        bad = [(name, args[1:], x) for name, args in _public_calls(OD, 2)
               for x in getattr(coh, name)(*args).entries.values()
               if not (type(x) is int or type(x) is Fraction and x.denominator != 1)]
        assert bad == []
