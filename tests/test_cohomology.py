import random
from fractions import Fraction

import pytest

from oridial import cohomology as coh
from oridial.dialgebra import Dialgebra, bilinear, zero_tensor
from oridial.linalg import Matrix, NonComplexError, nullspace, rank
from oridial.oriented import OrientedDialgebra, OrientedGroup, sign_group
from oridial.trees import ResourceLimitError, enumerate_trees

from conftest import (
    dual_numbers_dialgebra,
    oriented_dual_s3,
    oriented_dual_sign,
    oriented_split_sign,
    oriented_trivial,
    oriented_zero_sign,
    scalar_product_dialgebra,
    split_products_dialgebra,
    zero_dialgebra,
)


def test_cochain_dims():
    assert coh.cochain_dim(2, 0) == 2
    assert coh.cochain_dim(2, 1) == 4
    assert coh.cochain_dim(2, 2) == 16   # 2 trees * 4 inputs * 2 outputs
    assert coh.cochain_dim(3, 3) == 405


def test_delta_zero_level_is_inner_defect():
    # (δm)(x) = x ⊣ m - m ⊢ x; for the split-products fixture with m = e1:
    # x ⊣ e1 = 0 unless x = e2 (giving e1), and e1 ⊢ x = 0
    D = split_products_dialgebra()
    d0 = coh.delta_matrix(D, 0)
    m = [0, 1]  # e2
    image = d0.matvec(m)
    # coordinates of CY(1): (input i, output k)
    assert image == [0, 0, 1, 0]  # input e2 gives output e1


def test_delta_squares_to_zero_on_all_fixtures(dia_scalar, dia_dual, dia_zero, dia_split,
                                               dia_poly3, dia_diff3):
    for D in (dia_scalar, dia_dual, dia_zero, dia_split, dia_poly3, dia_diff3):
        for n in range(3):
            first = coh.delta_entries(D, n)
            second = coh.delta_entries(D, n + 1)
            assert second.mul(first).is_zero()


def _level1_delta_by_hand(D):
    """Independent construction of CY(1) -> CY(2) straight from the two
    displayed defect formulas, bypassing the tree/face machinery."""
    d = D.dim
    t2 = {t.word: i for i, t in enumerate(enumerate_trees(2))}
    rows = coh.cochain_dim(d, 2)
    cols = coh.cochain_dim(d, 1)
    out = [[0] * cols for _ in range(rows)]
    for (word, prod) in (((2, 1), D.lmul), ((1, 2), D.rmul)):
        ti = t2[word]
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
                            out[coh.cochain_pos(d, 2, ti, (i, j), k)][col] += vec[k]
    return Matrix(rows, cols, [x for row in out for x in row])


def test_level1_delta_matches_independent_evaluator(dia_scalar, dia_dual, dia_diff3):
    for D in (dia_scalar, dia_dual, dia_diff3):
        assert coh.delta_matrix(D, 1) == _level1_delta_by_hand(D)


def test_equivariance_matrix_identity(od_dual_sign, od_dual_s3):
    for OD in (od_dual_sign, od_dual_s3):
        for n in (1, 2):
            delta = coh.delta_entries(OD.base, n)
            for g in OD.group.elements():
                before = coh.act_entries(OD, g, n)
                after = coh.act_entries(OD, g, n + 1)
                assert after.mul(delta).equals(delta.mul(before))


def test_sign_exponent_is_pinned_by_equivariance(od_dual_sign):
    # the alternative exponent n(n-1)/2 breaks commutation at n = 2 and 3
    alt = lambda n: n * (n - 1) // 2
    for n in (2, 3):
        delta = coh.delta_entries(od_dual_sign.base, n)
        good_b = coh.act_entries(od_dual_sign, 1, n)
        good_a = coh.act_entries(od_dual_sign, 1, n + 1)
        assert good_a.mul(delta).equals(delta.mul(good_b))
        alt_b = coh.act_entries(od_dual_sign, 1, n, sign_exponent=alt)
        alt_a = coh.act_entries(od_dual_sign, 1, n + 1, sign_exponent=alt)
        assert not alt_a.mul(delta).equals(delta.mul(alt_b))


def test_action_composes_as_group(od_dual_sign):
    for n in range(4):
        acts = [coh.act_entries(od_dual_sign, g, n) for g in range(2)]
        eye = coh.SparseMap(acts[0].rows, acts[0].rows)
        for i in range(acts[0].rows):
            eye.add(i, i, 1)
        assert acts[0].equals(eye)
        for g in range(2):
            for h in range(2):
                gh = od_dual_sign.group.mul(g, h)
                assert acts[g].mul(acts[h]).equals(acts[gh])


def test_equivariant_cohomology_order_six_group(od_dual_s3):
    # |G| = 6 with three sign -1 elements; dimension cross-checked against
    # the explicit-equation system modulo explicit coboundaries
    engine = coh.equivariant_cohomology(od_dual_s3, 1).dim
    solutions = len(nullspace(coh.degree1_system(od_dual_s3)))
    boundaries = rank(coh.degree1_coboundary_matrix(od_dual_s3))
    assert engine == solutions - boundaries


def test_level1_action_is_plain_conjugation(od_dual_sign):
    # at level 1 the parity of the element does not matter
    g = 1  # the sign -1 element
    rho = od_dual_sign.action[g]
    by_hand = coh.SparseMap(4, 4)
    for i in range(2):
        for k in range(2):
            for a in range(2):
                for b in range(2):
                    v = rho.at(k, b) * rho.at(a, i)  # rho kb * rho^{-1} ai (involution)
                    if v:
                        by_hand.add(i * 2 + k, a * 2 + b, v)
    assert coh.act_entries(od_dual_sign, g, 1).equals(by_hand)


def test_act_on_cochain_identity_and_matrix_agreement(od_dual_sign):
    rng = random.Random(6)
    for n in (0, 1, 2):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(coh.cochain_dim(2, n))]
        f = coh.Cochain(n, coeffs)
        assert coh.act_on_cochain(od_dual_sign, 0, f).coeffs == coeffs
        moved = coh.act_on_cochain(od_dual_sign, 1, f)
        assert moved.coeffs == coh.act_entries(od_dual_sign, 1, n).matvec(coeffs)


def test_vertical_differential_p0_and_alternation(od_dual_sign):
    # p = 0: (dγ)(g) = g.γ - γ, so the identity block vanishes
    v = coh.vertical_entries(od_dual_sign, 0, 1)
    act = coh.act_entries(od_dual_sign, 1, 1)
    cd = coh.cochain_dim(2, 1)
    for c in range(cd):
        unit = [0] * cd
        unit[c] = 1
        image = v.matvec(unit)
        assert image[:cd] == [0] * cd  # g = e gives e.γ - γ = 0
        expected = act.matvec(unit)
        got = image[cd:]
        assert got == [a - (1 if i == c else 0) for i, a in enumerate(expected)]

    OD_triv = oriented_trivial(dual_numbers_dialgebra())
    for p in range(3):
        v = coh.vertical_entries(OD_triv, p, 1)
        if p % 2 == 0:
            assert v.is_zero()
        else:
            assert all(v.entries.get((i, i), 0) == 1 for i in range(v.cols))
            assert len(v.entries) == v.cols


def test_bicomplex_squares_and_commutation(od_dual_sign):
    OD = od_dual_sign
    for p in range(3):
        for q in range(1, 3):
            h, v = coh.horizontal_entries(OD, p, q), coh.vertical_entries(OD, p, q)
            assert coh.horizontal_entries(OD, p, q + 1).mul(h).is_zero()
            assert coh.vertical_entries(OD, p + 1, q).mul(v).is_zero()
            assert coh.horizontal_entries(OD, p + 1, q).mul(v).equals(
                coh.vertical_entries(OD, p, q + 1).mul(h))


def test_horizontal_p0_is_delta(od_dual_sign):
    assert coh.horizontal_entries(od_dual_sign, 0, 1).equals(
        coh.delta_entries(od_dual_sign.base, 1))


def test_total_square_zero_and_noncomplex_guard(od_dual_sign):
    for n in range(3):
        assert coh.total_entries(od_dual_sign, n + 1).mul(
            coh.total_entries(od_dual_sign, n)).is_zero()
    # outside the coherent domain (distinct products + sign element) the
    # machinery must refuse rather than return a wrong number
    bad = oriented_split_sign()
    with pytest.raises(NonComplexError):
        coh.equivariant_cohomology(bad, 1)


def _column(*values):
    sm = coh.SparseMap(len(values), 1)
    for i, v in enumerate(values):
        sm.add(i, 0, v)
    return sm


def test_square_check_is_exact_with_denominators():
    d_out = coh.SparseMap(1, 2)
    d_out.add(0, 0, 1)
    d_out.add(0, 1, Fraction(3, 2))
    # 1·1/2 + 3/2·(-1/3) = 0; it stays 0 only if d_out is scaled by rows
    # and d_in by columns
    result = coh._quotient(d_out, _column(Fraction(1, 2), Fraction(-1, 3)))
    assert (result.dim, result.kernel_dim, result.image_rank) == (0, 1, 1)
    # 1·1/2 + 3/2·(-1/5) = 1/5
    with pytest.raises(NonComplexError):
        coh._quotient(d_out, _column(Fraction(1, 2), Fraction(-1, 5)))


def _basis_changed(OD: OrientedDialgebra, P: Matrix, P_inv: Matrix) -> OrientedDialgebra:
    """OD in the basis of P's columns: T'(a, b) = P⁻¹T(Pa, Pb), ρ'(g) = P⁻¹ρ(g)P."""
    cols = P.transpose().to_rows()

    def tensor(T):
        return [[P_inv.matvec(bilinear(T, a, b)) for b in cols] for a in cols]

    base = Dialgebra(OD.dim, tensor(OD.base.left), tensor(OD.base.right))
    return OrientedDialgebra(base, OD.group, [P_inv.mul(rho).mul(P) for rho in OD.action])


def _annihilated(sm, vec) -> bool:
    """Is sm·vec = 0, summed in Fractions from the unscaled entries?"""
    out = {}
    for (r, c), v in sm.entries.items():
        out[r] = out.get(r, Fraction(0)) + Fraction(v) * vec[c]
    return not any(out.values())


def test_quotient_on_fraction_structure_constants(od_dual_sign):
    # The quotient eliminates integer-scaled copies of δ and Tot: the rows
    # of d_out and the columns of d_in.  With Fraction structure constants
    # a wrong axis or a lost scale shows as a changed dimension or as a
    # representative that the unscaled map does not annihilate.
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


def test_degree_zero_is_joint_kernel(od_dual_sign):
    result = coh.equivariant_cohomology(od_dual_sign, 0)
    h = coh.horizontal_entries(od_dual_sign, 0, 1).to_matrix()
    v = coh.vertical_entries(od_dual_sign, 0, 1).to_matrix()
    stacked = Matrix.from_rows(h.to_rows() + v.to_rows())
    assert result.dim == len(nullspace(stacked))


def test_trivial_group_collapse(dia_scalar, dia_dual, dia_zero, dia_split):
    for D in (dia_scalar, dia_dual, dia_zero, dia_split):
        OD = oriented_trivial(D)
        for n in (1, 2):
            assert (coh.equivariant_cohomology(OD, n).dim
                    == coh.dialgebra_cohomology(D, n + 1).dim)


def test_zero_products_dimensions():
    for d in (1, 2):
        assert coh.delta_matrix(zero_dialgebra(d), 0).is_zero()
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
    boundaries = rank(coh.degree1_coboundary_matrix(od_dual_sign))
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
        assert all(v == 0 for v in d1.matvec(rep))
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
            assert all(x == 0 for x in system.matvec(v))
        for v in k_explicit:
            assert all(x == 0 for x in d1.matvec(v))


def test_is_degree1_cocycle_zero_and_coboundaries(od_dual_sign):
    alpha, beta = coh.degree1_zero(od_dual_sign)
    assert coh.is_degree1_cocycle(od_dual_sign, alpha, beta).ok
    rng = random.Random(12)
    for _ in range(10):
        gamma = Matrix(2, 2, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(4)])
        alpha, beta = coh.degree1_coboundary(od_dual_sign, gamma)
        assert coh.is_degree1_cocycle(od_dual_sign, alpha, beta).ok


def test_is_degree1_cocycle_rejects_with_residuals(od_dual_sign):
    alpha, beta = coh.degree1_zero(od_dual_sign)
    beta[0][0][0][0] = 1  # perturb the ⊣ defect
    report = coh.is_degree1_cocycle(od_dual_sign, alpha, beta)
    assert not report.ok
    assert report.residuals and all(v != 0 for _, v in report.residuals)


def test_pack_unpack_roundtrip(od_dual_sign):
    dim = coh.total_dim(od_dual_sign, 1)
    vec = [Fraction(i - 7, 3) for i in range(dim)]
    alpha, beta = coh.degree1_unpack(od_dual_sign, vec)
    assert coh.degree1_pack(od_dual_sign, alpha, beta) == [
        coh.normalize_scalar(x) for x in vec]


def test_total_element_pack_roundtrip(od_dual_sign):
    vec = list(range(coh.total_dim(od_dual_sign, 2)))
    element = coh.unpack_total(od_dual_sign, 2, vec)
    assert sorted(element.blocks) == [(0, 3), (1, 2), (2, 1)]
    assert coh.pack_total(od_dual_sign, element) == vec


def test_cochain_serialization_roundtrip(od_dual_sign):
    f = coh.Cochain(1, [Fraction(1, 2), 0, -3, Fraction(7, 5)])
    data = coh.cochain_to_json(f)
    assert data == {"level": 1, "coeffs": ["1/2", "0", "-3", "7/5"]}
    assert coh.cochain_from_json(data, 2) == f
    with pytest.raises(ValueError):
        coh.cochain_from_json({"level": 2, "coeffs": ["1"]}, 2)

    vec = [Fraction(i, 3) for i in range(coh.total_dim(od_dual_sign, 1))]
    element = coh.unpack_total(od_dual_sign, 1, vec)
    data = coh.total_element_to_json(element)
    assert set(data["blocks"]) == {"0,2", "1,1"}
    back = coh.total_element_from_json(od_dual_sign, data)
    assert coh.pack_total(od_dual_sign, back) == [coh.normalize_scalar(x) for x in vec]


def test_resource_caps(od_dual_sign, dia_dual):
    with pytest.raises(ResourceLimitError):
        coh.equivariant_cohomology(od_dual_sign, 3)
    tight = coh.EngineConfig(max_dense_cells=10)
    with pytest.raises(ResourceLimitError):
        coh.delta_matrix(dia_dual, 2, tight)
    small_levels = coh.EngineConfig(max_level=2)
    with pytest.raises(ResourceLimitError):
        coh.delta_entries(dia_dual, 2, small_levels)
