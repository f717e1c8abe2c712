import random
from fractions import Fraction
from itertools import product

import pytest

from oridial import cohomology as coh
from oridial.dialgebra import Check, Dialgebra, check_axioms, zero_tensor
from oridial.extensions import (
    ExtensionInvalidError,
    NotCocycleError,
    NotSectionError,
    SingularExtension,
    build_extension,
    canonical_section,
    check_extension,
    cocycles_cohomologous,
    extract_cocycle,
)
from oridial.linalg import Matrix, ShapeMismatchError, nullspace
from oridial.oriented import OrientedDialgebra

from conftest import degree1_zero, dual_numbers_dialgebra, oriented_trivial
from reference_checkers import apply, bilinear


def sample_cocycles(OD, count, seed=0):
    """Random exact combinations of a basis of the explicit cocycle space."""
    basis = nullspace(coh.degree1_system(OD))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vec = [0] * coh.total_dim(OD, 1)
        for b in basis:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            vec = [x + c * y for x, y in zip(vec, b)]
        out.append(coh.degree1_unpack(OD, vec))
    return out


def test_zero_cocycle_gives_split_extension(od_dual_sign):
    alpha, beta = degree1_zero(od_dual_sign)
    E = build_extension(od_dual_sign, alpha, beta)
    B = E.total
    d = 2
    # (a1, x1) ⊣ (a2, x2) = (a1 ⊣ x2 + x1 ⊣ a2, x1 ⊣ x2) when β = 0
    rng = random.Random(1)
    for _ in range(10):
        a1, x1, a2, x2 = ([rng.randint(-3, 3) for _ in range(d)] for _ in range(4))
        left = od_dual_sign.base.left
        got = bilinear(B.base.left, a1 + x1, a2 + x2)
        kernel_part = [u + v for u, v in zip(bilinear(left, a1, x2), bilinear(left, x1, a2))]
        base_part = bilinear(left, x1, x2)
        assert got == kernel_part + base_part
    # split action: g(a, x) = (ga, gx)
    for g in range(2):
        for a in range(d):
            for x in range(d):
                vec = [0] * (2 * d)
                vec[a] += 1
                vec[d + x] += 1
                image = apply(B.action[g], vec)
                rho = od_dual_sign.action[g]
                assert image == ([rho.at(r, a) for r in range(d)]
                                 + [rho.at(r, x) for r in range(d)])


def test_round_trip_with_canonical_section(od_dual_sign):
    for alpha, beta in sample_cocycles(od_dual_sign, 8, seed=2):
        E = build_extension(od_dual_sign, alpha, beta)
        assert check_extension(od_dual_sign, E).ok
        a2, b2 = extract_cocycle(od_dual_sign, E, canonical_section(E))
        assert coh.degree1_pack(od_dual_sign, a2, b2) == coh.degree1_pack(
            od_dual_sign, alpha, beta)


def test_extraction_from_other_sections_is_cohomologous(od_dual_sign):
    rng = random.Random(3)
    for alpha, beta in sample_cocycles(od_dual_sign, 4, seed=4):
        E = build_extension(od_dual_sign, alpha, beta)
        gamma = Matrix(2, 2, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(4)])
        s = canonical_section(E)
        shift = E.inclusion.mul(gamma)
        s2 = Matrix(4, 2, [a + b for a, b in zip(s.entries, shift.entries)])
        a2, b2 = extract_cocycle(od_dual_sign, E, s2)
        cert = cocycles_cohomologous(od_dual_sign, (alpha, beta), (a2, b2))
        assert cert is not None
        da, db = coh.degree1_coboundary(od_dual_sign, cert)
        diff = [x - y for x, y in zip(coh.degree1_pack(od_dual_sign, alpha, beta),
                                      coh.degree1_pack(od_dual_sign, a2, b2))]
        assert coh.degree1_pack(od_dual_sign, da, db) == [
            coh.normalize_scalar(v) for v in diff]


def test_extract_rejects_non_section(od_dual_sign):
    alpha, beta = degree1_zero(od_dual_sign)
    E = build_extension(od_dual_sign, alpha, beta)
    with pytest.raises(NotSectionError):
        extract_cocycle(od_dual_sign, E, Matrix.zeros(4, 2))
    with pytest.raises(NotSectionError):
        extract_cocycle(od_dual_sign, E, Matrix.zeros(2, 4).transpose())


def test_check_and_extract_refuse_misshaped_maps(od_dual_sign):
    E = build_extension(od_dual_sign, *degree1_zero(od_dual_sign))
    swapped = SingularExtension(E.total, E.projection, E.inclusion)
    with pytest.raises(ShapeMismatchError) as exc:
        check_extension(od_dual_sign, swapped)
    assert str(exc.value) == "i must be 4x2 and p 2x4"
    with pytest.raises(NotSectionError) as exc:
        extract_cocycle(od_dual_sign, E, Matrix.identity(2))
    assert str(exc.value) == "section must be 4x2"


def test_build_rejects_non_cocycle(od_dual_sign):
    alpha, beta = degree1_zero(od_dual_sign)
    beta[0][1][1][0] = 1
    with pytest.raises(NotCocycleError):
        build_extension(od_dual_sign, alpha, beta)


def test_identical_pairs_give_zero_certificate(od_dual_sign):
    (pair,) = sample_cocycles(od_dual_sign, 1, seed=5)
    cert = cocycles_cohomologous(od_dual_sign, pair, pair)
    assert cert is not None and cert.is_zero()


def test_coboundary_pair_is_in_zero_class(od_dual_sign):
    gamma = Matrix(2, 2, [1, 2, Fraction(1, 2), -1])
    pair = coh.degree1_coboundary(od_dual_sign, gamma)
    zero = degree1_zero(od_dual_sign)
    cert = cocycles_cohomologous(od_dual_sign, pair, zero)
    assert cert is not None
    da, db = coh.degree1_coboundary(od_dual_sign, cert)
    assert coh.degree1_pack(od_dual_sign, da, db) == coh.degree1_pack(od_dual_sign, *pair)


def test_distinct_classes_have_no_certificate(od_dual_sign):
    rep = coh.equivariant_cohomology(od_dual_sign, 1).representatives[0]
    pair = coh.degree1_unpack(od_dual_sign, rep)
    zero = degree1_zero(od_dual_sign)
    assert cocycles_cohomologous(od_dual_sign, pair, zero) is None


def test_cocycles_cohomologous_requires_cocycles(od_dual_sign):
    alpha, beta = degree1_zero(od_dual_sign)
    beta[0][1][1][0] = 1
    with pytest.raises(NotCocycleError):
        cocycles_cohomologous(od_dual_sign, (alpha, beta), degree1_zero(od_dual_sign))


def _unchecked_extension(OD, beta) -> SingularExtension:
    """D ⊕ D laid out as ``build_extension`` lays it out for α = 0 and a trivial
    group, from any β and with no check."""
    d = OD.dim

    def middle(T, defect):
        out = zero_tensor(2 * d)
        for i, j in product(range(d), repeat=2):
            out[i][d + j][:d] = out[d + i][j][:d] = T[i][j]
            out[d + i][d + j] = [*defect[i][j], *T[i][j]]
        return out
    B = Dialgebra(2 * d, middle(OD.base.left, beta[0]), middle(OD.base.right, beta[1]))
    return SingularExtension(OrientedDialgebra(B, OD.group, [Matrix.identity(2 * d)]),
                             Matrix.from_rows([[int(i == j) for j in range(d)]
                                               for i in range(2 * d)]),
                             Matrix.from_rows([[int(j == d + i) for j in range(2 * d)]
                                               for i in range(d)]))


def test_middle_term_failing_the_axioms_fails_its_clause():
    # β⊣(e0, e0) = e0 on dual numbers: every other clause of the definition
    # holds, but four dialgebra axioms fail in B
    OD = oriented_trivial(dual_numbers_dialgebra())
    E = _unchecked_extension(OD, ([[[1, 0], [0, 0]], [[0, 0], [0, 0]]], zero_tensor(2)))
    failing = [c.name for c in check_axioms(E.total.base).failures()]
    assert len(failing) == 4
    assert check_extension(OD, E).failures() == [
        Check("middle term is an oriented dialgebra", False, failing)]


def test_no_extension_of_a_base_that_is_no_dialgebra():
    # the dual-numbers ⊣ next to a ⊢ with only e1 ⊢ e1 = e0 fails three
    # mixed axioms; the zero pair still solves the degree-1 equations
    left = dual_numbers_dialgebra().left
    OD = oriented_trivial(Dialgebra(2, left, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]))
    alpha, beta = degree1_zero(OD)
    assert coh.is_degree1_cocycle(OD, alpha, beta).ok
    with pytest.raises(ExtensionInvalidError) as info:
        build_extension(OD, alpha, beta)
    (middle,) = info.value.report.failures()
    assert middle.name == "middle term is an oriented dialgebra"
    assert middle.witness == [c.name for c in check_axioms(OD.base).failures()]
    assert len(middle.witness) == 3
