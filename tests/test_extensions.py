import random
from fractions import Fraction

import pytest

from oridial import cohomology as coh
from oridial.extensions import (
    NotCocycleError,
    NotSectionError,
    build_extension,
    canonical_section,
    check_extension,
    cocycles_cohomologous,
    extract_cocycle,
)
from oridial.linalg import Matrix, nullspace

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
    alpha, beta = coh.degree1_zero(od_dual_sign)
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
    alpha, beta = coh.degree1_zero(od_dual_sign)
    E = build_extension(od_dual_sign, alpha, beta)
    with pytest.raises(NotSectionError):
        extract_cocycle(od_dual_sign, E, Matrix.zeros(4, 2))
    with pytest.raises(NotSectionError):
        extract_cocycle(od_dual_sign, E, Matrix.zeros(2, 4).transpose())


def test_build_rejects_non_cocycle(od_dual_sign):
    alpha, beta = coh.degree1_zero(od_dual_sign)
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
    zero = coh.degree1_zero(od_dual_sign)
    cert = cocycles_cohomologous(od_dual_sign, pair, zero)
    assert cert is not None
    da, db = coh.degree1_coboundary(od_dual_sign, cert)
    assert coh.degree1_pack(od_dual_sign, da, db) == coh.degree1_pack(od_dual_sign, *pair)


def test_distinct_classes_have_no_certificate(od_dual_sign):
    rep = coh.equivariant_cohomology(od_dual_sign, 1).representatives[0]
    pair = coh.degree1_unpack(od_dual_sign, rep)
    zero = coh.degree1_zero(od_dual_sign)
    assert cocycles_cohomologous(od_dual_sign, pair, zero) is None


def test_cocycles_cohomologous_requires_cocycles(od_dual_sign):
    alpha, beta = coh.degree1_zero(od_dual_sign)
    beta[0][1][1][0] = 1
    with pytest.raises(NotCocycleError):
        cocycles_cohomologous(od_dual_sign, (alpha, beta), coh.degree1_zero(od_dual_sign))
