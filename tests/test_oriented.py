import random
from fractions import Fraction

import pytest

from oridial.dialgebra import Dialgebra, zero_tensor
from oridial.linalg import Matrix, ShapeMismatchError
from oridial.oriented import (
    OrientedDialgebra,
    OrientedGroup,
    check_oriented_dialgebra,
    check_oriented_group,
    sign_group,
    symmetric_group,
    trivial_group,
)

from conftest import (
    dual_numbers_dialgebra,
    oriented_dual_sign,
    oriented_split_sign,
    oriented_trivial,
    zero_dialgebra,
)
from reference_checkers import apply


def test_basic_groups_pass():
    assert check_oriented_group(trivial_group()).ok
    assert check_oriented_group(sign_group()).ok
    z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    assert check_oriented_group(OrientedGroup(z5, [1] * 5)).ok


def test_symmetric_group_with_sign_character():
    G = symmetric_group(3)
    assert G.order == 6
    report = check_oriented_group(G)
    assert report.ok
    assert sorted(G.epsilon).count(-1) == 3  # three transpositions


def test_broken_group_detected():
    # no identity at index 0
    bad = OrientedGroup([[1, 0], [0, 1]], [1, 1])
    report = check_oriented_group(bad)
    assert not report.ok
    assert any("identity" in item.name for item in report.failures())

    # epsilon not a homomorphism on Z/4
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    bad_eps = OrientedGroup(table, [1, -1, 1, 1])
    report = check_oriented_group(bad_eps)
    assert not report.ok
    assert any("homomorphism" in item.name for item in report.failures())
    assert report.failures()[0].witness is not None


def test_group_refusals():
    with pytest.raises(ValueError) as exc:
        OrientedGroup([[0]], [1, 1])
    assert str(exc.value) == "epsilon must assign a sign to every element"
    # an entry outside the elements stops the check at that clause
    report = check_oriented_group(OrientedGroup([[0, 5], [1, 0]], [1, 1]))
    assert [(c.name, c.ok, c.witness) for c in report.checks] == [
        ("table entries are element indices", False, (0, 1))]


def test_trivial_group_any_dialgebra_passes(dia_dual, dia_split, dia_diff3):
    for D in (dia_dual, dia_split, dia_diff3):
        assert check_oriented_dialgebra(oriented_trivial(D)).ok


def test_sign_action_on_dual_numbers_passes(od_dual_sign):
    assert check_oriented_dialgebra(od_dual_sign).ok


def test_commutative_product_absorbs_reversal():
    # with equal commutative products the identity matrix is a valid
    # sign(-1) action: reversal is invisible
    OD = OrientedDialgebra(
        dual_numbers_dialgebra(), sign_group(), [Matrix.identity(2), Matrix.identity(2)]
    )
    assert check_oriented_dialgebra(OD).ok


def test_split_products_with_reversing_involution():
    assert check_oriented_dialgebra(oriented_split_sign()).ok


def test_reversal_violation_reported_with_witness():
    # e1 ⊣ e2 = e1 is asymmetric, so the identity cannot act with sign -1
    left = zero_tensor(2)
    left[0][1][0] = 1
    D = Dialgebra(2, left, zero_tensor(2))
    # keep ⊣ associative-compatible: (x⊣y)⊣z = x⊣(y⊢z) needs checking, but
    # the oriented checker does not require base axioms to locate a witness
    OD = OrientedDialgebra(D, sign_group(), [Matrix.identity(2), Matrix.identity(2)])
    report = check_oriented_dialgebra(OD)
    assert not report.ok
    bad = [item for item in report.failures() if "left product" in item.name]
    assert bad and bad[0].witness == (1, 0, 1)


def test_action_must_be_homomorphism():
    OD = OrientedDialgebra(
        zero_dialgebra(2),
        sign_group(),
        [Matrix.identity(2), Matrix.from_rows([[1, 1], [0, 1]])],  # square is not id
    )
    report = check_oriented_dialgebra(OD)
    assert not report.ok
    assert any("homomorphism" in item.name for item in report.failures())


def test_s3_sign_action(od_dual_s3):
    assert check_oriented_dialgebra(od_dual_s3).ok


def test_orbit_action(od_dual_sign):
    rng = random.Random(4)
    rho = od_dual_sign.action

    def act(g, x):
        return apply(rho[g], x)
    assert act(0, [3, 5]) == [3, 5]
    assert act(1, [1, 0]) == [1, 0]
    assert act(1, [0, 1]) == [0, -1]
    for _ in range(10):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
        g = rng.randrange(2)
        ginv = od_dual_sign.group.inv(g)
        assert act(g, act(ginv, x)) == x
    with pytest.raises(ShapeMismatchError):
        rho[0].mul(Matrix.from_rows([[1], [2], [3]]))
