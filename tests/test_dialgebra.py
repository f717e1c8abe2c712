import random
from fractions import Fraction

import pytest

from oridial.dialgebra import (
    Dialgebra,
    NotAssociativeError,
    NotDerivationError,
    NotSquareZeroError,
    check_axioms,
    from_associative,
    from_bimodule_map,
    from_differential,
    is_morphism,
    validated_tensor,
    zero_tensor,
)
from oridial.linalg import Matrix, ShapeMismatchError

from conftest import dual_numbers_dialgebra, poly3_dialgebra, split_products_dialgebra
from reference_checkers import basis, bilinear

DUAL_MULT = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
POLY3_MULT = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]


def test_dimension_and_tensor_shape_refused():
    with pytest.raises(ValueError) as exc:
        Dialgebra(0, [], [])
    assert str(exc.value) == "dimension must be positive"
    with pytest.raises(ShapeMismatchError) as exc:
        validated_tensor(2, [[[1, 0], [0, 1]], [[0, 1]]])
    assert str(exc.value) == "tensor slice must have 2 rows"
    with pytest.raises(ShapeMismatchError) as exc:   # f: M -> A is dA x dM
        from_bimodule_map(DUAL_MULT, (DUAL_MULT, DUAL_MULT), Matrix.zeros(2, 3))
    assert str(exc.value) == "bimodule map must be 2x2"


def test_from_associative_accepts_associative_products():
    assert check_axioms(from_associative([[[1]]])).ok
    assert check_axioms(from_associative(DUAL_MULT)).ok
    assert check_axioms(from_associative(POLY3_MULT)).ok


def test_from_associative_rejects_nonassociative():
    # e1 e1 = e2, e2 e1 = e1: (e1 e1) e1 = e1 but e1 (e1 e1) = e1 e2 = 0
    mult = zero_tensor(2)
    mult[0][0][1] = 1
    mult[1][0][0] = 1
    with pytest.raises(NotAssociativeError) as err:
        from_associative(mult)
    assert err.value.witness == (0, 0, 0)


def test_check_axioms_reports_failing_mixed_axiom():
    product = [[[1]]]
    broken = Dialgebra(1, product, zero_tensor(1))
    report = check_axioms(broken)
    assert not report.ok
    failing = report.failures()
    assert any("x<(y>z)" in c.name for c in failing)
    c = failing[0]
    assert c.witness == (0, 0, 0)
    # the witness triple breaks the axiom: (x<x)<x = x, but x<(x>x) = 0
    x = [1]
    assert c.name == "mixed: (x<y)<z = x<(y>z)"
    left, right = broken.left, broken.right
    assert bilinear(left, bilinear(left, x, x), x) != bilinear(left, x, bilinear(right, x, x))


def test_from_differential_zero_map():
    D = from_differential(DUAL_MULT, Matrix.zeros(2, 2))
    assert D.left == zero_tensor(2)
    assert D.right == zero_tensor(2)
    assert check_axioms(D).ok


def test_from_differential_rejects_non_derivation():
    # d(1) = 0, d(u) = 1 is not a derivation on K[u]/(u^2)
    diff = Matrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(NotDerivationError):
        from_differential(DUAL_MULT, diff)


def test_from_differential_rejects_non_square_zero():
    # d = id is a derivation of the zero product but does not square to zero
    mult = zero_tensor(2)
    with pytest.raises(NotSquareZeroError):
        from_differential(mult, Matrix.identity(2))


def test_from_differential_poly3_family():
    # d(u) = c u^2 is a square-zero derivation of K[u]/(u^3) for any c
    rng = random.Random(2)
    for _ in range(5):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        diff = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, c, 0]])
        D = from_differential(POLY3_MULT, diff)
        assert check_axioms(D).ok
        if c:
            assert D.left != D.right


def test_from_bimodule_map_zero_and_identity():
    actions = (DUAL_MULT, DUAL_MULT)  # M = A acting by multiplication
    D0 = from_bimodule_map(DUAL_MULT, actions, Matrix.zeros(2, 2))
    assert D0.left == zero_tensor(2) and D0.right == zero_tensor(2)
    D1 = from_bimodule_map(DUAL_MULT, actions, Matrix.identity(2))
    assert D1 == dual_numbers_dialgebra()


def test_from_bimodule_map_multiplication_by_u():
    actions = (DUAL_MULT, DUAL_MULT)
    f = Matrix.from_rows([[0, 0], [1, 0]])  # multiplication by u
    D = from_bimodule_map(DUAL_MULT, actions, f)
    assert check_axioms(D).ok
    e0, e1 = basis(2)
    assert bilinear(D.left, e0, e0) == [0, 1]   # 1 ⊣ 1 = 1·f(1) = u
    assert bilinear(D.left, e1, e0) == [0, 0]   # u ⊣ 1 = u·u = 0


def test_axioms_extend_multilinearly():
    D = poly3_dialgebra()
    rng = random.Random(9)

    def l(x, y):
        return bilinear(D.left, x, y)

    def r(x, y):
        return bilinear(D.right, x, y)
    for _ in range(10):
        x, y, z = ([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
                   for _ in range(3))
        assert l(l(x, y), z) == l(x, l(y, z))
        assert l(l(x, y), z) == l(x, r(y, z))
        assert l(r(x, y), z) == r(x, l(y, z))
        assert r(r(x, y), z) == r(x, r(y, z))
        assert r(l(x, y), z) == r(r(x, y), z)


def test_is_morphism():
    D = dual_numbers_dialgebra()
    assert is_morphism(D, D, Matrix.identity(2))
    assert is_morphism(D, D, Matrix.from_rows([[1, 0], [0, -1]]))  # u -> -u
    assert not is_morphism(D, D, Matrix.from_rows([[0, 1], [1, 0]]))
    # the identity preserves ⊣ but not ⊢, or ⊢ but not ⊣, when the products differ
    split = split_products_dialgebra()
    assert not is_morphism(split, Dialgebra(2, split.left, split.left), Matrix.identity(2))
    assert not is_morphism(split, Dialgebra(2, split.right, split.right), Matrix.identity(2))
    with pytest.raises(ValueError):
        is_morphism(D, D, Matrix.identity(3))
