"""Shared fixtures: the standing zoo of small dialgebras and actions."""

import pytest

from oridial import cohomology as coh
from oridial.dialgebra import Dialgebra, from_associative, from_differential, zero_tensor
from oridial.linalg import Matrix
from oridial.oriented import OrientedDialgebra, sign_group, symmetric_group, trivial_group


def scalar_product_dialgebra() -> Dialgebra:
    """The 1-dimensional field with both products the field product."""
    return from_associative([[[1]]])


def dual_numbers_dialgebra() -> Dialgebra:
    """Truncated polynomials K[u]/(u^2); basis (1, u), products equal."""
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return from_associative(mult)


def zero_dialgebra(dim: int = 2) -> Dialgebra:
    return Dialgebra(dim, zero_tensor(dim), zero_tensor(dim))


def split_products_dialgebra() -> Dialgebra:
    """Two genuinely different products: e2 ⊣ e2 = e1, the ⊢ product zero."""
    left = zero_tensor(2)
    left[1][1][0] = 1
    return Dialgebra(2, left, zero_tensor(2))


def poly3_dialgebra() -> Dialgebra:
    """K[u]/(u^3); basis (1, u, u^2), both products the ring product."""
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    return from_associative(mult)


def diff3_dialgebra() -> Dialgebra:
    """K[u]/(u^3) with x ⊣ y = x d(y), x ⊢ y = d(x) y for d(u) = u^2.

    The two products differ: 1 ⊣ u = u^2 while 1 ⊢ u = 0.
    """
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    diff = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    return from_differential(mult, diff)


def oriented_dual_sign() -> OrientedDialgebra:
    """K[u]/(u^2) with the sign group acting by u -> -u.

    The standing fixture for everything that exercises a sign -1 element:
    equal products make the twisted theory fully coherent.
    """
    return OrientedDialgebra(
        dual_numbers_dialgebra(),
        sign_group(),
        [Matrix.identity(2), Matrix.from_rows([[1, 0], [0, -1]])],
    )


def oriented_trivial(D: Dialgebra) -> OrientedDialgebra:
    return OrientedDialgebra(D, trivial_group(), [Matrix.identity(D.dim)])


def oriented_zero_sign() -> OrientedDialgebra:
    """Zero products with the sign group acting by swapping the basis."""
    return OrientedDialgebra(
        zero_dialgebra(2),
        sign_group(),
        [Matrix.identity(2), Matrix.from_rows([[0, 1], [1, 0]])],
    )


def oriented_dual_s3() -> OrientedDialgebra:
    """K[u]/(u^2) with S_3 acting through the sign character on u."""
    G = symmetric_group(3)
    mats = [Matrix.from_rows([[1, 0], [0, G.sign(g)]]) for g in G.elements()]
    return OrientedDialgebra(dual_numbers_dialgebra(), G, mats)


def oriented_split_sign() -> OrientedDialgebra:
    """The split-products dialgebra with a valid sign action.

    Valid as an oriented dialgebra, but its two products differ, which
    puts it outside the domain where the cochain action commutes with the
    coboundary — useful for exercising checkers, not the bicomplex.
    """
    return OrientedDialgebra(
        split_products_dialgebra(),
        sign_group(),
        [Matrix.identity(2), Matrix.from_rows([[1, 0], [0, -1]])],
    )


def alt_sign_action(OD, g, n):
    """The action on CY(n) of g with ε(g) = -1 under the sign exponent n(n-1)/2.

    That is the shipped action times (-1)^(n(n-1)/2 - σ(n)).
    """
    shipped = coh.act_entries(OD, g, n)
    alt = coh.SparseMap(shipped.rows, shipped.cols)
    alt.add_block(shipped, 0, 0, (-1) ** ((n * (n - 1) // 2 - coh.sign_exponent(n)) % 2))
    return alt


@pytest.fixture
def dia_scalar():
    return scalar_product_dialgebra()


@pytest.fixture
def dia_dual():
    return dual_numbers_dialgebra()


@pytest.fixture
def dia_zero():
    return zero_dialgebra(2)


@pytest.fixture
def dia_split():
    return split_products_dialgebra()


@pytest.fixture
def dia_poly3():
    return poly3_dialgebra()


@pytest.fixture
def dia_diff3():
    return diff3_dialgebra()


@pytest.fixture
def od_dual_sign():
    return oriented_dual_sign()


@pytest.fixture
def od_zero_sign():
    return oriented_zero_sign()


@pytest.fixture
def od_dual_s3():
    return oriented_dual_s3()
