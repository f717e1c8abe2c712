"""Shared fixtures: the standing zoo of small dialgebras and actions."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from oridial import cohomology as coh
from oridial.dialgebra import Dialgebra, from_associative, from_differential, zero_tensor
from oridial.linalg import Matrix, in_image
from oridial.oriented import OrientedDialgebra, sign_group, symmetric_group, trivial_group

from reference_checkers import apply, bilinear
from reference_quotient import sparse_map


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


def cube_root_two_dialgebra() -> Dialgebra:
    """The field Q(∛2); basis (1, x, x^2) with x^3 = 2, both products the field product."""
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [2, 0, 0]],
        [[0, 0, 1], [2, 0, 0], [0, 2, 0]],
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


def _oriented_fixtures() -> list:
    plain = [scalar_product_dialgebra(), dual_numbers_dialgebra(), zero_dialgebra(2),
             split_products_dialgebra(), poly3_dialgebra(), diff3_dialgebra()]
    return [oriented_dual_sign(), oriented_zero_sign(), oriented_dual_s3(),
            oriented_split_sign()] + [oriented_trivial(D) for D in plain]


def _basis_changed(OD: OrientedDialgebra, P: Matrix, P_inv: Matrix) -> OrientedDialgebra:
    """OD in the basis of P's columns: T'(a, b) = P⁻¹T(Pa, Pb), ρ'(g) = P⁻¹ρ(g)P."""
    cols = P.transpose().to_rows()

    def tensor(T):
        return [[apply(P_inv, bilinear(T, a, b)) for b in cols] for a in cols]

    base = Dialgebra(OD.dim, tensor(OD.base.left), tensor(OD.base.right))
    return OrientedDialgebra(base, OD.group, [P_inv.mul(rho).mul(P) for rho in OD.action])


def in_basis(OD: OrientedDialgebra, P: Matrix) -> OrientedDialgebra:
    """OD in the basis of the columns of an invertible P."""
    P_inv = Matrix.from_rows([in_image(P, unit) for unit in Matrix.identity(OD.dim).to_rows()])
    P_inv = P_inv.transpose()
    assert P.mul(P_inv) == Matrix.identity(OD.dim)
    return _basis_changed(OD, P, P_inv)


def half_triangular(d: int) -> Matrix:
    """Unit lower triangular with ±1/2 below the diagonal: a basis with denominators."""
    return Matrix(d, d, [1 if i == j else Fraction((-1) ** (i + j), 2) if i > j else 0
                         for i in range(d) for j in range(d)])


def basis_changed_dual_s3() -> OrientedDialgebra:
    """Dual-S₃ in the basis (1 + u, 1 + 4u): products and action both have denominators."""
    return in_basis(oriented_dual_s3(), Matrix.from_rows([[1, 1], [1, 4]]))


@st.composite
def unimodular_bases(draw, d: int) -> Matrix:
    """P = L·U with unit triangular L and U, so det P = 1."""
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)

    def triangular(lower: bool) -> Matrix:
        return Matrix(d, d, [1 if i == j else draw(entries) if (i > j) == lower else 0
                             for i in range(d) for j in range(d)])

    return triangular(True).mul(triangular(False))


def _draw_basis_changed(data, fixtures=None) -> OrientedDialgebra:
    """One of ``fixtures`` (by default ``_oriented_fixtures()``) in a drawn unimodular basis."""
    OD = data.draw(st.sampled_from(fixtures or _oriented_fixtures()))
    return in_basis(OD, data.draw(unimodular_bases(OD.dim)))


def oriented_swap_sum() -> OrientedDialgebra:
    """A ⊕ A^op for the non-commutative A: e₁e₁ = e₁, e₁e₂ = e₂; the sign group swaps the summands.

    Both products are the product of A ⊕ A^op, and the swap g is an
    anti-automorphism: g(xy) = g(y)g(x).  Unlike the other sign fixtures,
    gx ∘ gy ≠ gy ∘ gx here, so a law that drops the ε = -1 argument swap
    fails on it.
    """
    mult = zero_tensor(4)
    mult[0][0][0] = mult[0][1][1] = 1      # A on e₁, e₂
    mult[2][2][2] = mult[3][2][3] = 1      # A^op on e₃, e₄: e₄e₃ = e₄
    swap = Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    return OrientedDialgebra(from_associative(mult), sign_group(), [Matrix.identity(4), swap])


def alt_sign_action(OD, g, n):
    """The action on CY(n) of g with ε(g) = -1 under the sign exponent n(n-1)/2.

    That is the shipped action times (-1)^(n(n-1)/2 - σ(n)).
    """
    shipped = coh.act_entries(OD, g, n)
    sign = (-1) ** ((n * (n - 1) // 2 - coh.sign_exponent(n)) % 2)
    return sparse_map(shipped.rows, shipped.cols,
                      {key: sign * v for key, v in shipped.entries.items()})


def degree1_zero(OD: OrientedDialgebra):
    """The zero degree-1 pair (α, β) of OD."""
    return coh.degree1_unpack(OD, [0] * coh.total_dim(OD, 1))


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


@pytest.fixture
def fractions_built(monkeypatch):
    """A runner that calls fn(*args) and returns its result and the Fractions it built.

    It counts ``Fraction.__new__`` and, where Python has it,
    ``Fraction._from_coprime_ints``, which builds the results of Fraction
    arithmetic since Python 3.12.
    """
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, *args: built.append(args) or coprime(*args)))

    def run(fn, *args):
        built.clear()
        result = fn(*args)
        return result, list(built)
    return run


@pytest.fixture
def shifted_coboundary(monkeypatch):
    """``deformations.degree1_coboundary`` off by one in every Tot(1) coordinate.

    The certificate of an equivalence then disagrees with the infinitesimal
    difference, the engine bug that ``CertificateFailureError`` reports.
    """
    from oridial import deformations

    coboundary = deformations.degree1_coboundary

    def shifted(OD, gamma):
        packed = coh.degree1_pack(OD, *coboundary(OD, gamma))
        return coh.degree1_unpack(OD, [x + 1 for x in packed])
    monkeypatch.setattr(deformations, "degree1_coboundary", shifted)
