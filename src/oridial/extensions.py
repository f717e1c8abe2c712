"""Singular extensions of an oriented dialgebra by itself.

A singular extension is a split short exact sequence 0 -> D -> B -> D -> 0
of G-modules in which B is again an oriented dialgebra, the included copy
of D multiplies to zero, and products with the kernel factor through the
projection.  Degree-1 cocycle pairs (α, β) classify these: β records the
product defect of a section, α the action defect.

B is realised on D ⊕ D with the kernel copy first:

    (a1, x1) ⊣ (a2, x2) = (a1 ⊣ x2 + x1 ⊣ a2 + βˡ(x1, x2),  x1 ⊣ x2)
    (a1, x1) ⊢ (a2, x2) = (a1 ⊢ x2 + x1 ⊢ a2 + βʳ(x1, x2),  x1 ⊢ x2)
    g (a, x) = (g a - α(g, g x),  g x)

Extraction reads the defects of a chosen section s with p∘s = id:

    α(g, x) = s(x) - g s(g⁻¹ x)
    βˡ(x1, x2) = s(x1) ⊣ s(x2) - s(x1 ⊣ x2)       (βʳ with ⊢)

With the canonical section x -> (0, x) extraction inverts the builder
exactly; two sections of the same extension extract cohomologous pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cohomology import _action_term, _total_maps, degree1_pack, is_degree1_cocycle
from .dialgebra import (
    Check,
    Dialgebra,
    Report,
    _differing,
    _flat,
    _identity,
    _interleaved,
    _intertwining,
    _matmul,
    _on_inputs,
    _rows,
    _scaled_maps,
    _scaled_products,
    _side_by_side,
    _valued,
    check_axioms,
    zero_tensor,
)
from .linalg import Matrix, ShapeMismatchError, _rational, in_image, normalize_scalar, rank
from .oriented import OrientedDialgebra, check_oriented_dialgebra


class NotCocycleError(ValueError):
    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(f"pair is not a degree-1 cocycle ({len(residuals)} nonzero residuals)")


class NotSectionError(ValueError):
    pass


class ExtensionInvalidError(ValueError):
    def __init__(self, report: Report):
        self.report = report
        names = [item.name for item in report.failures()]
        super().__init__(f"extension clauses fail: {names}")


@dataclass
class SingularExtension:
    """The middle term with its inclusion and projection.

    ``total`` is the 2d-dimensional oriented dialgebra B, ``inclusion``
    the (2d x d) matrix of i and ``projection`` the (d x 2d) matrix of p.
    """

    total: OrientedDialgebra
    inclusion: Matrix
    projection: Matrix

    @property
    def base_dim(self) -> int:
        return self.projection.rows


def canonical_section(E: SingularExtension) -> Matrix:
    """The section x -> (0, x) of the built coordinates."""
    d = E.base_dim
    return Matrix(2 * d, d, [0] * (d * d) + _flat([_identity(d)]))


def _require_cocycle(OD: OrientedDialgebra, alpha, beta) -> None:
    report = is_degree1_cocycle(OD, alpha, beta)
    if not report.ok:
        raise NotCocycleError(report.checks[0].witness)


def build_extension(OD: OrientedDialgebra, alpha, beta) -> SingularExtension:
    """Assemble B = D ⊕ D from a degree-1 cocycle pair and re-verify it."""
    _require_cocycle(OD, alpha, beta)
    d = OD.dim

    def middle(T, defect):
        out = zero_tensor(2 * d)
        for i, j in product(range(d), repeat=2):
            out[i][d + j][:d] = out[d + i][j][:d] = T[i][j]   # kernel ∘ base, base ∘ kernel
            out[d + i][d + j] = [*defect[i][j], *T[i][j]]     # base ∘ base: (β, product)
        return out
    B = Dialgebra(2 * d, middle(OD.base.left, beta[0]), middle(OD.base.right, beta[1]))
    (A, nA), (P, nP) = _scaled_maps(alpha), _scaled_maps(OD.action)
    action = []
    # the kernel part of g(a, x) is φ₁(g)x = -α(g, g x): the order-1 action term of (α, β)
    for rho, phi in zip(OD.action, _action_term(A, P, OD.group)):
        rows = rho.to_rows()
        action.append(Matrix.from_rows(
            [row + [_rational(x, nA * nP) for x in twist] for row, twist in zip(rows, phi)]
            + [[0] * d + row for row in rows]))
    total = OrientedDialgebra(B, OD.group, action)
    # i = [1 0]ᵀ includes the kernel copy and p = [0 1] projects onto the base
    eye, zero = _flat([_identity(d)]), [0] * (d * d)
    E = SingularExtension(total, Matrix(2 * d, d, eye + zero),
                          Matrix(2 * d, d, zero + eye).transpose())
    report = check_extension(OD, E)
    if not report.ok:
        raise ExtensionInvalidError(report)
    return E


def check_extension(OD: OrientedDialgebra, E: SingularExtension) -> Report:
    """Verify every clause of the singular-extension definition.

    Witnesses name the failing map or product and the basis indices of D
    (i, j) and of B (bi, bj) involved; the middle term's lists B's failing
    dialgebra axioms, then its failing oriented laws.  The other clauses run
    in integers, ⊣ and ⊢ side by side in each output, with one common
    denominator for each of: the products of D and B (nL), the actions on D
    (nP) and on B (nQ), i (nI) and p (nJ).
    """
    B = E.total
    inc, proj = E.inclusion, E.projection
    d, n = OD.dim, B.dim
    if inc.shape() != (n, d) or proj.shape() != (d, n):
        raise ShapeMismatchError(f"i must be {n}x{d} and p {d}x{n}")
    middle = [c.name for report in (check_axioms(B.base), check_oriented_dialgebra(B))
              for c in report.failures()]
    _, *products = _scaled_products(OD.base, B.base)
    dboth, bboth = (_side_by_side([left], [right]) for left, right in products)
    (Dt,), (Bt,) = dboth, bboth
    (P, nP), (Q, nQ), ((I,), nI), ((J,), nJ) = (
        _scaled_maps(ms) for ms in (OD.action, B.action, [inc], [proj]))
    # p(b1 ∘ b2) = p(b1) ∘ p(b2), tables by (b1, b2, product): nJ·lhs against rhs, over nL·nJ²
    morphism = [side[0] for side in _intertwining([J], bboth, dboth, False, nJ)]
    # i(x) ∘ b = i(x ∘ p(b)) and b ∘ i(x) = i(p(b) ∘ x), tables by (x, b, product):
    # nJ·lhs against rhs, over nL·nI·nJ; I2 moves both halves of an output
    I2 = [row + [0] * d for row in I] + [[0] * d + row for row in I]
    lhs = [[nJ * x for x in _flat(t)] for t in (_on_inputs(Bt, I, _identity(n)),
                                                zip(*_on_inputs(Bt, _identity(n), I)))]
    rhs = [_flat(_valued(I2, t)) for t in (_on_inputs(Dt, _identity(d), J),
                                           zip(*_on_inputs(Dt, J, _identity(d))))]
    factor = [_interleaved(tables, 2 * d * n) for tables in (lhs, rhs)]
    included = _on_inputs(Bt, I, I)
    return Report([
        Check("middle term is an oriented dialgebra", not middle, middle or None),
        Check("p . i = 0", not any(_flat([_matmul(J, I)]))),
        Check("sequence is exact (ranks d, d on dimension 2d)",
              rank(inc) == d and rank(proj) == d and n == 2 * d),
        # i∘ρ(g) = ρ_B(g)∘i and ρ(g)∘p = p∘ρ_B(g), each side times the other's nP or nQ
        Check.first("i and p are G-equivariant", (
            (side, g) for g in OD.group.elements() for side, X, Y in (
                ("i", _matmul(I, P[g]), _matmul(Q[g], I)),
                ("p", _matmul(P[g], J), _matmul(J, Q[g])))
            if [nQ * x for x in _flat([X])] != [nP * y for y in _flat([Y])])),
        Check.first("p is a dialgebra morphism", (
            (("left", "right")[f], bi, bj) for bi, bj, f in _differing(*morphism, n, n, 2))),
        Check.first("included copy multiplies to zero", (
            (i, j) for i, j in product(range(d), repeat=2) if any(included[i][j]))),
        Check.first("kernel products factor through p", (
            (("left", "right")[f], ("i(x) . b", "b . i(x)")[s], i, bj)
            for i, bj, f, s in _differing(*factor, d, n, 2, 2))),
    ])


def extract_cocycle(OD: OrientedDialgebra, E: SingularExtension, section: Matrix):
    """Defect pair (α, β) of a section; asserted to be a cocycle.

    The defects run in integers, with one common denominator for each of
    s (nS), p (nJ), the products of D and B together (nL) and the actions
    on D (nP) and on B (nQ).  Each defect vector is solved for its kernel
    coordinates in rationals: α(g) column by column, then every βˡ cell
    and then every βʳ cell.
    """
    d, G = OD.dim, OD.group
    B = E.total
    if section.shape() != (2 * d, d):
        raise NotSectionError(f"section must be {2 * d}x{d}")
    if B.dim != 2 * d or E.inclusion.shape() != (2 * d, d) or E.projection.shape() != (d, 2 * d):
        raise ShapeMismatchError(f"B must have dimension {2 * d}, i be {2 * d}x{d} and p {d}x{2 * d}")
    ((S,), nS), ((J,), nJ) = (_scaled_maps([m]) for m in (section, E.projection))
    if _matmul(J, S) != [[nJ * nS * x for x in row] for row in _identity(d)]:
        raise NotSectionError("p . s is not the identity")

    def kernel_coords(num, den):
        v = [_rational(x, den) for x in num]
        a = in_image(E.inclusion, v)
        if a is None:
            raise ExtensionInvalidError(Report([Check("defect lands in the kernel", False, v)]))
        return a

    (P, nP), (Q, nQ) = _scaled_maps(OD.action), _scaled_maps(B.action)
    alpha = []
    for g in G.elements():
        # α(g, x) = s(x) - g s(g⁻¹x): s - ρ_B(g)·s·ρ(g⁻¹) over nS·nQ·nP
        moved = _matmul(_matmul(Q[g], S), P[G.inv(g)])
        cols = zip(*([nQ * nP * x - y for x, y in zip(row, mrow)] for row, mrow in zip(S, moved)))
        alpha.append(Matrix.from_rows(zip(*(kernel_coords(c, nS * nQ * nP) for c in cols))))

    # s(x1) ∘ s(x2) - s(x1 ∘ x2) is rhs - lhs of s(x1 ∘ x2) = s(x1) ∘ s(x2), over nL·nS²
    nL, *products = _scaled_products(OD.base, B.base)
    dboth, bboth = (_side_by_side([left], [right]) for left, right in products)
    (lhs,), (rhs,) = _intertwining([S], dboth, bboth, False, nS)
    cells = _rows([y - x for x, y in zip(lhs, rhs)], 2 * d)
    beta = tuple(_rows([kernel_coords(v, nL * nS * nS) for v in cells[f::2]], d) for f in (0, 1))
    _require_cocycle(OD, alpha, beta)
    return alpha, beta


def cocycles_cohomologous(OD: OrientedDialgebra, pair1, pair2):
    """A γ whose coboundary is pair1 - pair2, or None if the classes differ.

    γ is returned as a d x d matrix; plugging it into the degree-0
    coboundary reproduces the difference exactly.  It is L times the
    preimage under the integer L·Tot(0) (``cohomology._total_maps``).
    """
    for pair in (pair1, pair2):
        _require_cocycle(OD, *pair)
    diff = [normalize_scalar(a - b)
            for a, b in zip(degree1_pack(OD, *pair1), degree1_pack(OD, *pair2))]
    [(tot, L)] = _total_maps(OD, [0])
    u = in_image(tot, diff)
    return None if u is None else Matrix(OD.dim, OD.dim, [L * x for x in u]).transpose()
