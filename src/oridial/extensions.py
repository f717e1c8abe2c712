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

from .cohomology import (
    _action_term,
    degree1_coboundary_matrix,
    degree1_pack,
    is_degree1_cocycle,
)
from .dialgebra import (
    Check,
    Dialgebra,
    Report,
    _denominator,
    _differing,
    _flat,
    _identity,
    _interleaved,
    _matmul,
    _on_first,
    _on_inputs,
    _on_second,
    _rows,
    _scaled,
    _scaled_maps,
    _valued,
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
    return Matrix(2 * d, d, [0] * (d * d) + [1 if i == j else 0 for i in range(d) for j in range(d)])


def build_extension(OD: OrientedDialgebra, alpha, beta) -> SingularExtension:
    """Assemble B = D ⊕ D from a degree-1 cocycle pair and re-verify it."""
    report = is_degree1_cocycle(OD, alpha, beta)
    if not report.ok:
        raise NotCocycleError(report.checks[0].witness)
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
    inclusion = Matrix(2 * d, d,
                       [1 if i == j else 0 for i in range(d) for j in range(d)] + [0] * (d * d))
    projection = Matrix(d, 2 * d,
                        [1 if j == d + i else 0 for i in range(d) for j in range(2 * d)])
    E = SingularExtension(total, inclusion, projection)
    report = check_extension(OD, E)
    if not report.ok:
        raise ExtensionInvalidError(report)
    return E


def check_extension(OD: OrientedDialgebra, E: SingularExtension) -> Report:
    """Verify every clause of the singular-extension definition.

    Witnesses name the failing map or product and the basis indices of D
    (i, j) and of B (bi, bj) involved.  The clauses run in integers, with
    one common denominator for each of: the products of D (nD) and of B
    (nB), the actions on D (nP) and on B (nQ), i (nI) and p (nJ).
    """
    B = E.total
    inc, proj = E.inclusion, E.projection
    d, n = OD.dim, B.dim
    if inc.shape() != (n, d) or proj.shape() != (d, n):
        raise ShapeMismatchError(f"i must be {n}x{d} and p {d}x{n}")
    base_report = check_oriented_dialgebra(B)
    nD = _denominator(_flat([*OD.base.left, *OD.base.right]))
    nB = _denominator(_flat([*B.base.left, *B.base.right]))
    (P, nP), (Q, nQ), ((I,), nI), ((J,), nJ) = (
        _scaled_maps(ms) for ms in (OD.action, B.action, [inc], [proj]))
    dprods = [_scaled(T, nD) for T in (OD.base.left, OD.base.right)]
    bprods = [_scaled(T, nB) for T in (B.base.left, B.base.right)]
    names = ("left", "right")

    def scaled(c, flat):
        return [c * x for x in flat]

    def equivariance():
        # i∘ρ(g) = ρ_B(g)∘i and ρ(g)∘p = p∘ρ_B(g), each side times the other's nP or nQ
        for g in OD.group.elements():
            for side, lhs, rhs in (("i", _matmul(I, P[g]), _matmul(Q[g], I)),
                                   ("p", _matmul(P[g], J), _matmul(J, Q[g]))):
                if scaled(nQ, _flat([lhs])) != scaled(nP, _flat([rhs])):
                    yield side, g

    # p(b1 ∘ b2) = p(b1) ∘ p(b2): nD·nJ·lhs against nB·rhs, over nD·nB·nJ²
    morphism = (_interleaved([scaled(nD * nJ, _flat(_valued(J, T))) for T in bprods], n * n),
                _interleaved([scaled(nB, _flat(_on_inputs(T, J, J))) for T in dprods], n * n))
    # i(x) ∘ b = i(x ∘ p(b)) and b ∘ i(x) = i(p(b) ∘ x), tables by (x, b):
    # nD·nJ·lhs against nB·rhs, over nD·nB·nI·nJ.  A flat tensor is its own
    # ``_on_first`` table with Q the identity.
    factor = (
        _interleaved([scaled(nD * nJ, table) for T in bprods for table in (
            _on_first(T, I),                                  # i(x) ∘ b
            _flat(zip(*_on_second(_flat(T), I, n))))], d * n),  # b ∘ i(x)
        _interleaved([scaled(nB, _flat(_valued(I, table))) for T in dprods for table in (
            _on_second(_flat(T), J, d),                       # x ∘ p(b)
            zip(*_on_inputs(T, J, _identity(d))))], d * n),   # p(b) ∘ x
    )
    included = [_on_inputs(T, I, I) for T in bprods]
    return Report([
        Check("middle term is an oriented dialgebra", base_report.ok,
              [c.name for c in base_report.failures()] or None),
        Check("p . i = 0", not any(_flat([_matmul(J, I)]))),
        Check("sequence is exact (ranks d, d on dimension 2d)",
              rank(inc) == d and rank(proj) == d and n == 2 * d),
        Check.first("i and p are G-equivariant", equivariance()),
        Check.first("p is a dialgebra morphism", (
            (names[f], bi, bj) for bi, bj, f in _differing(*morphism, n, n, 2))),
        Check.first("included copy multiplies to zero", (
            (i, j) for i, j in product(range(d), repeat=2)
            if any(included[0][i][j]) or any(included[1][i][j]))),
        Check.first("kernel products factor through p", (
            (names[f], ("i(x) . b", "b . i(x)")[s], i, bj)
            for i, bj, f, s in _differing(*factor, d, n, 2, 2))),
    ])


def extract_cocycle(OD: OrientedDialgebra, E: SingularExtension, section: Matrix):
    """Defect pair (α, β) of a section; asserted to be a cocycle.

    The defects run in integers, with one common denominator for each of
    s (nS), p (nJ), the products of D (nD) and of B (nB) and the actions
    on D (nP) and on B (nQ).  Each defect vector is solved for its kernel
    coordinates in rationals: α(g) column by column, then βˡ and βʳ.
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

    nD = _denominator(_flat([*OD.base.left, *OD.base.right]))
    nB = _denominator(_flat([*B.base.left, *B.base.right]))

    def defect(bprod, dprod):
        # s(x1) ∘ s(x2) - s(x1 ∘ x2): nD·lhs against nB·nS·rhs, over nB·nS²·nD
        lhs = _flat(_on_inputs(_scaled(bprod, nB), S, S))
        rhs = _flat(_valued(S, _scaled(dprod, nD)))
        nums = [nD * x - nB * nS * y for x, y in zip(lhs, rhs)]
        return _rows([kernel_coords(v, nB * nS * nS * nD) for v in _rows(nums, 2 * d)], d)

    beta_l = defect(B.base.left, OD.base.left)
    beta_r = defect(B.base.right, OD.base.right)
    report = is_degree1_cocycle(OD, alpha, (beta_l, beta_r))
    if not report.ok:
        raise NotCocycleError(report.checks[0].witness)
    return alpha, (beta_l, beta_r)


def cocycles_cohomologous(OD: OrientedDialgebra, pair1, pair2):
    """A γ whose coboundary is pair1 - pair2, or None if the classes differ.

    γ is returned as a d x d matrix; plugging it into the degree-0
    coboundary reproduces the difference exactly.
    """
    for pair in (pair1, pair2):
        report = is_degree1_cocycle(OD, pair[0], pair[1])
        if not report.ok:
            raise NotCocycleError(report.checks[0].witness)
    v1 = degree1_pack(OD, pair1[0], pair1[1])
    v2 = degree1_pack(OD, pair2[0], pair2[1])
    diff = [normalize_scalar(a - b) for a, b in zip(v1, v2)]
    u = in_image(degree1_coboundary_matrix(OD), diff)
    if u is None:
        return None
    d = OD.dim
    return Matrix(d, d, u).transpose()
