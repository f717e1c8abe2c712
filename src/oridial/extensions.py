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
    degree1_coboundary_matrix,
    degree1_pack,
    is_degree1_cocycle,
)
from .dialgebra import Check, Dialgebra, Report, zero_tensor
from .linalg import Matrix, in_image, normalize_scalar, rank, vec_sub
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
    beta_l, beta_r = beta
    left = zero_tensor(2 * d)
    right = zero_tensor(2 * d)
    for tensor, base_tensor, defect in ((left, OD.base.left, beta_l),
                                        (right, OD.base.right, beta_r)):
        for i in range(d):
            for j in range(d):
                prod = base_tensor[i][j]
                for k in range(d):
                    v = prod[k]
                    if v:
                        tensor[i][d + j][k] = v          # kernel ∘ base -> kernel
                        tensor[d + i][j][k] = v          # base ∘ kernel -> kernel
                        tensor[d + i][d + j][d + k] = v  # base ∘ base -> base
                for k in range(d):
                    v = defect[i][j][k]
                    if v:
                        tensor[d + i][d + j][k] = normalize_scalar(v)  # base ∘ base -> kernel
    B = Dialgebra(2 * d, left, right)
    action = []
    for g in OD.group.elements():
        rho = OD.action[g]
        twist = alpha[g].mul(rho)  # x -> α(g, g x)
        rows = []
        for r in range(d):
            rows.append([rho.at(r, c) for c in range(d)]
                        + [normalize_scalar(-twist.at(r, c)) for c in range(d)])
        for r in range(d):
            rows.append([0] * d + [rho.at(r, c) for c in range(d)])
        action.append(Matrix.from_rows(rows))
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
    (i, j) and of B (bi, bj) involved.
    """
    B = E.total
    inc, proj = E.inclusion, E.projection
    d = OD.dim
    base_report = check_oriented_dialgebra(B)
    dbasis = list(enumerate(OD.base.basis()))
    bbasis = list(enumerate(B.base.basis()))
    incl = [inc.matvec(x) for _, x in dbasis]
    projected = [proj.matvec(b) for _, b in bbasis]
    prods = (("left", B.base.lmul, OD.base.lmul), ("right", B.base.rmul, OD.base.rmul))
    return Report([
        Check("middle term is an oriented dialgebra", base_report.ok,
              [c.name for c in base_report.failures()] or None),
        Check("p . i = 0", proj.mul(inc).is_zero()),
        Check("sequence is exact (ranks d, d on dimension 2d)",
              rank(inc) == d and rank(proj) == d and B.dim == 2 * d),
        Check.first("i and p are G-equivariant", (
            (side, g) for g in OD.group.elements() for side, ok in (
                ("i", inc.mul(OD.action[g]) == B.action[g].mul(inc)),
                ("p", OD.action[g].mul(proj) == proj.mul(B.action[g])))
            if not ok)),
        Check.first("p is a dialgebra morphism", (
            (name, bi, bj) for (bi, b1), (bj, b2) in product(bbasis, repeat=2)
            for name, bprod, dprod in prods
            if proj.matvec(bprod(b1, b2)) != dprod(projected[bi], projected[bj]))),
        Check.first("included copy multiplies to zero", (
            (i, j) for i, j in product(range(d), repeat=2)
            if any(B.base.lmul(incl[i], incl[j])) or any(B.base.rmul(incl[i], incl[j])))),
        Check.first("kernel products factor through p", (
            (name, side, i, bj) for (i, x), (bj, b) in product(dbasis, bbasis)
            for name, bprod, dprod in prods
            for side, lhs, rhs in (
                ("i(x) . b", bprod(incl[i], b), inc.matvec(dprod(x, projected[bj]))),
                ("b . i(x)", bprod(b, incl[i]), inc.matvec(dprod(projected[bj], x))))
            if lhs != rhs)),
    ])


def extract_cocycle(OD: OrientedDialgebra, E: SingularExtension, section: Matrix):
    """Defect pair (α, β) of a section; asserted to be a cocycle."""
    d = OD.dim
    B = E.total
    if section.shape() != (2 * d, d):
        raise NotSectionError(f"section must be {2 * d}x{d}")
    if E.projection.mul(section) != Matrix.identity(d):
        raise NotSectionError("p . s is not the identity")

    def kernel_coords(v):
        a = in_image(E.inclusion, v)
        if a is None:
            raise ExtensionInvalidError(Report([Check("defect lands in the kernel", False, v)]))
        return a

    basis = OD.base.basis()
    alpha = []
    for g in OD.group.elements():
        ginv = OD.group.inv(g)
        cols = []
        for x in basis:
            v = section.matvec(x)
            w = B.action[g].matvec(section.matvec(OD.act(ginv, x)))
            cols.append(kernel_coords(vec_sub(v, w)))
        alpha.append(Matrix.from_rows([[cols[i][k] for i in range(d)] for k in range(d)]))

    def defect(bprod, dprod):
        out = zero_tensor(d)
        for i, x1 in enumerate(basis):
            s1 = section.matvec(x1)
            for j, x2 in enumerate(basis):
                v = bprod(s1, section.matvec(x2))
                w = section.matvec(dprod(x1, x2))
                out[i][j] = kernel_coords(vec_sub(v, w))
        return out

    beta_l = defect(B.base.lmul, OD.base.lmul)
    beta_r = defect(B.base.rmul, OD.base.rmul)
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
    diff = vec_sub(v1, v2)
    u = in_image(degree1_coboundary_matrix(OD), diff)
    if u is None:
        return None
    d = OD.dim
    return Matrix.from_rows([[u[i * d + k] for i in range(d)] for k in range(d)])
