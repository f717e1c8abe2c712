"""Fraction references for the integer engine, evaluated vector by vector.

Each reference evaluates what one function of ``dialgebra``, ``oriented``,
``extensions``, ``cohomology`` or ``deformations`` computes, on basis
vectors, with the plain helpers below (``bilinear``, ``apply``,
``Matrix.mul`` and their truncated power-series forms), in ``Fraction``
arithmetic.  The parity tests require the integer engine to agree: a
checker returns the same ``Report`` (the same checks, ``ok`` values and
first witnesses), a constructor, transport or coboundary returns results
with the same ``repr``, and a failure raises the same error class with the
same witness.
"""

from fractions import Fraction
from itertools import product

from oridial.cohomology import degree1_pack, is_degree1_cocycle
from oridial.deformations import DEFORMED_AXIOMS, TruncatedDeformation, constant_deformation
from oridial.dialgebra import (
    AxiomFailureError,
    Check,
    Dialgebra,
    NotAssociativeError,
    NotBimoduleError,
    NotBimoduleMapError,
    NotDerivationError,
    NotSquareZeroError,
    Report,
    check_axioms,
    validated_tensor,
)
from oridial.extensions import ExtensionInvalidError, NotCocycleError, NotSectionError
from oridial.linalg import Matrix, ShapeMismatchError, in_image, normalize_scalar, rank


# ---------------------------------------------------------------------------
# vectors, matrices and series in Fraction arithmetic


def basis(d: int) -> list:
    return [[int(i == k) for k in range(d)] for i in range(d)]


def vec_sum(vectors, d: int) -> list:
    return [normalize_scalar(sum((Fraction(v[k]) for v in vectors), Fraction(0))) for k in range(d)]


def vec_sub(u: list, v: list) -> list:
    return vec_sum([u, [-x for x in v]], len(u))


def bilinear(T, x: list, y: list) -> list:
    """T(x, y) for a structure-constant tensor on coordinate vectors."""
    terms = [(Fraction(xi) * yj, T[i][j]) for i, xi in enumerate(x) if xi
             for j, yj in enumerate(y) if yj]
    return [normalize_scalar(sum((c * row[k] for c, row in terms), Fraction(0)))
            for k in range(len(T[0][0]))]


def apply(m: Matrix, v: list) -> list:
    """m·v on a coordinate vector."""
    return [normalize_scalar(sum((Fraction(a) * x for a, x in zip(row, v) if x), Fraction(0)))
            for row in m.to_rows()]


def constant(x: list, order: int) -> list:
    """The vector series x + 0·t + ... + 0·t^order."""
    return [x] + [[0] * len(x) for _ in range(order)]


def series_bilinear(T: list, x: list, y: list) -> list:
    """Σ_{i+j+k=n} T_i(x_j, y_k): a tensor series on two vector series."""
    w = len(T[0][0][0])
    return [vec_sum([bilinear(T[i], x[j], y[n - i - j])
                     for i in range(n + 1) for j in range(n + 1 - i)], w)
            for n in range(len(T))]


def series_apply(A: list, x: list) -> list:
    """Σ_{i+j=n} A_i x_j: a matrix series on a vector series."""
    return [vec_sum([apply(A[i], x[n - i]) for i in range(n + 1)], A[0].rows)
            for n in range(len(A))]


def series_mul(A: list, B: list) -> list:
    """Σ_{i+j=n} A_i B_j: the product of two matrix series."""
    rows, cols = A[0].rows, B[0].cols
    return [Matrix(rows, cols, vec_sum([A[i].mul(B[n - i]).entries for i in range(n + 1)],
                                       rows * cols))
            for n in range(len(A))]


def _products(D):
    return (lambda x, y: bilinear(D.left, x, y)), (lambda x, y: bilinear(D.right, x, y))


# ---------------------------------------------------------------------------
# structure checkers


# The five defining axioms as (name, lhs, rhs) on vectors, for the products
# l = ⊣ and r = ⊢; deformations run the same table over power series.
def _axiom_table(l, r):
    return [
        ("left-associativity: (x<y)<z = x<(y<z)",
         lambda x, y, z: l(l(x, y), z), lambda x, y, z: l(x, l(y, z))),
        ("right-associativity: (x>y)>z = x>(y>z)",
         lambda x, y, z: r(r(x, y), z), lambda x, y, z: r(x, r(y, z))),
        ("mixed: (x<y)<z = x<(y>z)",
         lambda x, y, z: l(l(x, y), z), lambda x, y, z: l(x, r(y, z))),
        ("mixed: (x>y)<z = x>(y<z)",
         lambda x, y, z: l(r(x, y), z), lambda x, y, z: r(x, l(y, z))),
        ("mixed: (x<y)>z = (x>y)>z",
         lambda x, y, z: r(l(x, y), z), lambda x, y, z: r(r(x, y), z)),
    ]


def reference_check_axioms(D) -> Report:
    triples = list(product(enumerate(basis(D.dim)), repeat=3))
    return Report([
        Check.first(name, ((i, j, k) for (i, x), (j, y), (k, z) in triples
                           if lhs(x, y, z) != rhs(x, y, z)))
        for name, lhs, rhs in _axiom_table(*_products(D))
    ])


def reference_check_oriented_dialgebra(OD) -> Report:
    G = OD.group
    D = OD.base
    E = basis(D.dim)
    cells = list(product(G.elements(), range(D.dim), range(D.dim)))
    moved = [[apply(OD.action[g], x) for x in E] for g in G.elements()]

    def twisted(prod):
        # g(x ∘ y) = gx ∘ gy, or gy ∘ gx when ε(g) = -1
        return ((g, i, j) for g, i, j in cells
                if apply(OD.action[g], prod(E[i], E[j])) != (
                    prod(moved[g][i], moved[g][j]) if G.sign(g) == 1
                    else prod(moved[g][j], moved[g][i])))

    l, r = _products(D)
    ident = OD.action[0] == Matrix.identity(D.dim)
    return Report([
        Check("identity acts as the identity matrix", ident, None if ident else 0),
        Check.first("action is a group homomorphism",
                    ((a, b) for a, b in product(G.elements(), repeat=2)
                     if OD.action[a].mul(OD.action[b]) != OD.action[G.mul(a, b)])),
        Check.first("action matrices are invertible",
                    (g for g in G.elements() if rank(OD.action[g]) != D.dim)),
        Check.first("twisted compatibility of the left product", twisted(l)),
        Check.first("twisted compatibility of the right product", twisted(r)),
    ])


def reference_check_extension(OD, E) -> Report:
    B = E.total
    inc, proj = E.inclusion, E.projection
    d = OD.dim
    middle = [c.name for report in (reference_check_axioms(B.base),
                                    reference_check_oriented_dialgebra(B))
              for c in report.failures()]
    dbasis = list(enumerate(basis(d)))
    bbasis = list(enumerate(basis(B.dim)))
    incl = [apply(inc, x) for _, x in dbasis]
    projected = [apply(proj, b) for _, b in bbasis]
    (bl, br), (dl, dr) = _products(B.base), _products(OD.base)
    prods = (("left", bl, dl), ("right", br, dr))
    return Report([
        Check("middle term is an oriented dialgebra", not middle, middle or None),
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
            if apply(proj, bprod(b1, b2)) != dprod(projected[bi], projected[bj]))),
        Check.first("included copy multiplies to zero", (
            (i, j) for i, j in product(range(d), repeat=2)
            if any(bl(incl[i], incl[j])) or any(br(incl[i], incl[j])))),
        Check.first("kernel products factor through p", (
            (name, side, i, bj) for (i, x), (bj, b) in product(dbasis, bbasis)
            for name, bprod, dprod in prods
            for side, lhs, rhs in (
                ("i(x) . b", bprod(incl[i], b), apply(inc, dprod(x, projected[bj]))),
                ("b . i(x)", bprod(b, incl[i]), apply(inc, dprod(projected[bj], x))))
            if lhs != rhs)),
    ])


def _memoized(T: list):
    """``series_bilinear`` on T, each distinct pair of argument series evaluated once."""
    cache = {}

    def mult(x: list, y: list) -> list:
        key = (tuple(map(tuple, x)), tuple(map(tuple, y)))
        value = cache.get(key)
        if value is None:
            value = cache[key] = series_bilinear(T, x, y)
        return value
    return mult


def _law(name: str, sides) -> Check:
    """A law from (indices, lhs series, rhs series) triples, failing at its lowest power."""
    return Check.first(name, sorted((n, idx) for idx, lhs, rhs in sides
                                    for n, (u, v) in enumerate(zip(lhs, rhs)) if u != v))


def reference_check_deformation(OD, deformation) -> Report:
    d = OD.dim
    G = OD.group
    ml = [validated_tensor(d, t) for t in deformation.mlt]
    mr = [validated_tensor(d, t) for t in deformation.mrt]
    phi = list(zip(*deformation.phi))   # one series per group element
    E = [constant(e, deformation.order) for e in basis(d)]

    base_ok = (ml[0] == OD.base.left and mr[0] == OD.base.right
               and all(series[0] == OD.action[g] for g, series in enumerate(phi)))
    checks = [Check("order-0 terms equal the undeformed structure", base_ok,
                    None if base_ok else (0, ()))]

    l, r = _memoized(ml), _memoized(mr)
    triples = list(product(enumerate(E), repeat=3))
    table = _axiom_table(l, r)
    for name, (_, lhs, rhs) in zip(DEFORMED_AXIOMS, table):
        checks.append(_law(f"deformed dialgebra axiom: {name}", (
            ((a, b, c), lhs(x, y, z), rhs(x, y, z)) for (a, x), (b, y), (c, z) in triples)))

    checks.append(_law("deformed action composes: Φ(gh) = Φ(g)Φ(h)", (
        ((g, h), phi[G.mul(g, h)], series_mul(phi[g], phi[h]))
        for g, h in product(G.elements(), repeat=2))))

    moved = [[series_apply(series, e) for e in E] for series in phi]
    cells = [(g, a, b) for g in G.elements() for a, b in product(range(d), repeat=2)]
    for name, m in (("left", l), ("right", r)):
        # Φ(g)(y1 ∘ y2) = Φ(g)y1 ∘ Φ(g)y2, arguments swapped when ε(g) = -1
        checks.append(_law(f"deformed action respects the {name} product (ε-twisted)", (
            ((g, a, b), series_apply(phi[g], m(E[a], E[b])),
             m(moved[g][a], moved[g][b]) if OD.sign(g) == 1
             else m(moved[g][b], moved[g][a]))
            for g, a, b in cells)))
    return Report(checks)


def reference_check_equivalence(OD, def1, def2, eq) -> Report:
    if not def1.order == def2.order == eq.order:
        raise ValueError("orders of the deformations and the intertwiner must match")
    psi = eq.psi
    E = [constant(e, eq.order) for e in basis(OD.dim)]
    moved = [series_apply(psi, e) for e in E]
    pairs = list(product(range(OD.dim), repeat=2))
    checks = [
        _law(f"Ψ intertwines the {name} products", (
            ((a, b), series_apply(psi, series_bilinear(m2, E[a], E[b])),
             series_bilinear(m1, moved[a], moved[b])) for a, b in pairs))
        for name, m2, m1 in (("left", def2.mlt, def1.mlt), ("right", def2.mrt, def1.mrt))
    ]
    checks.append(_law("Ψ intertwines the actions", (
        ((g,), series_mul(psi, phi2), series_mul(phi1, psi))
        for g, phi2, phi1 in zip(OD.group.elements(), zip(*def2.phi), zip(*def1.phi)))))
    return Report(checks)


# ---------------------------------------------------------------------------
# constructors and morphisms


def _checked(D: Dialgebra) -> Dialgebra:
    report = check_axioms(D)
    if not report.ok:
        raise AxiomFailureError(report)
    return D


def _check_associative(mult) -> None:
    E = basis(len(mult))
    for (i, x), (j, y), (k, z) in product(enumerate(E), repeat=3):
        if bilinear(mult, bilinear(mult, x, y), z) != bilinear(mult, x, bilinear(mult, y, z)):
            raise NotAssociativeError((i, j, k))


def reference_from_differential(mult, diff: Matrix) -> Dialgebra:
    dim = len(mult)
    mult = validated_tensor(dim, mult)
    _check_associative(mult)
    if diff.shape() != (dim, dim):
        raise ShapeMismatchError(f"differential must be {dim}x{dim}")
    E = basis(dim)
    for (i, x), (j, y) in product(enumerate(E), repeat=2):
        lhs = apply(diff, bilinear(mult, x, y))
        rhs = vec_sum([bilinear(mult, apply(diff, x), y), bilinear(mult, x, apply(diff, y))], dim)
        if lhs != rhs:
            raise NotDerivationError((i, j))
    if not diff.mul(diff).is_zero():
        raise NotSquareZeroError()
    left = [[bilinear(mult, x, apply(diff, y)) for y in E] for x in E]
    right = [[bilinear(mult, apply(diff, x), y) for y in E] for x in E]
    return _checked(Dialgebra(dim, left, right))


def reference_from_bimodule_map(a_mult, m_actions, f: Matrix) -> Dialgebra:
    da = len(a_mult)
    a_mult = validated_tensor(da, a_mult)
    _check_associative(a_mult)
    act_l, act_r = m_actions
    dm = len(act_l[0])
    if f.shape() != (da, dm):
        raise ShapeMismatchError(f"bimodule map must be {da}x{dm}")

    def lact(a, m):
        return bilinear(act_l, a, m)

    def ract(m, a):
        return bilinear(act_r, m, a)

    abasis, mbasis = basis(da), basis(dm)
    for i, a in enumerate(abasis):
        for j, b in enumerate(abasis):
            ab = bilinear(a_mult, a, b)
            for k, m in enumerate(mbasis):
                if lact(ab, m) != lact(a, lact(b, m)):
                    raise NotBimoduleError("(ab)m = a(bm)", (i, j, k))
                if ract(lact(a, m), b) != lact(a, ract(m, b)):
                    raise NotBimoduleError("(am)b = a(mb)", (i, k, j))
                if ract(ract(m, a), b) != ract(m, ab):
                    raise NotBimoduleError("(ma)b = m(ab)", (k, i, j))
    for i, a in enumerate(abasis):
        for k, m in enumerate(mbasis):
            if apply(f, lact(a, m)) != bilinear(a_mult, a, apply(f, m)):
                raise NotBimoduleMapError("f(am) = a f(m)", (i, k))
            if apply(f, ract(m, a)) != bilinear(a_mult, apply(f, m), a):
                raise NotBimoduleMapError("f(ma) = f(m) a", (k, i))
    left = [[ract(x, apply(f, y)) for y in mbasis] for x in mbasis]
    right = [[lact(apply(f, x), y) for y in mbasis] for x in mbasis]
    return _checked(Dialgebra(dm, left, right))


def reference_is_morphism(src, dst, f: Matrix) -> bool:
    if f.shape() != (dst.dim, src.dim):
        raise ShapeMismatchError(f"morphism matrix must be {dst.dim}x{src.dim}")
    E = basis(src.dim)
    return all(apply(f, bilinear(S, x, y)) == bilinear(T, apply(f, x), apply(f, y))
               for S, T in ((src.left, dst.left), (src.right, dst.right))
               for x in E for y in E)


# ---------------------------------------------------------------------------
# the degree-0 coboundary, extraction and transport


def reference_degree1_coboundary(OD, gamma: Matrix):
    D, G = OD.base, OD.group
    d = D.dim
    E = basis(d)
    alpha = []
    for g in G.elements():
        cols = [vec_sub(apply(gamma, x), apply(OD.action[g], apply(gamma, apply(
            OD.action[G.inv(g)], x)))) for x in E]
        alpha.append(Matrix.from_rows(zip(*cols)))
    beta = tuple([[vec_sum([bilinear(T, x, apply(gamma, y)),
                            [-v for v in apply(gamma, bilinear(T, x, y))],
                            bilinear(T, apply(gamma, x), y)], d) for y in E] for x in E]
                 for T in (D.left, D.right))
    return alpha, beta


def order1_deformation(OD, alpha, beta) -> TruncatedDeformation:
    """(α, β) as the order-1 deformation mˡ₁ = β⊣, mʳ₁ = β⊢, φ₁(g) = -α(g)ρ(g)."""
    d = OD.dim
    phi1 = [Matrix(d, d, [-x for x in a.mul(rho).entries]) for a, rho in zip(alpha, OD.action)]
    return TruncatedDeformation(1, [OD.base.left, beta[0]], [OD.base.right, beta[1]],
                                [list(OD.action), phi1])


def reference_degree1_coboundary_matrix(OD) -> Matrix:
    d = OD.dim
    cols = [degree1_pack(OD, *reference_degree1_coboundary(OD, Matrix(d, d, [
        int(r == k and c == i) for r in range(d) for c in range(d)])))
        for i in range(d) for k in range(d)]
    return Matrix.from_rows(zip(*cols))


def reference_extract_cocycle(OD, E, section: Matrix):
    d, G = OD.dim, OD.group
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

    s = [apply(section, x) for x in basis(d)]
    alpha = []
    for g in G.elements():
        cols = [kernel_coords(vec_sub(s[i], apply(B.action[g], apply(
            section, apply(OD.action[G.inv(g)], x))))) for i, x in enumerate(basis(d))]
        alpha.append(Matrix.from_rows(zip(*cols)))

    def defect(bprod, dprod):
        return [[kernel_coords(vec_sub(bilinear(bprod, s[i], s[j]),
                                       apply(section, bilinear(dprod, x, y))))
                 for j, y in enumerate(basis(d))] for i, x in enumerate(basis(d))]

    beta = (defect(B.base.left, OD.base.left), defect(B.base.right, OD.base.right))
    report = is_degree1_cocycle(OD, alpha, beta)
    if not report.ok:
        raise NotCocycleError(report.checks[0].witness)
    return alpha, beta


def _series_inverse(psi: list) -> list:
    """Coefficients of Ψ⁻¹ mod t^(N+1) for ψ_0 = id, by Horner's rule."""
    d = psi[0].rows
    q = [Matrix.zeros(d, d)] + [Matrix(d, d, [-v for v in p.entries]) for p in psi[1:]]
    inv = [Matrix.identity(d)] + [Matrix.zeros(d, d) for _ in psi[1:]]
    for _ in psi[1:]:
        inv = [Matrix.identity(d)] + series_mul(q, inv)[1:]
    return inv


def _push_forward(OD, deformation, psi: list, inv: list) -> TruncatedDeformation:
    """Products Ψ∘m∘(Ψ⁻¹⊗Ψ⁻¹) and action Ψ∘Φ∘Ψ⁻¹, truncated."""
    order = deformation.order
    pulled = [series_apply(inv, constant(e, order)) for e in basis(OD.dim)]

    def push(m):
        cells = [[series_apply(psi, series_bilinear(m, u, v)) for v in pulled] for u in pulled]
        # cells[i][j] is a series; regroup by power
        return [[list(row) for row in plane] for plane in zip(*(zip(*row) for row in cells))]

    phi = [series_mul(series_mul(psi, series), inv) for series in zip(*deformation.phi)]
    return TruncatedDeformation(order, push(deformation.mlt), push(deformation.mrt),
                                [list(per_g) for per_g in zip(*phi)])


def reference_transport_deformation(OD, deformation, eq) -> TruncatedDeformation:
    return _push_forward(OD, deformation, eq.psi, _series_inverse(eq.psi))


def reference_transport_constant(OD, psis: list, order: int) -> TruncatedDeformation:
    psi = [Matrix.identity(OD.dim)] + list(psis)
    return _push_forward(OD, constant_deformation(OD, order), _series_inverse(psi), psi)
