"""The structure checkers evaluated vector by vector in exact scalars.

Each reference evaluates the laws of one checker of ``dialgebra``,
``oriented``, ``extensions`` or ``deformations`` with ``bilinear``,
``Matrix.matvec`` and ``Matrix.mul`` on basis vectors, and for deformations
with the truncated Cauchy products of those, in ``Fraction`` arithmetic.
The parity tests require the integer checkers to return the same
``Report`` on every input: the same checks, ``ok`` values and first
witnesses.
"""

from itertools import product

from oridial.deformations import DEFORMED_AXIOMS, _bilinear, _constant, _matvec, _mul
from oridial.dialgebra import Check, Report, validated_tensor
from oridial.linalg import Matrix, rank


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
    triples = list(product(enumerate(D.basis()), repeat=3))
    return Report([
        Check.first(name, ((i, j, k) for (i, x), (j, y), (k, z) in triples
                           if lhs(x, y, z) != rhs(x, y, z)))
        for name, lhs, rhs in _axiom_table(D.lmul, D.rmul)
    ])


def reference_check_oriented_dialgebra(OD) -> Report:
    G = OD.group
    D = OD.base
    basis = D.basis()
    cells = list(product(G.elements(), range(D.dim), range(D.dim)))
    moved = [[OD.act(g, x) for x in basis] for g in G.elements()]

    def twisted(prod):
        # g(x ∘ y) = gx ∘ gy, or gy ∘ gx when ε(g) = -1
        return ((g, i, j) for g, i, j in cells
                if OD.act(g, prod(basis[i], basis[j])) != (
                    prod(moved[g][i], moved[g][j]) if G.sign(g) == 1
                    else prod(moved[g][j], moved[g][i])))

    ident = OD.action[0] == Matrix.identity(D.dim)
    return Report([
        Check("identity acts as the identity matrix", ident, None if ident else 0),
        Check.first("action is a group homomorphism",
                    ((a, b) for a, b in product(G.elements(), repeat=2)
                     if OD.action[a].mul(OD.action[b]) != OD.action[G.mul(a, b)])),
        Check.first("action matrices are invertible",
                    (g for g in G.elements() if rank(OD.action[g]) != D.dim)),
        Check.first("twisted compatibility of the left product", twisted(D.lmul)),
        Check.first("twisted compatibility of the right product", twisted(D.rmul)),
    ])


def reference_check_extension(OD, E) -> Report:
    B = E.total
    inc, proj = E.inclusion, E.projection
    d = OD.dim
    base_report = reference_check_oriented_dialgebra(B)
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


def _memoized(T: list):
    """``_bilinear`` on T, each distinct pair of argument series evaluated once."""
    cache = {}

    def mult(x: list, y: list) -> list:
        key = (tuple(map(tuple, x)), tuple(map(tuple, y)))
        value = cache.get(key)
        if value is None:
            value = cache[key] = _bilinear(T, x, y)
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
    basis = [_constant(e, deformation.order) for e in OD.base.basis()]

    base_ok = (ml[0] == OD.base.left and mr[0] == OD.base.right
               and all(series[0] == OD.action[g] for g, series in enumerate(phi)))
    checks = [Check("order-0 terms equal the undeformed structure", base_ok,
                    None if base_ok else (0, ()))]

    l, r = _memoized(ml), _memoized(mr)
    triples = list(product(enumerate(basis), repeat=3))
    table = _axiom_table(l, r)
    for name, (_, lhs, rhs) in zip(DEFORMED_AXIOMS, table):
        checks.append(_law(f"deformed dialgebra axiom: {name}", (
            ((a, b, c), lhs(x, y, z), rhs(x, y, z)) for (a, x), (b, y), (c, z) in triples)))

    checks.append(_law("deformed action composes: Φ(gh) = Φ(g)Φ(h)", (
        ((g, h), phi[G.mul(g, h)], _mul(phi[g], phi[h]))
        for g, h in product(G.elements(), repeat=2))))

    moved = [[_matvec(series, e) for e in basis] for series in phi]
    cells = [(g, a, b) for g in G.elements() for a, b in product(range(d), repeat=2)]
    for name, m in (("left", l), ("right", r)):
        # Φ(g)(y1 ∘ y2) = Φ(g)y1 ∘ Φ(g)y2, arguments swapped when ε(g) = -1
        checks.append(_law(f"deformed action respects the {name} product (ε-twisted)", (
            ((g, a, b), _matvec(phi[g], m(basis[a], basis[b])),
             m(moved[g][a], moved[g][b]) if OD.sign(g) == 1
             else m(moved[g][b], moved[g][a]))
            for g, a, b in cells)))
    return Report(checks)


def reference_check_equivalence(OD, def1, def2, eq) -> Report:
    if not def1.order == def2.order == eq.order:
        raise ValueError("orders of the deformations and the intertwiner must match")
    psi = eq.psi
    basis = [_constant(e, eq.order) for e in OD.base.basis()]
    moved = [_matvec(psi, e) for e in basis]
    pairs = list(product(range(OD.dim), repeat=2))
    checks = [
        _law(f"Ψ intertwines the {name} products", (
            ((a, b), _matvec(psi, _bilinear(m2, basis[a], basis[b])),
             _bilinear(m1, moved[a], moved[b])) for a, b in pairs))
        for name, m2, m1 in (("left", def2.mlt, def1.mlt), ("right", def2.mrt, def1.mrt))
    ]
    checks.append(_law("Ψ intertwines the actions", (
        ((g,), _mul(psi, phi2), _mul(phi1, psi))
        for g, phi2, phi1 in zip(OD.group.elements(), zip(*def2.phi), zip(*def1.phi)))))
    return Report(checks)
