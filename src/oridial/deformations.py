"""Truncated one-parameter formal deformations of an oriented dialgebra.

A deformation replaces both products and the group action by power series
in t (truncated here at a chosen order N, i.e. coefficients mod t^(N+1)):

    mˡ_t = Σ mˡ_i tⁱ,   mʳ_t = Σ mʳ_i tⁱ,   Φ_t(g) = Σ φ_i(g) tⁱ

with mˡ_0, mʳ_0 the original products and φ_0 the original action.  The
defining laws — the five dialgebra axioms for (mˡ_t, mʳ_t), the
composition law Φ_t(g₁g₂) = Φ_t(g₁) ∘ Φ_t(g₂), and the ε-twisted
compatibility of Φ_t with both products — are all identities per power of
t, so truncated checking is exact.

The order-1 data of a deformation, repackaged as the pair

    m_1 = (mˡ_1, mʳ_1)   and   θ_1(g, x) = -φ_1(g, g⁻¹x),

is always a degree-1 cocycle, and equivalent deformations (intertwined by
an invertible series Ψ_t with ψ_0 = id) have cohomologous infinitesimals:
ψ_1 is an explicit certificate.  Transporting the constant deformation
along an arbitrary Ψ_t is the standard source of valid nontrivial
examples and is provided as ``transport_constant``.

Every law and every transport here works on truncated power series, each
a list of its N + 1 coefficients by power of t.  A vector series is a list
of coordinate vectors, a tensor series a list of structure-constant
tensors (``mlt``, ``mrt``), and a matrix series a list of ``Matrix``
(``psi``, or one group element's ``phi[n][g]`` over n).  Three truncated
Cauchy products combine them: ``_bilinear`` (a tensor series on two vector
series), ``_matvec`` (a matrix series on a vector series) and ``_mul`` (two
matrix series).  A truncated deformation is an oriented dialgebra over
K[t]/(t^(N+1)), so ``check_deformation`` runs the undeformed laws with these
products in place of ``bilinear``, ``Matrix.matvec`` and ``Matrix.mul``; the
five axioms come from the table of ``dialgebra.check_axioms``.  A failing
law's witness is (power, indices): the lowest power at which it fails,
then the first basis indices or group elements there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cohomology import (
    degree1_coboundary,
    degree1_pack,
    equivariant_cohomology,
    degree1_unpack,
    EngineConfig,
    DEFAULT_CONFIG,
)
from .dialgebra import Check, Report, _axiom_table, bilinear, validated_tensor, zero_tensor
from .linalg import Matrix, vec_sub, vec_sum
from .oriented import OrientedDialgebra


class PrecedingTermsNonzeroError(ValueError):
    pass


class CertificateFailureError(RuntimeError):
    pass


@dataclass
class TruncatedDeformation:
    """Coefficient arrays up to t^order.

    ``mlt``/``mrt`` are lists of d x d x d tensors, ``phi`` a list (one per
    power) of per-group-element d x d matrices.
    """

    order: int
    mlt: list
    mrt: list
    phi: list

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("deformation order must be at least 1")
        for arr, name in ((self.mlt, "mlt"), (self.mrt, "mrt"), (self.phi, "phi")):
            if len(arr) != self.order + 1:
                raise ValueError(f"{name} must have order+1 = {self.order + 1} entries")


@dataclass
class DeformationEquivalence:
    """An intertwiner Ψ_t = id + ψ_1 t + ... + ψ_N t^N."""

    order: int
    psi: list

    def __post_init__(self):
        if len(self.psi) != self.order + 1:
            raise ValueError(f"psi must have order+1 = {self.order + 1} entries")
        d = self.psi[0].rows
        if self.psi[0] != Matrix.identity(d):
            raise ValueError("psi_0 must be the identity")


@dataclass
class Infinitesimal:
    """The pair (m_n, θ_n) of the first potentially nonzero coefficients."""

    order: int
    theta: list          # one matrix per group element, θ_n(g)
    m_left: list         # tensor, the ⊣ direction of m_n
    m_right: list        # tensor, the ⊢ direction of m_n

    def as_pair(self):
        """(α, β) shape accepted by the degree-1 cocycle layer."""
        return self.theta, (self.m_left, self.m_right)


def constant_deformation(OD: OrientedDialgebra, order: int) -> TruncatedDeformation:
    """The deformation with all higher coefficients zero."""
    d = OD.dim
    mlt = [OD.base.left] + [zero_tensor(d) for _ in range(order)]
    mrt = [OD.base.right] + [zero_tensor(d) for _ in range(order)]
    phi = [list(OD.action)] + [[Matrix.zeros(d, d) for _ in OD.group.elements()]
                               for _ in range(order)]
    return TruncatedDeformation(order, mlt, mrt, phi)


# ---------------------------------------------------------------------------
# truncated series: coefficient lists of length N + 1


def _bilinear(T: list, x: list, y: list) -> list:
    """Σ_{i+j+k=n} T_i(x_j, y_k): a tensor series on two vector series."""
    terms = [[] for _ in T]
    for j, xj in enumerate(x):
        if any(xj):
            for k, yk in enumerate(y[:len(T) - j]):
                if any(yk):
                    for i, Ti in enumerate(T[:len(T) - j - k]):
                        terms[i + j + k].append(bilinear(Ti, xj, yk))
    return [vec_sum(t, len(x[0])) for t in terms]


def _matvec(A: list, x: list) -> list:
    """Σ_{i+j=n} A_i x_j: a matrix series on a vector series."""
    terms = [[] for _ in A]
    for j, xj in enumerate(x):
        if any(xj):
            for i, Ai in enumerate(A[:len(A) - j]):
                terms[i + j].append(Ai.matvec(xj))
    return [vec_sum(t, len(x[0])) for t in terms]


def _mul(A: list, B: list) -> list:
    """Σ_{i+j=n} A_i B_j: the product of two matrix series."""
    rows, cols = A[0].rows, B[0].cols
    terms = [[] for _ in A]
    for j, Bj in enumerate(B):
        if any(Bj.entries):
            for i, Ai in enumerate(A[:len(A) - j]):
                terms[i + j].append(Ai.mul(Bj).entries)
    return [Matrix(rows, cols, vec_sum(t, rows * cols)) for t in terms]


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


def _constant(x: list, order: int) -> list:
    """The vector series x + 0·t + ... + 0·t^order."""
    return [x] + [[0] * len(x) for _ in range(order)]


def _law(name: str, sides) -> Check:
    """A law from (indices, lhs series, rhs series) triples.

    It fails at the lowest power where two sides differ, and there at the
    smallest indices: the first failing ones of a loop over that power,
    since every caller lists its index tuples in lexicographic order.
    """
    return Check.first(name, sorted((n, idx) for idx, lhs, rhs in sides
                                    for n, (u, v) in enumerate(zip(lhs, rhs)) if u != v))


# ---------------------------------------------------------------------------
# laws


DEFORMED_AXIOMS = [
    "left products associate",
    "right products associate",
    "mixed law (x<y)<z = x<(y>z)",
    "mixed law (x>y)<z = x>(y<z)",
    "mixed law (x<y)>z = (x>y)>z",
]


def check_deformation(OD: OrientedDialgebra, deformation: TruncatedDeformation) -> Report:
    """Verify every defining law per power of t up to the truncation order.

    Witnesses are (power, (i, j, k)) for the axioms, (power, (g, h)) for
    composition, (power, (g, i, j)) for the twisted compatibility and
    (0, ()) for wrong order-0 terms.
    """
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

    # the axioms share their inner products and the twisted law reuses
    # the products of basis pairs: each series is evaluated once
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


def infinitesimal(OD: OrientedDialgebra, deformation: TruncatedDeformation, n: int = 1) -> Infinitesimal:
    """The pair (m_n, θ_n); earlier coefficients must vanish for n > 1."""
    if not 1 <= n <= deformation.order:
        raise ValueError(f"order {n} outside 1..{deformation.order}")
    d = OD.dim
    zero = zero_tensor(d)
    for i in range(1, n):
        if (validated_tensor(d, deformation.mlt[i]) != zero
                or validated_tensor(d, deformation.mrt[i]) != zero
                or any(not deformation.phi[i][g].is_zero() for g in OD.group.elements())):
            raise PrecedingTermsNonzeroError(
                f"coefficient {i} is nonzero; the order-{n} infinitesimal is undefined")
    theta = []
    for g in OD.group.elements():
        rho_inv = OD.action[OD.group.inv(g)]
        prod = deformation.phi[n][g].mul(rho_inv)
        theta.append(Matrix(d, d, [-v for v in prod.entries]))
    return Infinitesimal(n, theta,
                         validated_tensor(d, deformation.mlt[n]),
                         validated_tensor(d, deformation.mrt[n]))


def check_equivalence(
    OD: OrientedDialgebra,
    def1: TruncatedDeformation,
    def2: TruncatedDeformation,
    eq: DeformationEquivalence,
) -> Report:
    """Does Ψ intertwine def2 into def1, coefficient-wise up to order N?

    The convention matches the transported-deformation generator:
    Ψ_t(mˡ²_t(y1, y2)) = mˡ¹_t(Ψ_t y1, Ψ_t y2), likewise for ⊢ and Φ.
    Witnesses are (power, (i, j)) for the products and (power, (g,)) for
    the actions.
    """
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


def infinitesimals_cohomologous(
    OD: OrientedDialgebra,
    def1: TruncatedDeformation,
    def2: TruncatedDeformation,
    eq: DeformationEquivalence,
) -> Matrix:
    """ψ_1 as the certificate: its coboundary is infinitesimal(def2) - infinitesimal(def1).

    The equality is verified exactly; failure means an engine bug, not bad
    input, so it raises instead of reporting.
    """
    report = check_equivalence(OD, def1, def2, eq)
    if not report.ok:
        raise ValueError(f"deformations are not equivalent via the given Ψ: {report.failures()[0]}")
    inf1 = infinitesimal(OD, def1, 1)
    inf2 = infinitesimal(OD, def2, 1)
    psi1 = eq.psi[1]
    alpha, beta = degree1_coboundary(OD, psi1)
    got = degree1_pack(OD, alpha, beta)
    want = vec_sub(degree1_pack(OD, *inf2.as_pair()), degree1_pack(OD, *inf1.as_pair()))
    if got != want:
        raise CertificateFailureError("coboundary of ψ_1 does not match the infinitesimal difference")
    return psi1


def _series_inverse(psi: list) -> list:
    """Coefficients of Ψ⁻¹ mod t^(N+1), given ψ_0 = id.

    Ψ⁻¹ = id + Q + Q² + ... + Q^N with Q = id - Ψ, by Horner's rule: Q has
    no constant term, so each round fixes one more coefficient.
    """
    d = psi[0].rows
    q = [Matrix.zeros(d, d)] + [Matrix(d, d, [-v for v in p.entries]) for p in psi[1:]]
    inv = [Matrix.identity(d)] + [Matrix.zeros(d, d) for _ in psi[1:]]
    for _ in psi[1:]:
        inv = [Matrix.identity(d)] + _mul(q, inv)[1:]
    return inv


def transport_deformation(
    OD: OrientedDialgebra,
    deformation: TruncatedDeformation,
    eq: DeformationEquivalence,
) -> TruncatedDeformation:
    """Push a deformation forward along Ψ.

    The result has products Ψ ∘ m ∘ (Ψ⁻¹ ⊗ Ψ⁻¹) and action Ψ ∘ Φ ∘ Ψ⁻¹
    (truncated), so Ψ intertwines the input into the result per
    ``check_equivalence``; validity is preserved for arbitrary Ψ.
    """
    if eq.order != deformation.order:
        raise ValueError("orders of the deformation and the intertwiner must match")
    psi = eq.psi
    inv = _series_inverse(psi)
    pulled = [_matvec(inv, _constant(e, eq.order)) for e in OD.base.basis()]

    def push(m):
        # cells[i][j] is the series of the product of e_i and e_j; regroup by power
        cells = [[_matvec(psi, _bilinear(m, u, v)) for v in pulled] for u in pulled]
        return [[list(row) for row in plane] for plane in zip(*(zip(*row) for row in cells))]

    phi = [_mul(_mul(psi, series), inv) for series in zip(*deformation.phi)]
    return TruncatedDeformation(eq.order, push(deformation.mlt), push(deformation.mrt),
                                [list(per_g) for per_g in zip(*phi)])


def transport_constant(OD: OrientedDialgebra, psis: list, order: int) -> TruncatedDeformation:
    """Conjugate the constant deformation by Ψ_t = id + Σ ψ_i tⁱ.

    Products become Ψ⁻¹(Ψ(x) ∘ Ψ(y)) and the action Ψ⁻¹ ∘ ρ(g) ∘ Ψ,
    truncated; the result always passes ``check_deformation`` and is
    equivalent to the constant deformation via Ψ itself.
    """
    d = OD.dim
    if len(psis) != order:
        raise ValueError(f"need {order} matrices psi_1..psi_{order}")
    psi = [Matrix.identity(d)] + list(psis)
    # pulling back along Ψ is pushing forward along Ψ⁻¹
    reverse = DeformationEquivalence(order, _series_inverse(psi))
    return transport_deformation(OD, constant_deformation(OD, order), reverse)


@dataclass
class RigidityReport:
    """Necessary-condition probe: a trivial obstruction space does not by
    itself prove rigidity, but a nonzero one exhibits candidate
    infinitesimals no equivalence can remove."""

    dim: int
    obstruction_trivial: bool
    candidates: list  # (α, β) pairs for each nonzero class representative


def rigidity_probe(
    OD: OrientedDialgebra, config: EngineConfig = DEFAULT_CONFIG
) -> RigidityReport:
    result = equivariant_cohomology(OD, 1, config)
    candidates = [degree1_unpack(OD, rep) for rep in result.representatives]
    return RigidityReport(result.dim, result.dim == 0, candidates)
