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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (
    CocycleReport,
    degree1_coboundary,
    degree1_pack,
    equivariant_cohomology,
    degree1_unpack,
    is_degree1_cocycle,
    EngineConfig,
    DEFAULT_CONFIG,
)
from .dialgebra import bilinear, validated_tensor, zero_tensor
from .linalg import Matrix, normalize_scalar
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


@dataclass
class ClauseCheck:
    clause: str
    ok: bool
    power: int | None = None
    witness: tuple | None = None


@dataclass
class DeformationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
        return None


def constant_deformation(OD: OrientedDialgebra, order: int) -> TruncatedDeformation:
    """The deformation with all higher coefficients zero."""
    d = OD.dim
    mlt = [OD.base.left] + [zero_tensor(d) for _ in range(order)]
    mrt = [OD.base.right] + [zero_tensor(d) for _ in range(order)]
    phi = [list(OD.action)] + [[Matrix.zeros(d, d) for _ in OD.group.elements()]
                               for _ in range(order)]
    return TruncatedDeformation(order, mlt, mrt, phi)


def _vec_add(u, v):
    return [normalize_scalar(a + b) for a, b in zip(u, v)]


def check_deformation(OD: OrientedDialgebra, deformation: TruncatedDeformation) -> DeformationReport:
    """Verify every defining law per power of t up to the truncation order."""
    d = OD.dim
    N = deformation.order
    ml = [validated_tensor(d, t) for t in deformation.mlt]
    mr = [validated_tensor(d, t) for t in deformation.mrt]
    phi = deformation.phi
    basis = OD.base.basis()
    checks = []

    base_ok = ml[0] == OD.base.left and mr[0] == OD.base.right
    base_ok = base_ok and all(phi[0][g] == OD.action[g] for g in OD.group.elements())
    checks.append(ClauseCheck("order-0 terms equal the undeformed structure", base_ok, 0))

    axioms = [
        ("left products associate", lambda i, j, x, y, z:
            bilinear(ml[i], bilinear(ml[j], x, y), z),
         lambda i, j, x, y, z: bilinear(ml[i], x, bilinear(ml[j], y, z))),
        ("right products associate", lambda i, j, x, y, z:
            bilinear(mr[i], bilinear(mr[j], x, y), z),
         lambda i, j, x, y, z: bilinear(mr[i], x, bilinear(mr[j], y, z))),
        ("mixed law (x<y)<z = x<(y>z)", lambda i, j, x, y, z:
            bilinear(ml[i], bilinear(ml[j], x, y), z),
         lambda i, j, x, y, z: bilinear(ml[i], x, bilinear(mr[j], y, z))),
        ("mixed law (x>y)<z = x>(y<z)", lambda i, j, x, y, z:
            bilinear(ml[i], bilinear(mr[j], x, y), z),
         lambda i, j, x, y, z: bilinear(mr[i], x, bilinear(ml[j], y, z))),
        ("mixed law (x<y)>z = (x>y)>z", lambda i, j, x, y, z:
            bilinear(mr[i], bilinear(ml[j], x, y), z),
         lambda i, j, x, y, z: bilinear(mr[i], bilinear(mr[j], x, y), z)),
    ]
    for name, lhs_fn, rhs_fn in axioms:
        check = ClauseCheck(f"deformed dialgebra axiom: {name}", True)
        for n in range(N + 1):
            for a, x in enumerate(basis):
                for b, y in enumerate(basis):
                    for c, z in enumerate(basis):
                        acc = [0] * d
                        for i in range(n + 1):
                            acc = _vec_add(acc, lhs_fn(i, n - i, x, y, z))
                            acc = _vec_add(acc, [-v for v in rhs_fn(i, n - i, x, y, z)])
                        if any(acc):
                            check = ClauseCheck(check.clause, False, n, (a, b, c))
                            break
                    if not check.ok:
                        break
                if not check.ok:
                    break
            if not check.ok:
                break
        checks.append(check)

    comp = ClauseCheck("deformed action composes: Φ(gh) = Φ(g)Φ(h)", True)
    for n in range(N + 1):
        for g in OD.group.elements():
            for h in OD.group.elements():
                lhs = phi[n][OD.group.mul(g, h)]
                rhs = Matrix.zeros(d, d)
                for i in range(n + 1):
                    term = phi[i][g].mul(phi[n - i][h])
                    rhs = Matrix(d, d, [a + b for a, b in zip(rhs.entries, term.entries)])
                if lhs != rhs:
                    comp = ClauseCheck(comp.clause, False, n, (g, h))
                    break
            if not comp.ok:
                break
        if not comp.ok:
            break
    checks.append(comp)

    for name, m in (("left", ml), ("right", mr)):
        compat = ClauseCheck(f"deformed action respects the {name} product (ε-twisted)", True)
        for n in range(N + 1):
            for g in OD.group.elements():
                eps = OD.sign(g)
                for a, y1 in enumerate(basis):
                    for b, y2 in enumerate(basis):
                        lhs = [0] * d
                        for i in range(n + 1):
                            lhs = _vec_add(lhs, phi[i][g].matvec(bilinear(m[n - i], y1, y2)))
                        rhs = [0] * d
                        for i in range(n + 1):
                            for j in range(n + 1 - i):
                                k = n - i - j
                                u, v = (y1, y2) if eps == 1 else (y2, y1)
                                rhs = _vec_add(rhs, bilinear(
                                    m[i], phi[j][g].matvec(u), phi[k][g].matvec(v)))
                        if lhs != rhs:
                            compat = ClauseCheck(compat.clause, False, n, (g, a, b))
                            break
                    if not compat.ok:
                        break
                if not compat.ok:
                    break
            if not compat.ok:
                break
        checks.append(compat)
    return DeformationReport(checks)


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


def infinitesimal_cocycle_report(OD: OrientedDialgebra, inf: Infinitesimal) -> CocycleReport:
    alpha, beta = inf.as_pair()
    return is_degree1_cocycle(OD, alpha, beta)


def check_equivalence(
    OD: OrientedDialgebra,
    def1: TruncatedDeformation,
    def2: TruncatedDeformation,
    eq: DeformationEquivalence,
) -> DeformationReport:
    """Does Ψ intertwine def2 into def1, coefficient-wise up to order N?

    The convention matches the transported-deformation generator:
    Ψ_t(mˡ²_t(y1, y2)) = mˡ¹_t(Ψ_t y1, Ψ_t y2), likewise for ⊢ and Φ.
    """
    if not def1.order == def2.order == eq.order:
        raise ValueError("orders of the deformations and the intertwiner must match")
    d = OD.dim
    N = eq.order
    psi = eq.psi
    basis = OD.base.basis()
    checks = []
    for name, m2, m1 in (("left", def2.mlt, def1.mlt), ("right", def2.mrt, def1.mrt)):
        check = ClauseCheck(f"Ψ intertwines the {name} products", True)
        for n in range(N + 1):
            for a, y1 in enumerate(basis):
                for b, y2 in enumerate(basis):
                    lhs = [0] * d
                    for i in range(n + 1):
                        lhs = _vec_add(lhs, psi[i].matvec(bilinear(m2[n - i], y1, y2)))
                    rhs = [0] * d
                    for i in range(n + 1):
                        for j in range(n + 1 - i):
                            k = n - i - j
                            rhs = _vec_add(rhs, bilinear(
                                m1[i], psi[j].matvec(y1), psi[k].matvec(y2)))
                    if lhs != rhs:
                        check = ClauseCheck(check.clause, False, n, (a, b))
                        break
                if not check.ok:
                    break
            if not check.ok:
                break
        checks.append(check)
    check = ClauseCheck("Ψ intertwines the actions", True)
    for n in range(N + 1):
        for g in OD.group.elements():
            lhs = Matrix.zeros(d, d)
            rhs = Matrix.zeros(d, d)
            for i in range(n + 1):
                t1 = psi[i].mul(def2.phi[n - i][g])
                t2 = def1.phi[i][g].mul(psi[n - i])
                lhs = Matrix(d, d, [a + b for a, b in zip(lhs.entries, t1.entries)])
                rhs = Matrix(d, d, [a + b for a, b in zip(rhs.entries, t2.entries)])
            if lhs != rhs:
                check = ClauseCheck(check.clause, False, n, (g,))
                break
        if not check.ok:
            break
    checks.append(check)
    return DeformationReport(checks)


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
        raise ValueError(f"deformations are not equivalent via the given Ψ: {report.first_failure()}")
    inf1 = infinitesimal(OD, def1, 1)
    inf2 = infinitesimal(OD, def2, 1)
    psi1 = eq.psi[1]
    alpha, beta = degree1_coboundary(OD, psi1)
    got = degree1_pack(OD, alpha, beta)
    want = [
        normalize_scalar(a - b)
        for a, b in zip(degree1_pack(OD, *inf2.as_pair()), degree1_pack(OD, *inf1.as_pair()))
    ]
    if got != want:
        raise CertificateFailureError("coboundary of ψ_1 does not match the infinitesimal difference")
    return psi1


def _series_inverse(psi: list) -> list:
    """Coefficients of Ψ⁻¹ mod t^(N+1), given ψ_0 = id."""
    d = psi[0].rows
    inv = [Matrix.identity(d)]
    for n in range(1, len(psi)):
        acc = Matrix.zeros(d, d)
        for i in range(n):
            term = inv[i].mul(psi[n - i])
            acc = Matrix(d, d, [a + b for a, b in zip(acc.entries, term.entries)])
        inv.append(Matrix(d, d, [-v for v in acc.entries]))
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
    d = OD.dim
    N = eq.order
    psi = eq.psi
    inv = _series_inverse(psi)
    basis = OD.base.basis()
    mlt, mrt = [], []
    for n in range(N + 1):
        tl = zero_tensor(d)
        tr = zero_tensor(d)
        for i in range(d):
            for j in range(d):
                accl = [0] * d
                accr = [0] * d
                for a in range(n + 1):
                    for b in range(n + 1 - a):
                        for c in range(n + 1 - a - b):
                            e = n - a - b - c
                            u = inv[c].matvec(basis[i])
                            v = inv[e].matvec(basis[j])
                            accl = _vec_add(accl, psi[a].matvec(
                                bilinear(deformation.mlt[b], u, v)))
                            accr = _vec_add(accr, psi[a].matvec(
                                bilinear(deformation.mrt[b], u, v)))
                tl[i][j] = accl
                tr[i][j] = accr
        mlt.append(tl)
        mrt.append(tr)
    phi = []
    for n in range(N + 1):
        per_g = []
        for g in OD.group.elements():
            acc = Matrix.zeros(d, d)
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    c = n - a - b
                    term = psi[a].mul(deformation.phi[b][g]).mul(inv[c])
                    acc = Matrix(d, d, [x + y for x, y in zip(acc.entries, term.entries)])
            per_g.append(acc)
        phi.append(per_g)
    return TruncatedDeformation(N, mlt, mrt, phi)


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
