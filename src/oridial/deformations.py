"""Truncated one-parameter formal deformations of an oriented dialgebra.

A deformation replaces both products and the group action by power series
in t (truncated here at a chosen order N, i.e. coefficients mod t^(N+1)):

    mˡ_t = Σ mˡ_i tⁱ,   mʳ_t = Σ mʳ_i tⁱ,   Φ_t(g) = Σ φ_i(g) tⁱ

with mˡ_0, mʳ_0 the original products and φ_0 the original action.  The
defining laws — the five dialgebra axioms for (mˡ_t, mʳ_t), the
composition law Φ_t(g₁g₂) = Φ_t(g₁) ∘ Φ_t(g₂), and the ε-twisted
compatibility of Φ_t with both products — are all identities per power of
t, so truncated checking is exact.

A degree-1 pair (α, β) is the order-1 part of a deformation
(``cohomology._action_term``):

    mˡ_1 = β⊣,   mʳ_1 = β⊢,   φ_1(g) = -α(g)ρ(g),
    and back     θ_1(g) = -φ_1(g)ρ(g⁻¹) = α(g),

and the degree-1 cocycle equations are the t¹ part of the laws above.  So
the order-1 data of a deformation is always a degree-1 cocycle, and
``infinitesimal`` returns it as that pair, (θ_n, (mˡ_n, mʳ_n)) at the
first nonzero order n.  Equivalent deformations (intertwined by an
invertible series Ψ_t with ψ_0 = id) have cohomologous infinitesimals:
ψ_1 is an explicit certificate, whose coboundary ``_certificate``
compares with the difference of the two infinitesimals as packed Tot(1)
vectors (``degree1_pack``), so no other code here knows that layout.
``rigidity_probe`` lists one candidate pair per basis class of H¹, the
infinitesimals no equivalence removes.  Transporting the constant
deformation along an arbitrary Ψ_t is the standard source of valid
nontrivial examples and is provided as ``transport_constant``.

Every law and every transport here works on truncated power series, each
a list of its N + 1 coefficients by power of t.  A tensor series is a list
of structure-constant tensors (``mlt``, ``mrt``), and a matrix series a
list of ``Matrix`` (``psi``, or one group element's ``phi[n][g]`` over n).

A truncated deformation is an oriented dialgebra over K[t]/(t^(N+1)), so
``check_deformation`` reads the axioms of ``dialgebra._axiom_sides`` and
the group laws of ``oriented._law_sides`` at powers 0..N, and
``check_equivalence`` runs the intertwining laws over power series, in
integers as the checkers of ``dialgebra`` and ``oriented`` do, and the
transports push a deformation forward in the same integer series.
Each reads a deformation through ``_read``, which checks Φ's shape
against the structure and validates every product coefficient, and then
``_integer_series``, which scales once, by one denominator nL shared by
all the products of the call and one nP shared by all its actions.
``infinitesimal`` reads without scaling, and the certificate of an
accepted equivalence takes only the order-1 terms.
Ψ is read by ``_require_square`` over its own denominator nS.  Each then takes
truncated Cauchy sums (``_cauchy``) of the integer composition tables of
the undeformed laws, and compares both sides of every law over one
denominator: nP·lhs against rhs in the twisted law, for example.  A
valid deformation is thus checked without building a Fraction.  A failing
law's witness is (power, indices): the lowest power at which it fails,
then the first basis indices or group elements there.  A transport
inverts Ψ in integers too: nS^N·Ψ⁻¹ has integer coefficients, and each
coefficient of the result is divided by its denominator last.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .cohomology import (
    _action_term,
    degree1_coboundary,
    degree1_pack,
    equivariant_cohomology,
    degree1_unpack,
    EngineConfig,
    DEFAULT_CONFIG,
)
from .dialgebra import (
    Check,
    Report,
    _axiom_sides,
    _cauchy,
    _denominator,
    _differing,
    _flat,
    _identity,
    _intertwining,
    _matmul,
    _on_both,
    _rows,
    _scaled,
    _scaled_maps,
    _scaled_rows,
    _tensor,
    _valued,
    validated_tensor,
    zero_tensor,
)
from .linalg import Matrix, ShapeMismatchError, _rational
from .oriented import OrientedDialgebra, _law_sides


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


def _require_square(psis, d: int) -> tuple:
    """Ψ as (integer matrix series, common denominator), once every ψ_i is d×d."""
    # integer products would truncate a wrongly shaped matrix silently
    if any(m.shape() != (d, d) for m in psis):
        raise ShapeMismatchError(f"psi must be {d}x{d} matrices")
    return _scaled_maps(psis)


def _read(OD: OrientedDialgebra, dfm: TruncatedDeformation) -> tuple:
    """The deformation as (mˡ, mʳ, Φ): a tensor series per product and a matrix series per g.

    Every power of Φ must hold |G| d×d matrices and every product
    coefficient must be a d×d×d tensor.
    """
    d, m = OD.dim, OD.group.order
    if any(len(per_g) != m or any(x.shape() != (d, d) for x in per_g) for per_g in dfm.phi):
        raise ShapeMismatchError(f"phi must hold {m} {d}x{d} matrices per power")
    return ([validated_tensor(d, T) for T in dfm.mlt],
            [validated_tensor(d, T) for T in dfm.mrt], list(zip(*dfm.phi)))


def _integer_series(*reads) -> tuple:
    """nL, nP, then each read deformation's integer series.

    nL is the common denominator of all the products given, nP of all the
    actions, and the integer series are the read ones times nL or nP.
    """
    nL = _denominator(_flat([plane for ml, mr, _ in reads for T in (*ml, *mr) for plane in T]))
    nP = _denominator(x for *_, phi in reads for series in phi for g in series for x in g.entries)
    return nL, nP, [([_scaled(T, nL) for T in ml], [_scaled(T, nL) for T in mr],
                     [[_scaled_rows(g.to_rows(), nP) for g in series] for series in phi])
                    for ml, mr, phi in reads]


def _matrix_product(X: list, Y: list) -> list:
    return _flat([_matmul(X, Y)])


def _concatenated(per_index: list) -> list:
    """Series of flat tables, one series per index, as one series of tables."""
    return [[x for series in per_index for x in series[n]] for n in range(len(per_index[0]))]


def _law(name: str, lhs: list, rhs: list, *shape) -> Check:
    """A law whose sides are series of flat tables over ``shape``.

    It fails at the lowest power where the sides differ, and there at the
    first differing index tuple.
    """
    return Check.first(name, ((n, idx) for n, (u, v) in enumerate(zip(lhs, rhs))
                              for idx in _differing(u, v, *shape)))


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
    ml, mr, phi = read = _read(OD, deformation)
    _, nP, [(*products, Phi)] = _integer_series(read)
    base_ok = (ml[0] == OD.base.left and mr[0] == OD.base.right
               and all(series[0].entries == OD.action[g].entries
                       for g, series in enumerate(phi)))
    checks = [Check("order-0 terms equal the undeformed structure", base_ok,
                    None if base_ok else (0, ()))]

    names = [f"deformed dialgebra axiom: {name}" for name in DEFORMED_AXIOMS] + [
        "deformed action composes: Φ(gh) = Φ(g)Φ(h)",
        "deformed action respects the left product (ε-twisted)",
        "deformed action respects the right product (ε-twisted)"]
    shapes = [(d, d, d)] * 5 + [(G.order, G.order)] + [(G.order, d, d)] * 2
    powers = range(deformation.order + 1)
    sides = _axiom_sides(*products, powers) + _law_sides(G, *products, Phi, nP, powers)
    checks += [_law(name, lhs, rhs, *shape)
               for name, (lhs, rhs), shape in zip(names, sides, shapes)]
    return Report(checks)


def _theta(OD: OrientedDialgebra, phis: list) -> list:
    """θ(g) = -φ(g)ρ(g⁻¹) for each g, from the action terms φ(g) of one power of t."""
    d = OD.dim
    P, nP = _scaled_maps(OD.action)
    Phi, nF = _scaled_maps(phis)
    return [Matrix(d, d, [_rational(x, nF * nP) for x in _flat([t])])
            for t in _action_term(Phi, P, OD.group, back=True)]


def infinitesimal(OD: OrientedDialgebra, deformation: TruncatedDeformation, n: int = 1) -> tuple:
    """The degree-1 pair (θ_n, (mˡ_n, mʳ_n)); earlier coefficients must vanish for n > 1."""
    if not 1 <= n <= deformation.order:
        raise ValueError(f"order {n} outside 1..{deformation.order}")
    zero = zero_tensor(OD.dim)
    ml, mr, phi = _read(OD, deformation)
    for i in range(1, n):
        if ml[i] != zero or mr[i] != zero or any(not series[i].is_zero() for series in phi):
            raise PrecedingTermsNonzeroError(
                f"coefficient {i} is nonzero; the order-{n} infinitesimal is undefined")
    return _theta(OD, deformation.phi[n]), (ml[n], mr[n])


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
    d = OD.dim
    psi, nS = _require_square(eq.psi, d)
    *_, [(m1l, m1r, phi1), (m2l, m2r, phi2)] = _integer_series(_read(OD, def1), _read(OD, def2))
    # Ψ(m²(y1, y2)) against m¹(Ψy1, Ψy2), over nL·nS²
    checks = [
        _law(f"Ψ intertwines the {name} products", *_intertwining(psi, m2, m1, False, nS), d, d)
        for name, m2, m1 in (("left", m2l, m1l), ("right", m2r, m1r))
    ]
    # ΨΦ²(g) against Φ¹(g)Ψ, over nS·nP
    checks.append(_law(
        "Ψ intertwines the actions",
        _concatenated([_cauchy(_matrix_product, psi, f2) for f2 in phi2]),
        _concatenated([_cauchy(_matrix_product, f1, psi) for f1 in phi1]),
        OD.group.order))
    return Report(checks)


def _certificate(
    OD: OrientedDialgebra,
    def1: TruncatedDeformation,
    def2: TruncatedDeformation,
    eq: DeformationEquivalence,
) -> Matrix:
    """ψ_1, once its coboundary is verified to be infinitesimal(def2) - infinitesimal(def1).

    For an equivalence that ``check_equivalence`` accepts, whose read has
    validated both deformations: only their order-1 terms are read again,
    and each is packed as a degree-1 pair by ``degree1_pack``.  A mismatch
    means an engine bug, not bad input, so it raises.
    """
    first, second = (degree1_pack(OD, _theta(OD, dfm.phi[1]), (dfm.mlt[1], dfm.mrt[1]))
                     for dfm in (def1, def2))
    psi1 = eq.psi[1]
    if degree1_pack(OD, *degree1_coboundary(OD, psi1)) != list(map(sub, second, first)):
        raise CertificateFailureError("coboundary of ψ_1 does not match the infinitesimal difference")
    return psi1


def infinitesimals_cohomologous(
    OD: OrientedDialgebra,
    def1: TruncatedDeformation,
    def2: TruncatedDeformation,
    eq: DeformationEquivalence,
) -> Matrix:
    """ψ_1 as the certificate: its coboundary is infinitesimal(def2) - infinitesimal(def1).

    The equivalence and then the equality are verified exactly; failure of
    the second means an engine bug, not bad input, so it raises instead of
    reporting.
    """
    report = check_equivalence(OD, def1, def2, eq)
    if not report.ok:
        raise ValueError(f"deformations are not equivalent via the given Ψ: {report.failures()[0]}")
    return _certificate(OD, def1, def2, eq)


def _series_product(A: list, B: list) -> list:
    """Σ_{i+j=n} A_i·B_j per power n of two integer matrix series."""
    return [_rows(t, len(B[0][0])) for t in _cauchy(_matrix_product, A, B)]


def _series_inverse(S: list, n: int) -> list:
    """n^N·Ψ⁻¹ mod t^(N+1) in integers, for Ψ = S/n with ψ_0 = id.

    Ψ⁻¹ = id + Q + Q² + ... + Q^N with Q = id - Ψ, by Horner's rule: Q has
    no constant term, so each round fixes one more coefficient.  Over
    n^(k+1) a round is R ↦ n^(k+1)·id + q·R with q = n·Q = n·id - S, an
    integer series, and R the previous round over n^k.
    """
    d = len(S[0])
    zero = [[0] * d for _ in range(d)]
    q = [zero] + [[[-x for x in row] for row in s] for s in S[1:]]
    inv, scale = [_identity(d)] + [zero] * (len(S) - 1), 1
    for _ in S[1:]:
        scale *= n
        inv = [[[scale * x for x in row] for row in _identity(d)]] + _series_product(q, inv)[1:]
    return inv


def _push_forward(OD: OrientedDialgebra, deformation: TruncatedDeformation,
                  S: tuple, R: tuple) -> TruncatedDeformation:
    """The deformation with products S∘m∘(R⊗R) and action S∘Φ∘R, truncated.

    S and R are (integer matrix series, common denominator) pairs.  The
    products are scaled by one common denominator nL and the action by nP,
    so the new products are over nS·nL·nR² and the new action over
    nS·nP·nR.
    """
    d = OD.dim
    nL, nP, [(*products, Phi)] = _integer_series(_read(OD, deformation))
    (S, nS), (R, nR) = S, R

    def push(m):
        moved = _on_both(m, R)     # m(Rx, Ry)
        out = _cauchy(lambda s, t: _flat(_valued(s, [_rows(t, d)])), S, moved)
        return [_tensor(t, d, nS * nL * nR * nR) for t in out]

    pushed = [[Matrix(d, d, [_rational(x, nS * nP * nR) for x in t])
               for t in _cauchy(_matrix_product, _series_product(S, series), R)]
              for series in Phi]
    return TruncatedDeformation(deformation.order, *map(push, products),
                                [list(per_g) for per_g in zip(*pushed)])


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
    S, nS = _require_square(eq.psi, OD.dim)
    return _push_forward(OD, deformation, (S, nS), (_series_inverse(S, nS), nS ** eq.order))


def transport_constant(OD: OrientedDialgebra, psis: list, order: int) -> TruncatedDeformation:
    """Conjugate the constant deformation by Ψ_t = id + Σ ψ_i tⁱ.

    Products become Ψ⁻¹(Ψ(x) ∘ Ψ(y)) and the action Ψ⁻¹ ∘ ρ(g) ∘ Ψ,
    truncated; the result always passes ``check_deformation`` and is
    equivalent to the constant deformation via Ψ itself.
    """
    d = OD.dim
    if len(psis) != order:
        raise ValueError(f"need {order} matrices psi_1..psi_{order}")
    S, nS = _require_square([Matrix.identity(d)] + list(psis), d)
    # pulling back along Ψ is pushing forward along Ψ⁻¹
    return _push_forward(OD, constant_deformation(OD, order),
                         (_series_inverse(S, nS), nS ** order), (S, nS))


def rigidity_probe(OD: OrientedDialgebra, config: EngineConfig = DEFAULT_CONFIG) -> list:
    """One candidate (α, β) pair per basis class of the degree-1 obstruction space.

    A necessary-condition probe: an empty list does not by itself prove
    rigidity, but each candidate is an infinitesimal no equivalence can
    remove.
    """
    return [degree1_unpack(OD, rep) for rep in equivariant_cohomology(OD, 1, config).representatives]
