import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridial import cohomology as coh
from oridial import deformations
from oridial.deformations import (
    MAX_ORDER,
    CertificateFailureError,
    DeformationEquivalence,
    PrecedingTermsNonzeroError,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    constant_deformation,
    infinitesimal,
    infinitesimals_cohomologous,
    rigidity_probe,
    transport_constant,
    transport_deformation,
)
from oridial.linalg import Matrix

from conftest import (
    diff3_dialgebra,
    oriented_dual_s3,
    oriented_dual_sign,
    oriented_split_sign,
    oriented_trivial,
    oriented_zero_sign,
    scalar_product_dialgebra,
    zero_dialgebra,
)


def random_matrix(rng, d=2):
    return Matrix(d, d, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(d * d)])


def test_constant_deformation_passes(od_dual_sign):
    for order in (1, 2, 3):
        report = check_deformation(od_dual_sign, constant_deformation(od_dual_sign, order))
        assert report.ok


def test_identity_equivalence_of_equal_deformations(od_dual_sign):
    const = constant_deformation(od_dual_sign, 2)
    eq = DeformationEquivalence(2, [Matrix.identity(2)] + [Matrix.zeros(2, 2)] * 2)
    assert check_equivalence(od_dual_sign, const, const, eq).ok
    cert = infinitesimals_cohomologous(od_dual_sign, const, const, eq)
    assert cert.is_zero()


def test_transported_deformations_pass_and_are_equivalent(od_dual_sign):
    rng = random.Random(21)
    const = constant_deformation(od_dual_sign, 2)
    for _ in range(5):
        psis = [random_matrix(rng), random_matrix(rng)]
        moved = transport_constant(od_dual_sign, psis, 2)
        assert check_deformation(od_dual_sign, moved).ok
        eq = DeformationEquivalence(2, [Matrix.identity(2)] + psis)
        assert check_equivalence(od_dual_sign, const, moved, eq).ok


def test_infinitesimal_of_constant_is_zero(od_dual_sign):
    inf = infinitesimal(od_dual_sign, constant_deformation(od_dual_sign, 2), 1)
    assert all(m.is_zero() for m in inf[0])
    assert all(v == 0 for v in coh.degree1_pack(od_dual_sign, *inf))


def test_infinitesimal_is_coboundary_of_psi1(od_dual_sign):
    rng = random.Random(8)
    for _ in range(5):
        psi1 = random_matrix(rng)
        moved = transport_constant(od_dual_sign, [psi1, Matrix.zeros(2, 2)], 2)
        inf = infinitesimal(od_dual_sign, moved, 1)
        alpha, beta = coh.degree1_coboundary(od_dual_sign, psi1)
        assert coh.degree1_pack(od_dual_sign, *inf) == coh.degree1_pack(
            od_dual_sign, alpha, beta)
        assert coh.is_degree1_cocycle(od_dual_sign, *inf).ok


def test_second_infinitesimal_is_cocycle(od_dual_sign):
    # vanishing ψ1 makes the order-1 terms zero, so the order-2 pair is
    # the first nonvanishing infinitesimal — still a cocycle
    rng = random.Random(13)
    for _ in range(3):
        psi2 = random_matrix(rng)
        moved = transport_constant(od_dual_sign, [Matrix.zeros(2, 2), psi2], 2)
        assert check_deformation(od_dual_sign, moved).ok
        inf = infinitesimal(od_dual_sign, moved, 2)
        assert coh.is_degree1_cocycle(od_dual_sign, *inf).ok


def test_infinitesimal_requires_vanishing_lower_terms(od_dual_sign):
    rng = random.Random(14)
    moved = transport_constant(od_dual_sign, [random_matrix(rng), Matrix.zeros(2, 2)], 2)
    with pytest.raises(PrecedingTermsNonzeroError):
        infinitesimal(od_dual_sign, moved, 2)


def test_certificate_for_equivalent_pairs(od_dual_sign):
    rng = random.Random(30)
    const = constant_deformation(od_dual_sign, 2)
    for _ in range(5):
        psis = [random_matrix(rng), random_matrix(rng)]
        moved = transport_constant(od_dual_sign, psis, 2)
        eq = DeformationEquivalence(2, [Matrix.identity(2)] + psis)
        cert = infinitesimals_cohomologous(od_dual_sign, const, moved, eq)
        assert cert == psis[0]


def test_certificate_between_two_transports(od_dual_sign):
    # def1 = transport by Φ, def2 = transport by Φ∘Ψ; then Ψ intertwines
    # def2 into def1 and ψ1 certifies the infinitesimal difference
    rng = random.Random(31)
    phi1 = random_matrix(rng)
    psi1 = random_matrix(rng)
    d1 = transport_constant(od_dual_sign, [phi1], 1)
    comp1 = Matrix(2, 2, [a + b for a, b in zip(phi1.entries, psi1.entries)])
    # (id + φ1 t)(id + ψ1 t) = id + (φ1 + ψ1) t + φ1ψ1 t^2, truncated at order 1
    d2 = transport_constant(od_dual_sign, [comp1], 1)
    eq = DeformationEquivalence(1, [Matrix.identity(2), psi1])
    rep = check_equivalence(od_dual_sign, d1, d2, eq)
    assert rep.ok
    cert = infinitesimals_cohomologous(od_dual_sign, d1, d2, eq)
    assert cert == psi1


def test_certificate_mismatch_raises(od_dual_sign, shifted_coboundary):
    # a ψ_1 whose coboundary is not the infinitesimal difference is an
    # engine bug, so the certificate raises instead of returning ψ_1
    psis = [Matrix.from_rows([[0, 1], [0, 0]]), Matrix.zeros(2, 2)]
    moved = transport_constant(od_dual_sign, psis, 2)
    eq = DeformationEquivalence(2, [Matrix.identity(2)] + psis)
    const = constant_deformation(od_dual_sign, 2)
    assert check_equivalence(od_dual_sign, const, moved, eq).ok
    with pytest.raises(CertificateFailureError, match="does not match"):
        infinitesimals_cohomologous(od_dual_sign, const, moved, eq)


def test_transport_preserves_validity_of_arbitrary_deformations(od_dual_sign):
    # start from a nontrivial valid deformation and push it forward along
    # an unrelated Ψ: the result stays valid and the pair is equivalent
    rng = random.Random(55)
    for _ in range(3):
        seed_psis = [random_matrix(rng), random_matrix(rng)]
        valid = transport_constant(od_dual_sign, seed_psis, 2)
        assert check_deformation(od_dual_sign, valid).ok
        eq = DeformationEquivalence(2, [Matrix.identity(2),
                                        random_matrix(rng), random_matrix(rng)])
        pushed = transport_deformation(od_dual_sign, valid, eq)
        assert check_deformation(od_dual_sign, pushed).ok
        assert check_equivalence(od_dual_sign, pushed, valid, eq).ok
        cert = infinitesimals_cohomologous(od_dual_sign, pushed, valid, eq)
        assert cert == eq.psi[1]


def test_broken_action_coefficient_detected(od_dual_sign):
    moved = transport_constant(od_dual_sign, [Matrix(2, 2, [0, 1, 0, 0]),
                                              Matrix.zeros(2, 2)], 2)
    moved.phi[1][1] = Matrix(2, 2, [0, 0, Fraction(1, 3), 0])
    report = check_deformation(od_dual_sign, moved)
    assert not report.ok
    failure = report.failures()[0]
    power, _ = failure.witness
    assert power == 1
    assert "action" in failure.name


def test_broken_product_coefficient_detected(od_dual_sign):
    moved = constant_deformation(od_dual_sign, 2)
    bad = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    moved = TruncatedDeformation(2, [moved.mlt[0], bad, moved.mlt[2]],
                                 moved.mrt, moved.phi)
    report = check_deformation(od_dual_sign, moved)
    assert not report.ok
    assert report.failures()[0].witness[0] == 1


def test_wrong_psi_fails_equivalence(od_dual_sign):
    rng = random.Random(40)
    psis = [random_matrix(rng), random_matrix(rng)]
    moved = transport_constant(od_dual_sign, psis, 2)
    const = constant_deformation(od_dual_sign, 2)
    wrong = DeformationEquivalence(
        2, [Matrix.identity(2), Matrix(2, 2, [v + 1 for v in psis[0].entries]), psis[1]])
    report = check_equivalence(od_dual_sign, const, moved, wrong)
    assert not report.ok
    assert report.failures()[0].witness[0] == 1


def test_order0_terms_validated(od_dual_sign):
    const = constant_deformation(od_dual_sign, 1)
    tampered = TruncatedDeformation(
        1, [zero_dialgebra(2).left, const.mlt[1]], const.mrt, const.phi)
    report = check_deformation(od_dual_sign, tampered)
    assert not report.ok
    failure = report.failures()[0]
    assert "order-0" in failure.name and failure.witness == (0, ())


def test_rigidity_probe_matches_cohomology(od_dual_sign):
    probe = rigidity_probe(od_dual_sign)
    assert len(probe) == coh.equivariant_cohomology(od_dual_sign, 1).dim == 1
    alpha, beta = probe[0]
    assert coh.is_degree1_cocycle(od_dual_sign, alpha, beta).ok


def test_rigidity_probe_trivial_case():
    probe = rigidity_probe(oriented_trivial(scalar_product_dialgebra()))
    assert probe == []


def test_rigidity_probe_zero_products():
    probe = rigidity_probe(oriented_trivial(zero_dialgebra(2)))
    assert len(probe) == 16


def test_equivalence_shape_validation(od_dual_sign):
    with pytest.raises(ValueError):
        DeformationEquivalence(1, [Matrix.zeros(2, 2), Matrix.identity(2)])
    with pytest.raises(ValueError):
        TruncatedDeformation(0, [], [], [])
    const1 = constant_deformation(od_dual_sign, 1)
    const2 = constant_deformation(od_dual_sign, 2)
    with pytest.raises(ValueError) as exc:
        TruncatedDeformation(2, const2.mlt[:2], const2.mrt, const2.phi)
    assert str(exc.value) == "mlt must have order+1 = 3 entries"
    with pytest.raises(ValueError) as exc:
        DeformationEquivalence(2, [Matrix.identity(2), Matrix.zeros(2, 2)])
    assert str(exc.value) == "psi must have order+1 = 3 entries"
    eq = DeformationEquivalence(1, [Matrix.identity(2), Matrix.zeros(2, 2)])
    with pytest.raises(ValueError):
        check_equivalence(od_dual_sign, const1, const2, eq)


def test_deformation_above_max_order_is_refused(od_dual_sign):
    const = constant_deformation(od_dual_sign, MAX_ORDER)   # the cap itself is allowed
    order = MAX_ORDER + 1
    with pytest.raises(ValueError) as exc:
        TruncatedDeformation(order, const.mlt + const.mlt[1:2], const.mrt + const.mrt[1:2],
                             const.phi + const.phi[1:2])
    assert str(exc.value) == f"deformation order {order} exceeds cap {MAX_ORDER}"


@pytest.mark.parametrize("order", [-1, 0])
def test_equivalence_order_below_one_is_refused(order):
    # ψ has order + 1 entries where it can, so only the order is at fault
    with pytest.raises(ValueError) as exc:
        DeformationEquivalence(order, [Matrix.identity(2)] * (order + 1))
    assert str(exc.value) == "equivalence order must be at least 1"


def test_equivalence_above_max_order_is_refused():
    order = MAX_ORDER + 1
    with pytest.raises(ValueError) as exc:
        DeformationEquivalence(order, [Matrix.identity(2)] + [Matrix.zeros(2, 2)] * order)
    assert str(exc.value) == f"equivalence order {order} exceeds cap {MAX_ORDER}"


def test_transport_constant_above_max_order_is_refused(od_dual_sign, monkeypatch):
    def transported(*args):
        raise AssertionError("the refusal came after the transport began")

    monkeypatch.setattr(deformations, "_series_inverse", transported)
    monkeypatch.setattr(deformations, "_push_forward", transported)
    with pytest.raises(ValueError) as exc:
        transport_constant(od_dual_sign, [Matrix.zeros(2, 2)] * 9, 9)
    assert str(exc.value) == f"deformation order 9 exceeds cap {MAX_ORDER}"


def test_transports_and_certificate_refuse_mismatched_input(od_dual_sign):
    OD = od_dual_sign
    eq1 = DeformationEquivalence(1, [Matrix.identity(2), Matrix.zeros(2, 2)])
    with pytest.raises(ValueError) as exc:
        transport_deformation(OD, constant_deformation(OD, 2), eq1)
    assert str(exc.value) == "orders of the deformation and the intertwiner must match"
    with pytest.raises(ValueError) as exc:
        transport_constant(OD, [Matrix.zeros(2, 2)], 2)
    assert str(exc.value) == "need 2 matrices psi_1..psi_2"
    moved = transport_constant(OD, [Matrix.from_rows([[0, 1], [0, 0]])], 1)
    with pytest.raises(ValueError) as exc:
        infinitesimals_cohomologous(OD, constant_deformation(OD, 1), moved, eq1)
    assert str(exc.value).startswith("deformations are not equivalent via the given Ψ: ")


# ---------------------------------------------------------------------------
# the series checkers against a per-power reference
#
# The reference evaluates each law at each power n separately, as explicit
# sums over the coefficient indices in Fractions, and keeps the first
# failing index tuple of the lowest failing power.

def _bil(T, x, y):
    d = len(T)
    return [sum(Fraction(x[i]) * y[j] * T[i][j][k] for i in range(d) for j in range(d))
            for k in range(d)]


def _mv(M, x):
    return [sum(Fraction(M.at(r, c)) * x[c] for c in range(M.cols)) for r in range(M.rows)]


def _mm(A, B):
    return [[sum(Fraction(A.at(r, k)) * B.at(k, c) for k in range(A.cols))
             for c in range(B.cols)] for r in range(A.rows)]


def _vsum(vectors, d):
    return [sum((v[k] for v in vectors), Fraction(0)) for k in range(d)]


def _first_failure(N, indices, sides):
    for n in range(N + 1):
        for idx in indices:
            lhs, rhs = sides(n, *idx)
            if lhs != rhs:
                return (n, idx)
    return None


# (outer, inner, nesting) per side: "L" is outer(inner(x, y), z), "R" is outer(x, inner(y, z))
REFERENCE_AXIOMS = [
    ("left products associate", ("l", "l", "L"), ("l", "l", "R")),
    ("right products associate", ("r", "r", "L"), ("r", "r", "R")),
    ("mixed law (x<y)<z = x<(y>z)", ("l", "l", "L"), ("l", "r", "R")),
    ("mixed law (x>y)<z = x>(y<z)", ("l", "r", "L"), ("r", "l", "R")),
    ("mixed law (x<y)>z = (x>y)>z", ("r", "l", "L"), ("r", "r", "L")),
]


def reference_deformation_failures(OD, dfm):
    N, d = dfm.order, OD.dim
    prods = {"l": dfm.mlt, "r": dfm.mrt}
    phi = dfm.phi
    E = [[int(i == k) for k in range(d)] for i in range(d)]
    G = OD.group
    triples = [(a, b, c) for a in range(d) for b in range(d) for c in range(d)]
    failures = {}
    base_ok = (all(_bil(dfm.mlt[0], x, y) == _bil(OD.base.left, x, y)
                   and _bil(dfm.mrt[0], x, y) == _bil(OD.base.right, x, y) for x in E for y in E)
               and all(phi[0][g] == OD.action[g] for g in G.elements()))
    if not base_ok:
        failures["order-0 terms equal the undeformed structure"] = (0, ())

    def side(spec, n, a, b, c):
        outer, inner, nesting = spec
        x, y, z = E[a], E[b], E[c]
        terms = []
        for i in range(n + 1):
            T, S = prods[outer][i], prods[inner][n - i]
            terms.append(_bil(T, _bil(S, x, y), z) if nesting == "L" else _bil(T, x, _bil(S, y, z)))
        return _vsum(terms, d)

    for name, lspec, rspec in REFERENCE_AXIOMS:
        w = _first_failure(N, triples, lambda n, a, b, c: (side(lspec, n, a, b, c),
                                                           side(rspec, n, a, b, c)))
        if w:
            failures[f"deformed dialgebra axiom: {name}"] = w

    pairs = [(g, h) for g in G.elements() for h in G.elements()]
    w = _first_failure(N, pairs, lambda n, g, h: (
        _mm(phi[n][G.mul(g, h)], Matrix.identity(d)),
        [_vsum(rows, d) for rows in zip(*[_mm(phi[i][g], phi[n - i][h]) for i in range(n + 1)])]))
    if w:
        failures["deformed action composes: Φ(gh) = Φ(g)Φ(h)"] = w

    cells = [(g, a, b) for g in G.elements() for a in range(d) for b in range(d)]
    for name, m in (("left", dfm.mlt), ("right", dfm.mrt)):
        def sides(n, g, a, b, m=m):
            u, v = (E[a], E[b]) if G.sign(g) == 1 else (E[b], E[a])
            lhs = _vsum([_mv(phi[i][g], _bil(m[n - i], E[a], E[b])) for i in range(n + 1)], d)
            rhs = _vsum([_bil(m[i], _mv(phi[j][g], u), _mv(phi[n - i - j][g], v))
                         for i in range(n + 1) for j in range(n + 1 - i)], d)
            return lhs, rhs
        w = _first_failure(N, cells, sides)
        if w:
            failures[f"deformed action respects the {name} product (ε-twisted)"] = w
    return failures


def reference_equivalence_failures(OD, def1, def2, eq):
    N, d = eq.order, OD.dim
    psi = eq.psi
    E = [[int(i == k) for k in range(d)] for i in range(d)]
    failures = {}
    pairs = [(a, b) for a in range(d) for b in range(d)]
    for name, m2, m1 in (("left", def2.mlt, def1.mlt), ("right", def2.mrt, def1.mrt)):
        def sides(n, a, b, m2=m2, m1=m1):
            lhs = _vsum([_mv(psi[i], _bil(m2[n - i], E[a], E[b])) for i in range(n + 1)], d)
            rhs = _vsum([_bil(m1[i], _mv(psi[j], E[a]), _mv(psi[n - i - j], E[b]))
                         for i in range(n + 1) for j in range(n + 1 - i)], d)
            return lhs, rhs
        w = _first_failure(N, pairs, sides)
        if w:
            failures[f"Ψ intertwines the {name} products"] = w
    w = _first_failure(N, [(g,) for g in OD.group.elements()], lambda n, g: (
        [_vsum(rows, d) for rows in zip(*[_mm(psi[i], def2.phi[n - i][g]) for i in range(n + 1)])],
        [_vsum(rows, d) for rows in zip(*[_mm(def1.phi[i][g], psi[n - i]) for i in range(n + 1)])]))
    if w:
        failures["Ψ intertwines the actions"] = w
    return failures


SERIES_FIXTURES = {
    "dual-sign": oriented_dual_sign,
    "split-sign": oriented_split_sign,
    "zero-swap": oriented_zero_sign,
    "dual-s3": oriented_dual_s3,
    "diff3-trivial": lambda: oriented_trivial(diff3_dialgebra()),   # x ⊣ y ≠ y ⊣ x
}
SMALL = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
NONZERO = st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])


@st.composite
def transported_order3(draw):
    OD = SERIES_FIXTURES[draw(st.sampled_from(sorted(SERIES_FIXTURES)))]()
    d = OD.dim
    psis = [Matrix(d, d, draw(st.lists(SMALL, min_size=d * d, max_size=d * d)))
            for _ in range(3)]
    return OD, psis, transport_constant(OD, psis, 3)


@settings(max_examples=30, deadline=None)
@given(case=transported_order3(), data=st.data())
def test_tampered_deformation_matches_per_power_reference(case, data):
    OD, _, dfm = case
    d = OD.dim
    power = data.draw(st.integers(0, 3), label="power")
    delta = data.draw(NONZERO, label="delta")
    target = data.draw(st.sampled_from(["ml", "mr", "phi"]), label="target")
    if target == "phi":
        g = data.draw(st.sampled_from(list(OD.group.elements())), label="g")
        pos = data.draw(st.integers(0, d * d - 1), label="entry")
        entries = list(dfm.phi[power][g].entries)
        entries[pos] += delta
        dfm.phi[power][g] = Matrix(d, d, entries)
    else:
        i, j, k = (data.draw(st.integers(0, d - 1), label=axis) for axis in "ijk")
        tensor = dfm.mlt[power] if target == "ml" else dfm.mrt[power]
        tensor[i][j][k] += delta
    report = check_deformation(OD, dfm)
    got = {c.name: c.witness for c in report.failures()}
    assert got == reference_deformation_failures(OD, dfm)
    assert report.ok == (not got)


@settings(max_examples=40, deadline=None)
@given(case=transported_order3(), data=st.data())
def test_perturbed_psi_matches_per_power_reference(case, data):
    OD, psis, moved = case
    d = OD.dim
    const = constant_deformation(OD, 3)
    psi = [Matrix.identity(d)] + psis
    power = data.draw(st.integers(1, 3), label="power")
    pos = data.draw(st.integers(0, d * d - 1), label="entry")
    entries = list(psi[power].entries)
    entries[pos] += data.draw(NONZERO, label="delta")
    psi[power] = Matrix(d, d, entries)
    eq = DeformationEquivalence(3, psi)
    report = check_equivalence(OD, const, moved, eq)
    got = {c.name: c.witness for c in report.failures()}
    assert got == reference_equivalence_failures(OD, const, moved, eq)
    assert report.ok == (not got)
    # the unperturbed Ψ intertwines, so every failure comes from the perturbation
    assert check_equivalence(OD, const, moved,
                             DeformationEquivalence(3, [Matrix.identity(d)] + psis)).ok
