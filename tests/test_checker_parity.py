"""The integer engine against the vector-by-vector references.

Every checker must return the reference's ``Report``: the same checks, the
same ``ok`` values and the same first witnesses.  Every constructor,
transport, coboundary and extraction must return results with the
reference's ``repr``, or raise its error with the same class, message and
witness.  The inputs are fixtures in bases with denominators, valid or
with one entry nudged by a fraction.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridial import cohomology as coh
from oridial.deformations import (
    DeformationEquivalence,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    constant_deformation,
    infinitesimal,
    transport_constant,
    transport_deformation,
)
from oridial.dialgebra import (
    Dialgebra,
    check_axioms,
    from_bimodule_map,
    from_differential,
    is_morphism,
    zero_tensor,
)
from oridial.extensions import (
    SingularExtension,
    build_extension,
    canonical_section,
    check_extension,
    extract_cocycle,
)
from oridial.linalg import Matrix, ShapeMismatchError, normalize_scalar
from oridial.oriented import OrientedDialgebra, check_oriented_dialgebra

from conftest import (
    _draw_basis_changed,
    _oriented_fixtures,
    basis_changed_dual_s3,
    degree1_zero,
    in_basis,
    oriented_dual_sign,
    oriented_swap_sum,
    oriented_trivial,
    poly3_dialgebra,
)
from reference_checkers import (
    reference_check_axioms,
    reference_check_deformation,
    reference_check_equivalence,
    reference_check_extension,
    reference_check_oriented_dialgebra,
    reference_degree1_coboundary,
    reference_degree1_coboundary_matrix,
    reference_extract_cocycle,
    reference_from_bimodule_map,
    reference_from_differential,
    reference_is_morphism,
    reference_transport_constant,
    reference_transport_deformation,
)

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
INTEGRAL = st.integers(-2, 2)
NUDGES = SMALL.filter(bool)
# the swap sum is the one fixture on which ε = -1 swaps non-commuting arguments
FIXTURES = _oriented_fixtures() + [oriented_swap_sum()]


def _matrix(data, d: int, cols: int | None = None, entries=SMALL) -> Matrix:
    cols = d if cols is None else cols
    return Matrix(d, cols, [data.draw(entries) for _ in range(d * cols)])


def _nudged_tensor(T: list, i: int, j: int, k: int, delta) -> list:
    out = [[list(row) for row in plane] for plane in T]
    out[i][j][k] = normalize_scalar(out[i][j][k] + delta)
    return out


def _nudged_matrix(m: Matrix, pos: int, delta) -> Matrix:
    entries = list(m.entries)
    entries[pos] += delta
    return Matrix(m.rows, m.cols, entries)


def _drawn_picks(data):
    """``pick(n)`` draws an index below n, ``pick(None)`` a nonzero nudge."""
    return lambda n: data.draw(NUDGES if n is None else st.integers(0, n - 1))


def _nudge_structure(OD: OrientedDialgebra, target: str, pick) -> OrientedDialgebra:
    """OD with one product coefficient or one action entry nudged."""
    D = OD.base
    d = D.dim
    left, right, action = D.left, D.right, list(OD.action)
    if target == "left":
        left = _nudged_tensor(left, pick(d), pick(d), pick(d), pick(None))
    elif target == "right":
        right = _nudged_tensor(right, pick(d), pick(d), pick(d), pick(None))
    else:
        g = pick(len(action))
        action[g] = _nudged_matrix(action[g], pick(d * d), pick(None))
    return OrientedDialgebra(Dialgebra(d, left, right), OD.group, action)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_structure_checkers_match_the_references(data):
    OD = _draw_basis_changed(data, FIXTURES)
    target = data.draw(st.sampled_from([None, "left", "right", "action"]), label="target")
    if target:
        OD = _nudge_structure(OD, target, _drawn_picks(data))
    else:
        assert check_oriented_dialgebra(OD).ok
    assert check_axioms(OD.base) == reference_check_axioms(OD.base)
    assert check_oriented_dialgebra(OD) == reference_check_oriented_dialgebra(OD)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extension_checker_matches_the_reference(data):
    OD = _draw_basis_changed(data, FIXTURES)
    # a coboundary pair always passes the extension gate
    E = build_extension(OD, *coh.degree1_coboundary(OD, _matrix(data, OD.dim)))
    target = data.draw(st.sampled_from(
        [None, "left", "right", "action", "inclusion", "projection"]), label="target")
    E = _nudge_extension(E, target, _drawn_picks(data))
    assert check_extension(OD, E) == reference_check_extension(OD, E)


def _nudge_extension(E: SingularExtension, target, pick) -> SingularExtension:
    """E with one entry of B's products or action, of i or of p nudged."""
    inc, proj, B = E.inclusion, E.projection, E.total
    if target == "inclusion":
        inc = _nudged_matrix(inc, pick(len(inc.entries)), pick(None))
    elif target == "projection":
        proj = _nudged_matrix(proj, pick(len(proj.entries)), pick(None))
    elif target:
        B = _nudge_structure(B, target, pick)
    return SingularExtension(B, inc, proj)


def _nudge_deformation(dfm, target: str, power: int, pick) -> None:
    """Nudge one coefficient of ml, mr or phi at ``power`` in place."""
    if target == "phi":
        per_g = dfm.phi[power] = list(dfm.phi[power])
        g = pick(len(per_g))
        per_g[g] = _nudged_matrix(per_g[g], pick(len(per_g[g].entries)), pick(None))
    else:
        series = dfm.mlt if target == "ml" else dfm.mrt
        d = len(series[power])
        series[power] = _nudged_tensor(series[power], pick(d), pick(d), pick(d), pick(None))


@st.composite
def transported(draw):
    """A basis-changed fixture, an order N ≤ 3, ψ_1..ψ_N and the transported deformation."""
    data = draw(st.data())
    OD = _draw_basis_changed(data, FIXTURES)
    order = draw(st.integers(1, 3), label="order")
    psis = [_matrix(data, OD.dim) for _ in range(order)]
    return OD, order, psis, transport_constant(OD, psis, order)


@settings(max_examples=40, deadline=None)
@given(case=transported(), data=st.data())
def test_deformation_checker_matches_the_reference(case, data):
    OD, order, _, dfm = case
    target = data.draw(st.sampled_from([None, "ml", "mr", "phi"]), label="target")
    if target:
        power = data.draw(st.integers(0, order), label="power")
        _nudge_deformation(dfm, target, power, _drawn_picks(data))
    else:
        assert check_deformation(OD, dfm).ok
    assert check_deformation(OD, dfm) == reference_check_deformation(OD, dfm)


def _equivalence_case(OD, order, psis, target, power, pick):
    """(const, moved, eq) with one entry of ψ, the constant or the moved deformation nudged."""
    const = constant_deformation(OD, order)
    moved = transport_constant(OD, psis, order)
    psi = [Matrix.identity(OD.dim)] + psis
    if target == "psi":
        psi[power] = _nudged_matrix(psi[power], pick(len(psi[power].entries)), pick(None))
    elif target:
        _nudge_deformation(moved if target.endswith("2") else const, target.rstrip("2"),
                           power, pick)
    return const, moved, DeformationEquivalence(order, psi)


EQUIVALENCE_TARGETS = ["psi", "ml", "mr", "phi", "ml2", "mr2", "phi2"]


@settings(max_examples=40, deadline=None)
@given(case=transported(), data=st.data())
def test_equivalence_checker_matches_the_reference(case, data):
    OD, order, psis, _ = case
    target = data.draw(st.sampled_from([None] + EQUIVALENCE_TARGETS), label="target")
    # ψ_0 stays the identity
    power = data.draw(st.integers(1 if target == "psi" else 0, order), label="power")
    const, moved, eq = _equivalence_case(OD, order, psis, target, power, _drawn_picks(data))
    report = check_equivalence(OD, const, moved, eq)
    assert report.ok or target
    assert report == reference_check_equivalence(OD, const, moved, eq)


def test_every_target_power_and_sign_matches_the_references():
    # the swap sum in a basis with denominators: its sign group has ε = +1
    # and ε = -1, and its arguments do not commute, so it is valid only with
    # the ε = -1 argument swap.  Every target is nudged, in deformations at
    # every power 0..N.
    OD = in_basis(oriented_swap_sum(), Matrix.from_rows(
        [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [Fraction(-1, 3), 0, 1, 1]]))
    rng = random.Random(3)

    def pick(n):
        return rng.choice([1, -1, Fraction(1, 2), Fraction(-2, 3)]) if n is None else rng.randrange(n)

    assert check_oriented_dialgebra(OD).ok
    for target in ("left", "right", "action"):
        bad = _nudge_structure(OD, target, pick)
        assert check_axioms(bad.base) == reference_check_axioms(bad.base)
        assert check_oriented_dialgebra(bad) == reference_check_oriented_dialgebra(bad)
    E = build_extension(OD, *coh.degree1_coboundary(OD, Matrix(4, 4, [
        Fraction(i % 5 - 2, 1 + i % 2) for i in range(16)])))
    for target in ("left", "right", "action", "inclusion", "projection"):
        bad = _nudge_extension(E, target, pick)
        assert check_extension(OD, bad) == reference_check_extension(OD, bad)

    order = 2
    psis = [Matrix(4, 4, [(-1) ** (i + p) * Fraction(i % 3, p + 1) for i in range(16)])
            for p in range(order)]
    for power in range(order + 1):
        for target in ("ml", "mr", "phi"):
            dfm = transport_constant(OD, psis, order)
            _nudge_deformation(dfm, target, power, pick)
            report = check_deformation(OD, dfm)
            assert not report.ok
            assert report == reference_check_deformation(OD, dfm)
        for target in EQUIVALENCE_TARGETS:
            if target == "psi" and power == 0:
                continue
            const, moved, eq = _equivalence_case(OD, order, psis, target, power, pick)
            report = check_equivalence(OD, const, moved, eq)
            assert not report.ok
            assert report == reference_check_equivalence(OD, const, moved, eq)


def _shown(x):
    """A result as nested reprs, a Matrix by its shape and entries."""
    if isinstance(x, Matrix):
        return "Matrix", x.rows, x.cols, repr(x.entries)
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_shown(y) for y in x]
    if isinstance(x, Dialgebra):
        return "Dialgebra", repr(x.left), repr(x.right)
    if isinstance(x, TruncatedDeformation):
        return "TruncatedDeformation", x.order, _shown(x.mlt), _shown(x.mrt), _shown(x.phi)
    return repr(x)


def _outcome(fn, *args):
    """What fn returns, shown, or the class, message and attributes of what it raises."""
    try:
        return _shown(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc), repr(sorted(vars(exc).items()))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_transports_match_the_references(data):
    OD = _draw_basis_changed(data, FIXTURES)
    d = OD.dim
    order = data.draw(st.integers(1, 3), label="order")
    entries = data.draw(st.sampled_from([INTEGRAL, SMALL]), label="entries")
    psis = [_matrix(data, d, entries=entries) for _ in range(order)]
    moved = transport_constant(OD, psis, order)
    assert _shown(moved) == _shown(reference_transport_constant(OD, psis, order))
    eq = DeformationEquivalence(order, [Matrix.identity(d)]
                                + [_matrix(data, d, entries=entries) for _ in range(order)])
    assert _shown(transport_deformation(OD, moved, eq)) == \
        _shown(reference_transport_deformation(OD, moved, eq))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extraction_matches_the_reference(data):
    OD = _draw_basis_changed(data, FIXTURES)
    d = OD.dim
    E = build_extension(OD, *coh.degree1_coboundary(OD, _matrix(data, d)))
    target = data.draw(st.sampled_from(
        [None, "left", "right", "action", "inclusion", "projection"]), label="target")
    E = _nudge_extension(E, target, _drawn_picks(data))
    # s(x) = (Kx, x) is a section of the built coordinates for every K
    section = Matrix.from_rows(_matrix(data, d).to_rows() + Matrix.identity(d).to_rows())
    assert _outcome(extract_cocycle, OD, E, section) == \
        _outcome(reference_extract_cocycle, OD, E, section)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_degree0_coboundaries_match_the_references(data):
    OD = _draw_basis_changed(data, FIXTURES)
    gamma = _matrix(data, OD.dim)
    assert _shown(coh.degree1_coboundary(OD, gamma)) == \
        _shown(reference_degree1_coboundary(OD, gamma))
    assert _shown(coh.total_entries(OD, 0).to_matrix()) == \
        _shown(reference_degree1_coboundary_matrix(OD))


def _direct_sum(D: Dialgebra) -> Dialgebra:
    """D ⊕ D with both products componentwise."""
    d = D.dim

    def doubled(T):
        out = zero_tensor(2 * d)
        for off, i, j, k in product((0, d), range(d), range(d), range(d)):
            out[off + i][off + j][off + k] = T[i][j][k]
        return out
    return Dialgebra(2 * d, doubled(D.left), doubled(D.right))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_morphism_test_matches_the_reference(data):
    D = _draw_basis_changed(data, FIXTURES).base
    S, d = _direct_sum(D), D.dim
    one, zero = Matrix.identity(d).to_rows(), Matrix.zeros(d, d).to_rows()
    kind = data.draw(st.sampled_from(
        ["identity", "inclusion", "projection", "zero", "drawn"]), label="kind")
    if kind == "identity":
        src, dst, f = D, D, Matrix.identity(d)
    elif kind == "inclusion":      # x -> (x, 0)
        src, dst, f = D, S, Matrix.from_rows(one + zero)
    elif kind == "projection":     # (x, y) -> x
        src, dst, f = S, D, Matrix.from_rows([a + b for a, b in zip(one, zero)])
    else:
        src, dst = data.draw(st.sampled_from([(D, D), (D, S), (S, D)]), label="spaces")
        f = (Matrix.zeros(dst.dim, src.dim) if kind == "zero"
             else _matrix(data, dst.dim, src.dim))
    got = is_morphism(src, dst, f)
    assert got == reference_is_morphism(src, dst, f)
    assert got or kind == "drawn"


POLY3_MULT = poly3_dialgebra().left
DUAL_MULT = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
# upper triangular 2×2 matrices on (e11, e12, e22)
UPPER_MULT = zero_tensor(3)
UPPER_MULT[0][0][0] = UPPER_MULT[0][1][1] = UPPER_MULT[1][2][1] = UPPER_MULT[2][2][2] = 1
# (product, a square-zero derivation): d(u) = u² on K[u]/(u³), d = ad(e12) on
# the upper triangular matrices, and a nilpotent map on the zero product
DIFFERENTIALS = [
    (POLY3_MULT, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
    (UPPER_MULT, [[0, 0, 0], [-1, 0, 1], [0, 0, 0]]),
    (zero_tensor(2), [[0, 1], [0, 0]]),
    (DUAL_MULT, [[0, 0], [0, 0]]),
]


def _nudged(T: list, pick) -> list:
    return _nudged_tensor(T, pick(len(T)), pick(len(T[0])), pick(len(T[0][0])), pick(None))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_differential_matches_the_reference(data):
    mult, diff = data.draw(st.sampled_from(DIFFERENTIALS), label="algebra")
    d = len(mult)
    pick = _drawn_picks(data)
    kind = data.draw(st.sampled_from(["scaled", "drawn", "nonassociative"]), label="kind")
    if kind == "scaled":
        c = data.draw(SMALL, label="c")
        diff = Matrix(d, d, [c * x for row in diff for x in row])
    else:
        diff = _matrix(data, d)
    if kind == "nonassociative":
        mult = _nudged(mult, pick)
    assert _outcome(from_differential, mult, diff) == \
        _outcome(reference_from_differential, mult, diff)


def _scalar_module(m: int) -> tuple:
    """K^m as a bimodule over the field K: the unit acts as the identity on both sides."""
    unit = Matrix.identity(m).to_rows()
    return [unit], [[row] for row in unit]


# (A, (left action, right action)): A over itself, and K^m over K, m = 1..3
BIMODULES = [(DUAL_MULT, (DUAL_MULT, DUAL_MULT)), (UPPER_MULT, (UPPER_MULT, UPPER_MULT))] + [
    ([[[1]]], _scalar_module(m)) for m in (1, 2, 3)]


def test_from_bimodule_map_matches_the_reference():
    # up to four nudged entries: with several laws broken at once the first
    # witness depends on the order of the loop over (a, b, m) and of the laws
    rng = random.Random(5)

    def pick(n):
        return rng.choice([1, -1, Fraction(1, 2)]) if n is None else rng.randrange(n)

    for a_mult, (act_l, act_r) in BIMODULES:
        da, dm = len(a_mult), len(act_l[0])
        for _ in range(40):
            tensors = [a_mult, act_l, act_r]
            for _ in range(rng.randint(0, 4)):
                t = rng.randrange(3)
                tensors[t] = _nudged(tensors[t], pick)
            a, l, r = tensors
            f = (Matrix.identity(da) if da == dm and rng.random() < 0.3
                 else Matrix(da, dm, [rng.choice([0, 1, -1, Fraction(1, 2)]) for _ in range(da * dm)]))
            assert _outcome(from_bimodule_map, a, (l, r), f) == \
                _outcome(reference_from_bimodule_map, a, (l, r), f)


def _misshaped_calls() -> dict:
    """One call per entry point with a misshaped input on a 2-dimensional structure.

    The input is 3-dimensional, or it lists one group element too few or
    too many: dual-sign has two.  Or it is an α of the wrong shape, or one
    β tensor too many.
    """
    OD = oriented_dual_sign()
    big = Matrix.identity(3)
    E = build_extension(OD, *degree1_zero(OD))
    dfm = constant_deformation(OD, 1)
    bad = TruncatedDeformation(1, [OD.base.left, zero_tensor(3)], dfm.mrt, dfm.phi)
    one = Matrix.identity(2)
    alpha, beta = degree1_zero(OD)
    wide_beta = ([[[0] * 3 for _ in range(2)] for _ in range(2)], beta[1])   # 2x2x3
    # one 2x4 α has as many entries as two 2x2 ones
    wide_alpha = [Matrix.zeros(2, 4)]
    # phi[1] with 1 and with 3 matrices
    short, long = (TruncatedDeformation(1, dfm.mlt, dfm.mrt, [[one] * 2, [one] * k]) for k in (1, 3))
    eq = DeformationEquivalence(1, [one, one])
    # a 3×3×3 ⊢ coefficient at power 1, and at power 2 of an order-2 deformation
    bad_mr = TruncatedDeformation(1, dfm.mlt, [OD.base.right, zero_tensor(3)], dfm.phi)
    dfm2 = constant_deformation(OD, 2)
    bad_top = TruncatedDeformation(2, dfm2.mlt, [*dfm2.mrt[:2], zero_tensor(3)], dfm2.phi)
    return {
        "OrientedDialgebra-count": (OrientedDialgebra, OD.base, OD.group, [one]),
        "OrientedDialgebra-shape": (OrientedDialgebra, OD.base, OD.group, [big, big]),
        "check_deformation-short-phi": (check_deformation, OD, short),
        "infinitesimal-short-phi": (infinitesimal, OD, short),
        "infinitesimal-long-phi": (infinitesimal, OD, long),
        "check_equivalence-short-phi": (check_equivalence, OD, dfm, short, eq),
        "check_equivalence-long-phi": (check_equivalence, OD, long, dfm, eq),
        "check_deformation-coefficient": (check_deformation, OD, bad_mr),
        "infinitesimal-coefficient": (infinitesimal, OD, bad_mr),
        "infinitesimal-coefficient-above-order": (infinitesimal, OD, bad_top, 1),
        "check_equivalence-first-coefficient": (check_equivalence, OD, bad_mr, dfm, eq),
        "check_equivalence-second-coefficient": (check_equivalence, OD, dfm, bad_mr, eq),
        "check_equivalence-psi": (check_equivalence, OD, dfm, dfm,
                                  DeformationEquivalence(1, [one, big])),
        "transport_deformation-short-phi": (transport_deformation, OD, short, eq),
        "is_degree1_cocycle-one-alpha": (coh.is_degree1_cocycle, OD, alpha[:1], beta),
        "is_degree1_cocycle-three-alpha": (coh.is_degree1_cocycle, OD, alpha * 2 + alpha[:1], beta),
        "is_degree1_cocycle-wide-beta": (coh.is_degree1_cocycle, OD, alpha, wide_beta),
        "degree1_pack-one-alpha": (coh.degree1_pack, OD, alpha[:1], beta),
        "degree1_pack-wide-beta": (coh.degree1_pack, OD, alpha, wide_beta),
        "degree1_pack-one-wide-alpha": (coh.degree1_pack, OD, wide_alpha, beta),
        "degree1_pack-three-beta": (coh.degree1_pack, OD, alpha, (*beta, beta[0])),
        "degree1_residuals-three-beta": (coh.degree1_residuals, OD, alpha, (*beta, beta[0])),
        "degree1_unpack": (coh.degree1_unpack, OD, [0] * (coh.total_dim(OD, 1) - 1)),
        "build_extension-one-alpha": (build_extension, OD, alpha[:1], beta),
        "transport_constant": (transport_constant, OD, [big], 1),
        "transport_deformation-psi": (transport_deformation, OD, dfm,
                                      DeformationEquivalence(1, [big, big])),
        "transport_deformation-coefficient": (transport_deformation, OD, bad,
                                              DeformationEquivalence(1, [Matrix.identity(2)] * 2)),
        "degree1_coboundary": (coh.degree1_coboundary, OD, big),
        "extract_cocycle": (extract_cocycle, oriented_trivial(poly3_dialgebra()), E,
                            Matrix.zeros(6, 3)),
        "from_differential": (from_differential, DUAL_MULT, big),
        "from_bimodule_map": (from_bimodule_map, DUAL_MULT, (DUAL_MULT, [[[1]]]),
                              Matrix.identity(2)),
        "is_morphism": (is_morphism, OD.base, OD.base, big),
    }


@pytest.mark.parametrize("call", list(_misshaped_calls()))
def test_misshaped_inputs_are_refused_before_integer_evaluation(call):
    fn, *args = _misshaped_calls()[call]
    with pytest.raises(ShapeMismatchError):
        fn(*args)


def _valid_inputs() -> dict:
    """One valid input per checker on dual-S₃ in a basis with denominators, and one
    integral input per constructor, transport, coboundary and extraction."""
    OD = basis_changed_dual_s3()
    assert type(OD.base.left[0][0][0]) is Fraction and type(OD.action[1].entries[0]) is Fraction
    gamma = Matrix.from_rows([[1, Fraction(1, 3)], [2, -1]])
    psis = [Matrix.from_rows([[1, Fraction(1, 2)], [0, -1]]),
            Matrix.from_rows([[Fraction(-1, 3), 0], [2, 1]])]
    moved = transport_constant(OD, psis, 2)
    eq = DeformationEquivalence(2, [Matrix.identity(2)] + psis)
    # the swap sum is integral, and Ψ with ψ_0 = id and integral ψ_i has an integral inverse
    swap = oriented_swap_sum()
    integral = Matrix(4, 4, [(i * 7) % 5 - 2 for i in range(16)])
    E = build_extension(swap, *coh.degree1_coboundary(swap, integral))
    return {
        "check_axioms": (check_axioms, OD.base),
        "check_oriented_dialgebra": (check_oriented_dialgebra, OD),
        "check_extension": (check_extension, OD,
                            build_extension(OD, *coh.degree1_coboundary(OD, gamma))),
        "check_deformation": (check_deformation, OD, moved),
        "check_equivalence": (check_equivalence, OD, constant_deformation(OD, 2), moved, eq),
        "transport_constant": (transport_constant, swap, [integral, integral.transpose()], 2),
        "extract_cocycle": (extract_cocycle, swap, E, canonical_section(E)),
        "degree1_coboundary": (coh.degree1_coboundary, swap, integral),
        "from_differential": (from_differential, POLY3_MULT,
                              Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 2, 0]])),
    }


@pytest.mark.parametrize("checker", ["check_axioms", "check_oriented_dialgebra",
                                     "check_extension", "check_deformation", "check_equivalence",
                                     "transport_constant", "extract_cocycle",
                                     "degree1_coboundary", "from_differential"])
def test_valid_structure_is_checked_without_fractions(checker, fractions_built):
    fn, *args = _valid_inputs()[checker]
    result, built = fractions_built(fn, *args)
    assert result.ok if checker.startswith("check_") else result
    assert built == []
