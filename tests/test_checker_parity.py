"""The integer structure checkers against the vector-by-vector references.

Every checker must return the reference's ``Report``: the same checks, the
same ``ok`` values and the same first witnesses.  The inputs are fixtures
in bases with denominators, valid or with one entry nudged by a fraction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridial import cohomology as coh
from oridial.deformations import (
    DeformationEquivalence,
    check_deformation,
    check_equivalence,
    constant_deformation,
    transport_constant,
)
from oridial.dialgebra import Dialgebra, check_axioms
from oridial.extensions import SingularExtension, build_extension, check_extension
from oridial.linalg import Matrix, normalize_scalar
from oridial.oriented import OrientedDialgebra, check_oriented_dialgebra

from conftest import (
    _draw_basis_changed,
    _oriented_fixtures,
    basis_changed_dual_s3,
    in_basis,
    oriented_swap_sum,
)
from reference_checkers import (
    reference_check_axioms,
    reference_check_deformation,
    reference_check_equivalence,
    reference_check_extension,
    reference_check_oriented_dialgebra,
)

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
NUDGES = SMALL.filter(bool)
# the swap sum is the one fixture on which ε = -1 swaps non-commuting arguments
FIXTURES = _oriented_fixtures() + [oriented_swap_sum()]


def _matrix(data, d: int) -> Matrix:
    return Matrix(d, d, [data.draw(SMALL) for _ in range(d * d)])


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


def _valid_inputs() -> dict:
    """One valid input per checker on dual-S₃ in a basis with denominators."""
    OD = basis_changed_dual_s3()
    assert type(OD.base.left[0][0][0]) is Fraction and type(OD.action[1].entries[0]) is Fraction
    gamma = Matrix.from_rows([[1, Fraction(1, 3)], [2, -1]])
    psis = [Matrix.from_rows([[1, Fraction(1, 2)], [0, -1]]),
            Matrix.from_rows([[Fraction(-1, 3), 0], [2, 1]])]
    moved = transport_constant(OD, psis, 2)
    eq = DeformationEquivalence(2, [Matrix.identity(2)] + psis)
    return {
        "check_axioms": (check_axioms, OD.base),
        "check_oriented_dialgebra": (check_oriented_dialgebra, OD),
        "check_extension": (check_extension, OD,
                            build_extension(OD, *coh.degree1_coboundary(OD, gamma))),
        "check_deformation": (check_deformation, OD, moved),
        "check_equivalence": (check_equivalence, OD, constant_deformation(OD, 2), moved, eq),
    }


@pytest.mark.parametrize("checker", ["check_axioms", "check_oriented_dialgebra",
                                     "check_extension", "check_deformation", "check_equivalence"])
def test_valid_structure_is_checked_without_fractions(checker, fractions_built):
    fn, *args = _valid_inputs()[checker]
    report, built = fractions_built(fn, *args)
    assert report.ok
    assert built == []
