"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts.  Every tolerance is exact (rational arithmetic); the only
numeric budgets are the stated wall-clock limits.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oridial import cohomology as coh
from oridial.deformations import (
    DeformationEquivalence,
    check_deformation,
    constant_deformation,
    infinitesimal,
    infinitesimals_cohomologous,
    transport_constant,
)
from oridial.extensions import (
    build_extension,
    canonical_section,
    check_extension,
    cocycles_cohomologous,
    extract_cocycle,
)
from oridial.linalg import Matrix, nullspace
from oridial.oriented import OrientedDialgebra, OrientedGroup
from oridial.trees import catalan, enumerate_trees, face

from bundles import dual_sign_bundle, run_cli_process, write_bundle
from reference_checkers import apply
from reference_quotient import is_zero, same_map
from conftest import (
    alt_sign_action,
    degree1_zero,
    diff3_dialgebra,
    dual_numbers_dialgebra,
    oriented_dual_sign,
    oriented_trivial,
    scalar_product_dialgebra,
    split_products_dialgebra,
    zero_dialgebra,
)

GOLDEN = Path(__file__).parent / "golden"


def _verdict(num, ok, message):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok


ALL_DIALGEBRAS = None


def all_dialgebras():
    global ALL_DIALGEBRAS
    if ALL_DIALGEBRAS is None:
        ALL_DIALGEBRAS = [
            ("scalar-product", scalar_product_dialgebra()),
            ("dual-numbers", dual_numbers_dialgebra()),
            ("zero-products", zero_dialgebra(2)),
            ("split-products", split_products_dialgebra()),
            ("diff-poly3", diff3_dialgebra()),
        ]
    return ALL_DIALGEBRAS


def test_criterion_1_tree_layer():
    start = time.monotonic()
    counts_ok = all(len(enumerate_trees(n)) == c
                    for n, c in enumerate([1, 1, 2, 5, 14, 42, 132]))
    catalans_ok = all(catalan(n) == c for n, c in enumerate([1, 1, 2, 5, 14, 42, 132]))
    simplicial_ok = all(
        face(i, face(j, y)) == face(j - 1, face(i, y))
        for n in range(2, 6)
        for y in enumerate_trees(n)
        for j in range(1, n + 1)
        for i in range(j)
    )
    elapsed = time.monotonic() - start
    ok = counts_ok and catalans_ok and simplicial_ok and elapsed < 5.0
    _verdict(1, ok, f"tree counts + simplicial identities in {elapsed:.2f}s (< 5s)")


def test_criterion_2_coboundary_squares_to_zero():
    ok = True
    for name, D in all_dialgebras():
        for n in range(3):
            if not is_zero(coh.delta_entries(D, n + 1).mul(coh.delta_entries(D, n))):
                ok = False
    _verdict(2, ok, "delta∘delta = 0 exactly on every fixture (d <= 3), levels 0..2")


def test_criterion_3_equivariance_pins_the_sign():
    start = time.monotonic()
    OD = oriented_dual_sign()  # 2-dim, sign group, ε = id
    default_ok = True
    for n in (1, 2, 3):
        delta = coh.delta_entries(OD.base, n)
        for g in OD.group.elements():
            before = coh.act_entries(OD, g, n)
            after = coh.act_entries(OD, g, n + 1)
            if not same_map(after.mul(delta), delta.mul(before)):
                default_ok = False
    alt_fails = False
    for n in (2, 3):
        delta = coh.delta_entries(OD.base, n)
        before = alt_sign_action(OD, 1, n)
        after = alt_sign_action(OD, 1, n + 1)
        if not same_map(after.mul(delta), delta.mul(before)):
            alt_fails = True
    elapsed = time.monotonic() - start
    ok = default_ok and alt_fails and elapsed < 30.0
    _verdict(3, ok, f"action commutes with delta at n=1,2,3 under the shipped "
                    f"exponent only, in {elapsed:.2f}s (< 30s)")


def test_criterion_4_bicomplex_soundness():
    OD = oriented_dual_sign()
    ok = True
    for p in range(4):
        for q in range(1, 5 - p):
            h = coh.horizontal_entries(OD, p, q)
            v = coh.vertical_entries(OD, p, q)
            if not is_zero(coh.horizontal_entries(OD, p, q + 1).mul(h)):
                ok = False
            if not is_zero(coh.vertical_entries(OD, p + 1, q).mul(v)):
                ok = False
            if not same_map(coh.horizontal_entries(OD, p + 1, q).mul(v),
                            coh.vertical_entries(OD, p, q + 1).mul(h)):
                ok = False
    for n in range(4):  # sources cover every block with p + q <= 4
        if not is_zero(coh.total_entries(OD, n + 1).mul(coh.total_entries(OD, n))):
            ok = False
    _verdict(4, ok, "both squares, commutation, and the total square vanish "
                    "exactly on all blocks with p+q <= 4 (|G| = 2, d = 2)")


def test_criterion_5_trivial_group_collapse():
    ok = True
    details = []
    for name, D in all_dialgebras():
        OD = oriented_trivial(D)
        for n in (1, 2):
            eq_dim = coh.equivariant_cohomology(OD, n).dim
            hy_dim = coh.dialgebra_cohomology(D, n + 1).dim
            details.append(f"{name} n={n}: {eq_dim}")
            if eq_dim != hy_dim:
                ok = False
    _verdict(5, ok, "dim equivariant(n) = dim plain(n+1) for |G| = 1 on all "
                    f"fixtures ({'; '.join(details)})")


def test_criterion_6_degree1_consistency():
    z2_plain = OrientedGroup([[0, 1], [1, 0]], [1, 1])
    cases = [
        oriented_dual_sign(),
        OrientedDialgebra(dual_numbers_dialgebra(), z2_plain,
                          [Matrix.identity(2), Matrix.from_rows([[1, 0], [0, -1]])]),
        oriented_trivial(split_products_dialgebra()),
    ]
    ok = True
    for OD in cases:
        d1 = coh.total_entries(OD, 1).to_matrix()
        system = coh.degree1_system(OD)
        kernel = nullspace(d1)
        solutions = nullspace(system)
        if not all(all(x == 0 for x in apply(system, v)) for v in kernel):
            ok = False
        if not all(all(x == 0 for x in apply(d1, v)) for v in solutions):
            ok = False
        if len(kernel) != len(solutions):
            ok = False
    _verdict(6, ok, "degree-1 total kernel = explicit-equation solutions "
                    "(double inclusion of spanning sets)")


def _sample_cocycles(OD, count, seed):
    basis = nullspace(coh.degree1_system(OD))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vec = [0] * coh.total_dim(OD, 1)
        for b in basis:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            vec = [x + c * y for x, y in zip(vec, b)]
        out.append(coh.degree1_unpack(OD, vec))
    return out


def test_criterion_7_extension_round_trip():
    start = time.monotonic()
    OD = oriented_dual_sign()
    rng = random.Random(77)
    ok = True
    for alpha, beta in _sample_cocycles(OD, 25, seed=7):
        E = build_extension(OD, alpha, beta)
        if not check_extension(OD, E).ok:
            ok = False
        a2, b2 = extract_cocycle(OD, E, canonical_section(E))
        if coh.degree1_pack(OD, a2, b2) != coh.degree1_pack(OD, alpha, beta):
            ok = False
        gamma = Matrix(2, 2, [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                              for _ in range(4)])
        shift = E.inclusion.mul(gamma)
        section = Matrix(4, 2, [a + b for a, b in
                                zip(canonical_section(E).entries, shift.entries)])
        a3, b3 = extract_cocycle(OD, E, section)
        cert = cocycles_cohomologous(OD, (alpha, beta), (a3, b3))
        if cert is None:
            ok = False
        else:
            da, db = coh.degree1_coboundary(OD, cert)
            diff = [x - y for x, y in zip(coh.degree1_pack(OD, alpha, beta),
                                          coh.degree1_pack(OD, a3, b3))]
            if coh.degree1_pack(OD, da, db) != [coh.normalize_scalar(v) for v in diff]:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(7, ok, f"25 random cocycles: build passes every clause, canonical "
                    f"extraction is exact, perturbed sections certified, "
                    f"in {elapsed:.2f}s (< 60s)")


def test_criterion_8_coboundaries_split():
    OD = oriented_dual_sign()
    rng = random.Random(88)
    ok = True
    zero = degree1_zero(OD)
    for _ in range(5):
        gamma = Matrix(2, 2, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(4)])
        pair = coh.degree1_coboundary(OD, gamma)
        E = build_extension(OD, pair[0], pair[1])
        extracted = extract_cocycle(OD, E, canonical_section(E))
        cert = cocycles_cohomologous(OD, extracted, zero)
        if cert is None:
            ok = False
        else:
            da, db = coh.degree1_coboundary(OD, cert)
            if coh.degree1_pack(OD, da, db) != coh.degree1_pack(OD, *extracted):
                ok = False
    _verdict(8, ok, "extensions built from coboundary pairs extract to the zero class")


def test_criterion_9_infinitesimals():
    start = time.monotonic()
    OD = oriented_dual_sign()
    const = constant_deformation(OD, 2)
    rng = random.Random(99)
    ok = True
    for _ in range(25):
        psis = [Matrix(2, 2, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(4)]) for _ in range(2)]
        moved = transport_constant(OD, psis, 2)
        if not check_deformation(OD, moved).ok:
            ok = False
        inf = infinitesimal(OD, moved, 1)
        if not coh.is_degree1_cocycle(OD, *inf).ok:
            ok = False
        eq = DeformationEquivalence(2, [Matrix.identity(2)] + psis)
        cert = infinitesimals_cohomologous(OD, const, moved, eq)  # verifies exactly
        if cert != psis[0]:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(9, ok, f"25 transported order-2 deformations: valid, cocycle "
                    f"infinitesimals, ψ1 certificates, in {elapsed:.2f}s (< 60s)")


@pytest.mark.parametrize("command,golden_name", [
    (["equivariant-cohomology", "--n", "1"], "equivariant_dual_sign_n1.json"),
    (["rigidity"], "rigidity_dual_sign.json"),
])
def test_criterion_10_cli_determinism(tmp_path, command, golden_name):
    path = write_bundle(tmp_path / "bundle.json", dual_sign_bundle())
    runs = [run_cli_process([*command, "--input", path]) for _ in range(3)]
    codes_ok = all(r.returncode == 0 for r in runs)
    identical = len({r.stdout for r in runs}) == 1
    golden_ok = runs[0].stdout == (GOLDEN / golden_name).read_text(encoding="utf-8")
    ok = codes_ok and identical and golden_ok
    _verdict(10, ok, f"{command[0]}: byte-identical across 3 runs and equal to "
                     f"the checked-in golden file")
