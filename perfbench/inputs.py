"""Benchmark inputs: the fixture zoo, seeded basis-changed copies, bundles.

The fixtures are the standing algebras of the test suite, rebuilt here so
the benchmark depends only on the engine's public constructors.  A copy of
a fixture is the same algebra in a seeded rational basis P: structure
constants T'(a, b) = P⁻¹ T(P e_a, P e_b) and action ρ'(g) = P⁻¹ ρ(g) P.
Copies are isomorphic to their source, so every cohomology dimension must
agree, while their coboundary matrices are denser and carry larger
coefficients.  All randomness comes from one ``random.Random(seed)``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oridial import trees
from oridial.dialgebra import Dialgebra, from_associative, from_differential, zero_tensor
from oridial.linalg import Matrix
from oridial.oriented import (
    OrientedDialgebra,
    OrientedGroup,
    sign_group,
    symmetric_group,
    trivial_group,
)
from verify import apply, bilinear, matmul

COPIES = 2            # basis-changed copies per fixture
WARM_TREE_LEVEL = 4   # highest tree level any workload touches

_POLY3 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]
_DUAL = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]


def dialgebra_fixtures() -> dict[str, Dialgebra]:
    """scalar, dual, zero, split, poly3 and diff3, as in tests/conftest.py."""
    split_left = zero_tensor(2)
    split_left[1][1][0] = 1
    return {
        "scalar": from_associative([[[1]]]),
        "dual": from_associative(_DUAL),
        "zero": Dialgebra(2, zero_tensor(2), zero_tensor(2)),
        "split": Dialgebra(2, split_left, zero_tensor(2)),
        "poly3": from_associative(_POLY3),
        "diff3": from_differential(_POLY3, Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])),
    }


def oriented_fixtures(dias: dict[str, Dialgebra]) -> dict[str, OrientedDialgebra]:
    """Sign-group, ε ≡ 1 Z₂, trivial-group and S₃ fixtures."""
    flip = Matrix.from_rows([[1, 0], [0, -1]])
    s3 = symmetric_group(3)
    out = {
        "dual-sign": OrientedDialgebra(dias["dual"], sign_group(), [Matrix.identity(2), flip]),
        "zero-sign": OrientedDialgebra(dias["zero"], sign_group(),
                                       [Matrix.identity(2), Matrix.from_rows([[0, 1], [1, 0]])]),
        "dual-z2": OrientedDialgebra(dias["dual"], OrientedGroup([[0, 1], [1, 0]], [1, 1]),
                                     [Matrix.identity(2), flip]),
        "dual-s3": OrientedDialgebra(
            dias["dual"], s3, [Matrix.from_rows([[1, 0], [0, s3.sign(g)]]) for g in s3.elements()]),
    }
    for name in ("scalar", "dual", "zero", "split"):
        D = dias[name]
        out[f"{name}-trivial"] = OrientedDialgebra(D, trivial_group(), [Matrix.identity(D.dim)])
    return out


# ---------------------------------------------------------------------------
# basis changes


def random_basis(rng: random.Random, d: int, copy: int) -> list[list[Fraction]]:
    """P = P₀·S: a fixed dense P₀ for each copy number, then a seeded S.

    P₀ = L·U with unit triangular L and U.  The entry (i, j) below the
    diagonal of L is (−1)^(i+j+copy)/2, and the one above the diagonal of
    U is (−1)^(i·j)·3, so the copies differ in L.  S is a signed
    permutation drawn from the seed.  So the copy for a seed is the
    P₀-copy written in a relabelled basis: its coboundary matrices are
    those of the P₀-copy up to the order and signs of coordinates.  The
    seed changes the copy, not how hard it is.
    """
    L = [[Fraction(int(i == j)) if i <= j else Fraction((-1) ** (i + j + copy), 2)
          for j in range(d)] for i in range(d)]
    U = [[Fraction(int(i == j)) if i >= j else Fraction(3 * (-1) ** (i * j)) for j in range(d)]
         for i in range(d)]
    order = rng.sample(range(d), d)
    S = [[Fraction(rng.choice((1, -1))) if i == order[j] else Fraction(0) for j in range(d)]
         for i in range(d)]
    return matmul(matmul(L, U), S)


def invert(P: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of an invertible matrix by Gauss-Jordan."""
    d = len(P)
    aug = [list(P[i]) + [Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def _conjugate_tensor(T, P, Pinv):
    d = len(P)
    cols = [[P[i][a] for i in range(d)] for a in range(d)]
    return [[apply(Pinv, bilinear(T, cols[a], cols[b])) for b in range(d)] for a in range(d)]


def copy_dialgebra(D: Dialgebra, P) -> Dialgebra:
    Pinv = invert(P)
    return Dialgebra(D.dim, _conjugate_tensor(D.left, P, Pinv), _conjugate_tensor(D.right, P, Pinv))


def copy_oriented(OD: OrientedDialgebra, P) -> OrientedDialgebra:
    Pinv = invert(P)
    action = [Matrix.from_rows(matmul(matmul(Pinv, rho.to_rows()), P)) for rho in OD.action]
    return OrientedDialgebra(copy_dialgebra(OD.base, P), OD.group, action)


# ---------------------------------------------------------------------------
# instances and bundles


@dataclass
class Instance:
    """One input: a fixture or one of its copies."""

    name: str        # "dual" or "dual#1"
    source: str      # fixture name
    algebra: object  # Dialgebra or OrientedDialgebra
    bundle: str = ""  # path of its JSON bundle


def instances(fixtures: dict, rng: random.Random, skip=()) -> list[Instance]:
    """Each fixture followed by its seeded copies (none for names in ``skip``)."""
    out = []
    for name, alg in fixtures.items():
        out.append(Instance(name, name, alg))
        if name in skip:
            continue
        for c in range(1, COPIES + 1):
            P = random_basis(rng, alg.dim, c)
            copy = copy_oriented(alg, P) if isinstance(alg, OrientedDialgebra) else copy_dialgebra(alg, P)
            out.append(Instance(f"{name}#{c}", name, copy))
    return out


def matrix_json(rows) -> list:
    """Rationals as the CLI writes them: "p" or "p/q"."""
    return [[str(Fraction(x)) for x in row] for row in rows]


def tensor_json(T) -> list:
    return [matrix_json(plane) for plane in T]


def dialgebra_json(D: Dialgebra) -> dict:
    return {"dim": D.dim, "left": tensor_json(D.left), "right": tensor_json(D.right)}


def bundle_of(alg) -> dict:
    if isinstance(alg, OrientedDialgebra):
        G = alg.group
        return {
            "dialgebra": dialgebra_json(alg.base),
            "group": {"order": G.order, "table": G.table, "epsilon": G.epsilon},
            "action": [matrix_json(m.to_rows()) for m in alg.action],
        }
    return {"dialgebra": dialgebra_json(alg)}


def write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return str(path)


def write_bundles(insts: list[Instance], outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        inst.bundle = write_json(outdir / f"{inst.name.replace('#', '_')}.json", bundle_of(inst.algebra))


def warm_trees() -> None:
    # through the module, so a tracer installed there sees the calls
    for n in range(WARM_TREE_LEVEL + 1):
        trees.enumerate_trees(n)
        trees.tree_index(n)
