"""Tests of the benchmark's own checks, tracer and metric list.

Run with ``python -m pytest perfbench``.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from oridial import cohomology as coh  # noqa: E402
from oridial import linalg  # noqa: E402
from verify import CheckFailure, check_quotient, coboundary, rank_modp  # noqa: E402


def exact_rank(rows: list) -> int:
    """Rank over ℚ by plain Gauss-Jordan on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def sparse(rows: list) -> dict:
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def random_matrix(rng: random.Random) -> list:
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    if rng.random() < 0.5:   # a product of thin factors has a known low rank
        k = rng.randint(0, min(rows, cols))
        a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)] for _ in range(rows)]
        b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(k)]
        return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
                for i in range(rows)]
    density = rng.random()
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def test_rank_modp_agrees_with_exact_rank():
    rng = random.Random(7)
    for _ in range(300):
        rows = random_matrix(rng)
        assert rank_modp(sparse(rows)) == exact_rank(rows)


def _complex():
    """Q --d_in--> Q³ --d_out--> Q: im = <e1>, ker = <e1, e2>, H = <e2>."""
    d_in = SimpleNamespace(rows=3, cols=1, entries={(0, 0): 1})
    d_out = SimpleNamespace(rows=1, cols=3, entries={(0, 2): 1})
    return d_out, d_in


def test_check_quotient_accepts_the_right_answer():
    d_out, d_in = _complex()
    check_quotient(d_out, d_in, 1, [[0, 1, 0]], "toy")
    check_quotient(d_out, d_in, 1, [[5, Fraction(1, 2), 0]], "toy")


@pytest.mark.parametrize("dim, reps", [
    (2, [[0, 1, 0], [1, 0, 0]]),   # wrong dimension
    (1, [[0, 0, 1]]),              # not annihilated by d_out
    (1, [[1, 0, 0]]),              # a coboundary, zero in cohomology
    (1, []),                       # too few representatives
])
def test_check_quotient_rejects_wrong_answers(dim, reps):
    d_out, d_in = _complex()
    with pytest.raises(CheckFailure):
        check_quotient(d_out, d_in, dim, reps, "toy")


def _fixture(name):
    return inputs.oriented_fixtures(inputs.dialgebra_fixtures())[name]


@pytest.mark.parametrize("change", ["dim", "representative"])
def test_plain_chain_rejects_a_tampered_result(tmp_path, change):
    D = inputs.dialgebra_fixtures()["dual"]
    inst = inputs.Instance("dual", "dual", D)
    res = coh.dialgebra_cohomology(D, 2)
    if change == "dim":
        res.dim += 1
    else:
        res.representatives[0] = [1] + [0] * (len(res.representatives[0]) - 1)
    chain = workloads.plain_chain(workloads.Context(tmp_path), inst, 2)
    next(chain)
    with pytest.raises(CheckFailure):
        chain.send(res)


def test_equivariant_chain_checks_pass_on_the_engine(tmp_path):
    inst = inputs.Instance("dual-sign", "dual-sign", _fixture("dual-sign"))
    for n in range(3):
        chain = workloads.equivariant_chain(workloads.Context(tmp_path), inst, n)
        op = next(chain)
        with pytest.raises(StopIteration):
            chain.send(op.fn())


def test_coboundary_formula_matches_the_engine():
    OD = _fixture("dual-sign")
    gamma = [[1, -2], [Fraction(1, 3), 2]]
    alpha, (beta_l, beta_r) = coh.degree1_coboundary(OD, linalg.Matrix.from_rows(gamma))
    ours = coboundary(inputs.bundle_of(OD), gamma)
    assert ours["alpha"] == [[[Fraction(x) for x in row] for row in m.to_rows()] for m in alpha]
    assert ours["beta_left"] == beta_l and ours["beta_right"] == beta_r


def test_copies_are_isomorphic():
    rng = random.Random(3)
    for inst in inputs.instances(inputs.dialgebra_fixtures(), rng):
        if inst.name != inst.source:
            assert coh.dialgebra_cohomology(inst.algebra, 1).dim == \
                coh.dialgebra_cohomology(inputs.dialgebra_fixtures()[inst.source], 1).dim


def test_every_seed_poses_the_same_work():
    def delta_nnz(seed):
        insts = inputs.instances(inputs.dialgebra_fixtures(), random.Random(seed), skip={"scalar"})
        return {i.name: len(coh.delta_entries(i.algebra, 2).entries) for i in insts}

    first, second = delta_nnz(1), delta_nnz(2)
    assert first == second
    assert first["dual#1"] > first["dual"] and first["diff3#1"] > first["diff3"]
    copies = inputs.instances({"dual": inputs.dialgebra_fixtures()["dual"]}, random.Random(1))
    assert copies[1].algebra.left != copies[2].algebra.left


def test_tracer_counts_and_restores():
    original = linalg.rank
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert coh.rank is not original
        coh.dialgebra_cohomology(inputs.dialgebra_fixtures()["dual"], 1)
        coh.dialgebra_cohomology(inputs.dialgebra_fixtures()["dual"], 1)
    finally:
        tracer.uninstall()
    assert coh.rank is original and linalg.rank is original
    values = tracer.metrics()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert values["linalg.elim_calls"] == 6
    assert values["linalg.elim_distinct_ratio"] == pytest.approx(3 / 6)
    assert values["cohomology.action_s"] == 0


def _zero_sign_chain(tmp_path):
    inst = next(i for i in workloads.build("degree1-roundtrip", 1).instances
                if i.name == workloads.FAULTY_SOURCE)
    inputs.write_bundles([inst], tmp_path)
    ctx = workloads.Context(tmp_path)
    return ctx, workloads.degree1_chain(ctx, inst)


def test_zero_sign_extend_fails_with_the_known_fault(tmp_path):
    ctx, chain = _zero_sign_chain(tmp_path)
    keys, op = [], next(chain)
    with pytest.raises(StopIteration):
        while True:
            keys.append(op.key)
            op = chain.send(op.fn())
    extends = [k for k in keys if k.startswith("extend")]
    assert len(extends) == ctx.failed == 8
    assert not any(k.startswith("extract") for k in keys)


def test_zero_sign_chain_goes_on_once_extend_succeeds(tmp_path):
    """Once the gate is mended, extend exits 0 and the chain extracts next."""
    ctx, chain = _zero_sign_chain(tmp_path)
    op = next(chain)
    while not op.key.startswith("extend"):
        op = chain.send(op.fn())
    extension = {"dialgebra": {"dim": 4}, "action": [], "inclusion": [], "projection": []}
    op = chain.send((0, json.dumps({"extension": extension}), ""))
    assert op.key == "extract zero-sign c0" and ctx.failed == 0
    sent = json.loads((tmp_path / "zero-sign-c0-extension.json").read_text())
    assert sent["extension"] == extension


def test_degree1_chain_rejects_a_wrong_extraction(tmp_path):
    inst = next(i for i in workloads.build("degree1-roundtrip", 1).instances
                if i.name == "dual-sign")
    inputs.write_bundles([inst], tmp_path)
    chain = workloads.degree1_chain(workloads.Context(tmp_path), inst)
    op = next(chain)
    while not op.key.startswith("extract"):
        op = chain.send(op.fn())
    code, out, err = op.fn()
    payload = json.loads(out)
    payload["cocycle"]["alpha"][0][0][0] = "7/3"
    with pytest.raises(CheckFailure):
        chain.send((code, json.dumps(payload), err))
