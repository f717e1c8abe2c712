"""The three workloads, each a set of operation chains.

A chain is a generator that yields ``Op`` objects and receives each
operation's result back; the code between yields builds the next input
and checks the last output, and is never timed.  The runner advances the
chains of a round in turn, so operation classes interleave.  Checks that
need independent rank computations run once per operation key; later
rounds must reproduce the verified result exactly, because the engine is
deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oridial.cli as cli_module
from oridial import cohomology as coh
from oridial import deformations as defm
from oridial.linalg import Matrix

import inputs
from verify import (
    CheckFailure,
    check_quotient,
    coboundary,
    cocycle_sum,
    cocycle_values,
    fractions_of,
    invariant_dim,
    rank_modp,
    require,
)

DEFORMATION_ORDER = 2
EXTEND_FAULT = "pair is not a degree-1 cocycle"
FAULTY_SOURCE = "zero-sign"
# the reports `oridial check` gives on a bundle with an action
CHECK_SOURCES = {"dialgebra axioms", "oriented group", "oriented dialgebra"}


@dataclass
class Op:
    key: str                 # stable name, the same in every round
    fn: Callable[[], object]


@dataclass
class Context:
    """State shared by the chains of one run."""

    workdir: Path
    verified: dict = field(default_factory=dict)   # op key -> checked result
    source_dims: dict = field(default_factory=dict)
    failed: int = 0

    def once(self, key: str, value, check: Callable[[], None]) -> None:
        """Check a result the first time; later rounds must repeat it."""
        if key in self.verified:
            require(self.verified[key] == value, f"{key}: result differs from the verified round")
            return
        check()
        self.verified[key] = value

    def same_as_source(self, source: str, what: str, dim: int) -> None:
        want = self.source_dims.setdefault((source, what), dim)
        require(dim == want, f"{source} {what}: a basis-changed copy gives {dim}, not {want}")

    def write(self, name: str, data: dict) -> str:
        return inputs.write_json(self.workdir / name, data)


@dataclass
class Workload:
    name: str
    instances: list
    chains: Callable[[Context], list]


def run_cli(argv: list) -> Callable[[], tuple]:
    """An operation that runs ``oridial`` in-process with its output captured."""
    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(argv)
        return code, out.getvalue(), err.getvalue()
    return op


def _result_value(res) -> tuple:
    return res.dim, res.kernel_dim, res.image_rank, res.representatives


# ---------------------------------------------------------------------------
# plain-ladder


def plain_top(D) -> int:
    return 3 if D.dim <= 2 else 2


def plain_chain(ctx: Context, inst, n: int):
    D = inst.algebra
    key = f"plain {inst.name} n={n}"
    res = yield Op(key, lambda: coh.dialgebra_cohomology(D, n))

    def check():
        d_in = coh.delta_entries(D, n - 1) if n else None
        check_quotient(coh.delta_entries(D, n), d_in, res.dim, res.representatives, key)

    ctx.once(key, _result_value(res), check)
    ctx.same_as_source(inst.source, f"plain n={n}", res.dim)


# ---------------------------------------------------------------------------
# equivariant-bicomplex


def equivariant_top(inst) -> int:
    """n = 2 on the sign and Z₂ fixtures and their copies; S₃ stops at 1.

    Trivial-group copies stop at n = 1 as well: their n = 2 is the plain
    level-3 work that plain-ladder already times on copies.
    """
    OD = inst.algebra
    if OD.group.order > 2 or (OD.group.order == 1 and inst.name != inst.source):
        return 1
    return 2


def _plain_modp(D, level: int, quotient: bool) -> int:
    """ker δ_level, modulo im δ_(level−1) when ``quotient`` is set."""
    out = coh.delta_entries(D, level)
    dim = out.cols - rank_modp(out.entries)
    if quotient:
        dim -= rank_modp(coh.delta_entries(D, level - 1).entries)
    return dim


def equivariant_chain(ctx: Context, inst, n: int):
    OD = inst.algebra
    key = f"equivariant {inst.name} n={n}"
    res = yield Op(key, lambda: coh.equivariant_cohomology(OD, n))

    def check():
        d_in = coh.total_entries(OD, n - 1) if n else None
        check_quotient(coh.total_entries(OD, n), d_in, res.dim, res.representatives, key)
        maschke = invariant_dim(OD, n, lambda q: coh.delta_entries(OD.base, q),
                                lambda g, q: coh.act_entries(OD, g, q))
        require(res.dim == maschke, f"{key}: dim {res.dim}, invariant δ-cohomology {maschke}")
        if OD.group.order == 1:
            # the reduced bicomplex drops q = 0, so only n >= 1 is plain(n+1)
            plain = _plain_modp(OD.base, n + 1, quotient=n >= 1)
            require(res.dim == plain, f"{key}: trivial group gives {res.dim}, shifted plain {plain}")

    ctx.once(key, _result_value(res), check)
    ctx.same_as_source(inst.source, f"equivariant n={n}", res.dim)


# ---------------------------------------------------------------------------
# degree1-roundtrip


def _cli_json(result, key: str, code: int = 0) -> dict:
    got, out, err = result
    require(got == code, f"{key}: exit code {got}, expected {code} ({err.strip()[:200]})")
    try:
        return json.loads(out)
    except ValueError:
        raise CheckFailure(f"{key}: output is not JSON: {out[:200]!r}") from None


def _deformation_json(dfm) -> dict:
    return {
        "order": dfm.order,
        "ml": [inputs.tensor_json(t) for t in dfm.mlt],
        "mr": [inputs.tensor_json(t) for t in dfm.mrt],
        "phi": [[inputs.matrix_json(m.to_rows()) for m in per_g] for per_g in dfm.phi],
    }


def _constant_json(bundle: dict, order: int) -> dict:
    d = bundle["dialgebra"]["dim"]
    zero_t = [[["0"] * d for _ in range(d)] for _ in range(d)]
    zero_m = [["0"] * d for _ in range(d)]
    return {
        "order": order,
        "ml": [bundle["dialgebra"]["left"]] + [zero_t] * order,
        "mr": [bundle["dialgebra"]["right"]] + [zero_t] * order,
        "phi": [bundle["action"]] + [[zero_m] * len(bundle["action"])] * order,
    }


def degree1_chain(ctx: Context, inst):
    OD = inst.algebra
    base = inputs.bundle_of(OD)
    tag = inst.name.replace("#", "_")
    faulty = inst.source == FAULTY_SOURCE
    d = OD.dim

    key = f"check {inst.name}"
    report = _cli_json((yield Op(key, run_cli(["check", "--input", inst.bundle]))), key)
    sources = {c["check"].split(":")[0] for c in report["checks"]}
    require(report["ok"] is True and all(c["ok"] for c in report["checks"])
            and sources == CHECK_SOURCES,
            f"{key}: a valid oriented dialgebra fails its checks ({sorted(sources)})")

    key = f"rigidity {inst.name}"
    rig = _cli_json((yield Op(key, run_cli(["rigidity", "--input", inst.bundle]))), key)

    def check_rigidity():
        want = invariant_dim(OD, 1, lambda q: coh.delta_entries(OD.base, q),
                             lambda g, q: coh.act_entries(OD, g, q))
        require(rig["dim"] == want == len(rig["candidates"]),
                f"{key}: dim {rig['dim']}, invariant δ-cohomology {want}")

    ctx.once(key, rig, check_rigidity)
    ctx.same_as_source(inst.source, "rigidity", rig["dim"])

    for i, cand in enumerate(rig["candidates"]):
        key = f"extend {inst.name} c{i}"
        path = ctx.write(f"{tag}-c{i}-cocycle.json", {**base, "cocycle": cand})
        result = yield Op(key, run_cli(["extend", "--input", path]))
        if faulty and result[0] == 1:
            # the known fault: the extension gate rejects the candidate.
            # Once it is mended, extend exits 0 and the chain goes on.
            err = _cli_json(result, key, code=1).get("error", "")
            require(err.startswith(EXTEND_FAULT), f"{key}: unexpected failure {err!r}")
            ctx.failed += 1
            continue
        extension = _cli_json(result, key)["extension"]
        want = cocycle_values(cand)

        key = f"extract {inst.name} c{i}"
        path = ctx.write(f"{tag}-c{i}-extension.json", {**base, "extension": extension})
        got = _cli_json((yield Op(key, run_cli(["extract", "--input", path]))), key)["cocycle"]
        require(cocycle_values(got) == want, f"{key}: canonical section does not return the input")

        key = f"extract-perturbed {inst.name} c{i}"
        section = inputs.matrix_json(inst.gamma) + inputs.matrix_json(
            [[int(r == c) for c in range(d)] for r in range(d)])
        path = ctx.write(f"{tag}-c{i}-section.json",
                         {**base, "extension": extension, "section": section})
        got = _cli_json((yield Op(key, run_cli(["extract", "--input", path]))), key)["cocycle"]
        require(cocycle_values(got) == cocycle_sum(want, coboundary(base, inst.gamma)),
                f"{key}: moving the section by γ does not shift the cocycle by D(γ)")

        key = f"cocycle-check {inst.name} c{i}"
        path = ctx.write(f"{tag}-c{i}-shifted.json", {**base, "cocycle": got})
        ok = _cli_json((yield Op(key, run_cli(["cocycle-check", "--input", path]))), key)
        require(ok["ok"] is True, f"{key}: shifted cocycle rejected")

    key = f"transport {inst.name}"
    psis = [Matrix.from_rows(p) for p in inst.psis]
    dfm = yield Op(key, lambda: defm.transport_constant(OD, psis, DEFORMATION_ORDER))
    deformation = _deformation_json(dfm)
    path = ctx.write(f"{tag}-deformation.json", {**base, "deformation": deformation})

    key = f"deform-check {inst.name}"
    report = _cli_json((yield Op(key, run_cli(["deform-check", "--input", path]))), key)
    require(report["ok"] is True, f"{key}: transported deformation rejected")

    key = f"infinitesimal {inst.name}"
    inf = _cli_json((yield Op(key, run_cli(["infinitesimal", "--input", path, "--order", "1"]))),
                    key)
    require(inf["cocycle_ok"] is True
            and cocycle_values(inf["cocycle"]) == coboundary(base, inst.psis[0]),
            f"{key}: infinitesimal is not the coboundary of ψ1")

    key = f"equivalence-check {inst.name}"
    psi = [[[int(r == c) for c in range(d)] for r in range(d)]] + inst.psis
    path = ctx.write(f"{tag}-equivalence.json", {
        **base,
        "deformation": _constant_json(base, DEFORMATION_ORDER),
        "deformation2": deformation,
        "equivalence": {"order": DEFORMATION_ORDER, "psi": [inputs.matrix_json(p) for p in psi]},
    })
    eq = _cli_json((yield Op(key, run_cli(["equivalence-check", "--input", path]))), key)
    require(eq["ok"] is True
            and fractions_of(eq["certificate_psi1"]) == fractions_of(inst.psis[0]),
            f"{key}: certificate is not the chosen ψ1")


# ---------------------------------------------------------------------------
# assembly


def _small_matrix(rng: random.Random, d: int) -> list:
    # signs only: a seed-chosen zero pattern would change the work per seed
    return [[rng.choice((1, -1)) for _ in range(d)] for _ in range(d)]


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from the seed (bundles not yet written)."""
    rng = random.Random(seed)
    dias = inputs.dialgebra_fixtures()
    if name == "plain-ladder":
        # the zero algebra is its own copy in every basis, and a copy of
        # the one-dimensional scalar algebra only rescales its basis vector
        insts = inputs.instances(dias, rng, skip={"scalar", "zero"})
        return Workload(name, insts, lambda ctx: [
            plain_chain(ctx, inst, n)
            for inst in insts for n in range(plain_top(inst.algebra) + 1)])
    ods = inputs.oriented_fixtures(dias)
    if name == "equivariant-bicomplex":
        # the zero and scalar trivial-group fixtures are their own copies
        insts = inputs.instances(ods, rng, skip={"scalar-trivial", "zero-trivial"})
        return Workload(name, insts, lambda ctx: [
            equivariant_chain(ctx, inst, n)
            for inst in insts for n in range(equivariant_top(inst) + 1)])
    if name == "degree1-roundtrip":
        chosen = {k: ods[k] for k in
                  ("dual-sign", "dual-z2", "dual-s3", "dual-trivial", "split-trivial", FAULTY_SOURCE)}
        # copies of the faulty fixture are left out: how many of their
        # candidates the gate accepts depends on the basis change
        insts = inputs.instances(chosen, rng, skip={FAULTY_SOURCE})
        for inst in insts:
            d = inst.algebra.dim
            inst.gamma = _small_matrix(rng, d)
            inst.psis = [_small_matrix(rng, d) for _ in range(DEFORMATION_ORDER)]
        return Workload(name, insts, lambda ctx: [degree1_chain(ctx, inst) for inst in insts])
    raise ValueError(f"unknown workload {name!r}")

