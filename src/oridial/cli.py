"""Command-line front end.

Reads JSON input bundles, dispatches to the engine, and emits
deterministic JSON (or a human-readable summary with --pretty).  Exit
codes: 0 all checks pass / result computed, 1 semantic failure or
resource cap, 2 malformed input.

Bundle sections (all optional, each command states what it needs):

    "dialgebra":   {"dim": d, "left": [[[..]]], "right": [[[..]]]}
    "group":       {"order": m, "table": [[..]], "epsilon": [1, -1, ..]}
    "action":      [one d x d matrix per group element]
    "cocycle":     {"alpha": [per-element d x d matrix],
                    "beta_left": tensor, "beta_right": tensor}
    "extension":   {"dialgebra": 2d-dim dialgebra, "action": [...],
                    "inclusion": 2d x d matrix, "projection": d x 2d matrix}
    "section":     2d x d matrix (optional; canonical section by default)
    "deformation": {"order": N, "ml": [tensor ..], "mr": [tensor ..],
                    "phi": [[per-element matrix ..] ..]}
    "deformation2": second deformation for equivalence checking
    "equivalence": {"order": N, "psi": [matrix ..]}
    "config":      {"max_degree": .., "max_level": ..}

Rationals are written "p" or "p/q" in lowest terms; structure-constant
tensors are indexed T[i][j][k] = coefficient of e_k in e_i ∘ e_j.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cohomology as coh
from . import deformations as defm
from . import extensions as ext
from .dialgebra import Dialgebra, check_axioms
from .linalg import Matrix, format_rational, parse_rational
from .oriented import (
    OrientedDialgebra,
    OrientedGroup,
    check_oriented_dialgebra,
    check_oriented_group,
)
from .trees import ResourceLimitError, enumerate_trees


class BundleError(ValueError):
    """Malformed input: wrong JSON shape, bad rationals, inconsistent dims."""


# ---------------------------------------------------------------------------
# parsing


def _parse_matrix(data, rows, cols, what) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise BundleError(f"{what}: expected {rows} rows")
    flat = []
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise BundleError(f"{what}: expected rows of length {cols}")
        for x in row:
            try:
                flat.append(parse_rational(x))
            except ValueError as exc:
                raise BundleError(f"{what}: {exc}") from exc
    return Matrix(rows, cols, flat)


def _parse_tensor(data, dim, what):
    if not isinstance(data, list) or len(data) != dim:
        raise BundleError(f"{what}: expected {dim} slices")
    out = []
    for plane in data:
        if not isinstance(plane, list) or len(plane) != dim:
            raise BundleError(f"{what}: expected {dim} rows per slice")
        out_plane = []
        for row in plane:
            if not isinstance(row, list) or len(row) != dim:
                raise BundleError(f"{what}: expected rows of length {dim}")
            try:
                out_plane.append([parse_rational(x) for x in row])
            except ValueError as exc:
                raise BundleError(f"{what}: {exc}") from exc
        out.append(out_plane)
    return out


def _parse_dialgebra(data, config) -> Dialgebra:
    try:
        dim = int(data["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"dialgebra: bad or missing dim: {exc}") from exc
    if not 1 <= dim <= config.max_dim:
        raise BundleError(f"dialgebra: dim {dim} outside 1..{config.max_dim}")
    left = _parse_tensor(data.get("left"), dim, "dialgebra.left")
    right = _parse_tensor(data.get("right"), dim, "dialgebra.right")
    return Dialgebra(dim, left, right)


def _is_int(v) -> bool:
    """A JSON integer: an int that is not a boolean."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_group(data, config) -> OrientedGroup:
    order = data.get("order") if isinstance(data, dict) else None
    if not _is_int(order):
        raise BundleError(f"group: order must be an integer, got {order!r}")
    if not 1 <= order <= config.max_group:
        raise BundleError(f"group: order {order} outside 1..{config.max_group}")
    table = data.get("table")
    if (not isinstance(table, list) or len(table) != order
            or any(not isinstance(r, list) or len(r) != order for r in table)):
        raise BundleError(f"group: table must be {order}x{order}")
    for row in table:
        for v in row:
            if not _is_int(v) or not 0 <= v < order:
                raise BundleError(f"group: table entry {v!r} is not an element index")
    epsilon = data.get("epsilon")
    if not isinstance(epsilon, list) or len(epsilon) != order:
        raise BundleError(f"group: epsilon must list {order} signs")
    if any(not _is_int(e) or e not in (1, -1) for e in epsilon):
        raise BundleError("group: epsilon entries must be 1 or -1")
    return OrientedGroup(table, epsilon)


def _parse_oriented(bundle, config) -> OrientedDialgebra:
    for key in ("dialgebra", "group", "action"):
        if key not in bundle:
            raise BundleError(f"bundle needs a {key!r} section for this command")
    base = _parse_dialgebra(bundle["dialgebra"], config)
    group = _parse_group(bundle["group"], config)
    action_data = bundle["action"]
    if not isinstance(action_data, list) or len(action_data) != group.order:
        raise BundleError("action: need one matrix per group element")
    action = [_parse_matrix(m, base.dim, base.dim, f"action[{g}]")
              for g, m in enumerate(action_data)]
    return OrientedDialgebra(base, group, action)


def _parse_cocycle(data, OD):
    d = OD.dim
    alpha_data = data.get("alpha")
    if not isinstance(alpha_data, list) or len(alpha_data) != OD.group.order:
        raise BundleError("cocycle.alpha: need one matrix per group element")
    alpha = [_parse_matrix(m, d, d, f"cocycle.alpha[{g}]") for g, m in enumerate(alpha_data)]
    beta_l = _parse_tensor(data.get("beta_left"), d, "cocycle.beta_left")
    beta_r = _parse_tensor(data.get("beta_right"), d, "cocycle.beta_right")
    return alpha, (beta_l, beta_r)


def _parse_extension(bundle, OD, config) -> ext.SingularExtension:
    data = bundle.get("extension")
    if data is None:
        raise BundleError("bundle needs an 'extension' section for this command")
    d = OD.dim
    if "dialgebra" not in data:
        raise BundleError("extension: missing middle-term dialgebra")
    base2 = _parse_dialgebra(data["dialgebra"], _widen(config))
    if base2.dim != 2 * d:
        raise BundleError(f"extension middle term must have dimension {2 * d}")
    action_data = data.get("action")
    if not isinstance(action_data, list) or len(action_data) != OD.group.order:
        raise BundleError("extension.action: need one matrix per group element")
    action = [_parse_matrix(m, 2 * d, 2 * d, f"extension.action[{g}]")
              for g, m in enumerate(action_data)]
    total = OrientedDialgebra(base2, OD.group, action)
    inclusion = _parse_matrix(data.get("inclusion"), 2 * d, d, "extension.inclusion")
    projection = _parse_matrix(data.get("projection"), d, 2 * d, "extension.projection")
    return ext.SingularExtension(total, inclusion, projection)


def _widen(config: coh.EngineConfig) -> coh.EngineConfig:
    # extensions live in dimension 2d, above the cap for fresh input
    return coh.EngineConfig(config.max_level, config.max_degree,
                            config.max_group, 2 * config.max_dim,
                            config.max_dense_cells)


def _parse_deformation(data, OD) -> defm.TruncatedDeformation:
    d = OD.dim
    try:
        order = int(data["order"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"deformation: bad or missing order: {exc}") from exc
    if order < 1:
        raise BundleError("deformation: order must be >= 1")
    ml = data.get("ml")
    mr = data.get("mr")
    phi = data.get("phi")
    for name, arr in (("ml", ml), ("mr", mr), ("phi", phi)):
        if not isinstance(arr, list) or len(arr) != order + 1:
            raise BundleError(f"deformation.{name}: need order+1 = {order + 1} entries")
    mlt = [_parse_tensor(t, d, f"deformation.ml[{i}]") for i, t in enumerate(ml)]
    mrt = [_parse_tensor(t, d, f"deformation.mr[{i}]") for i, t in enumerate(mr)]
    phis = []
    for i, per_g in enumerate(phi):
        if not isinstance(per_g, list) or len(per_g) != OD.group.order:
            raise BundleError(f"deformation.phi[{i}]: need one matrix per group element")
        phis.append([_parse_matrix(m, d, d, f"deformation.phi[{i}][{g}]")
                     for g, m in enumerate(per_g)])
    return defm.TruncatedDeformation(order, mlt, mrt, phis)


def _parse_equivalence(data, OD) -> defm.DeformationEquivalence:
    d = OD.dim
    try:
        order = int(data["order"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"equivalence: bad or missing order: {exc}") from exc
    psi = data.get("psi")
    if not isinstance(psi, list) or len(psi) != order + 1:
        raise BundleError(f"equivalence.psi: need order+1 = {order + 1} matrices")
    mats = [_parse_matrix(m, d, d, f"equivalence.psi[{i}]") for i, m in enumerate(psi)]
    try:
        return defm.DeformationEquivalence(order, mats)
    except ValueError as exc:
        raise BundleError(f"equivalence: {exc}") from exc


def _parse_config(bundle) -> coh.EngineConfig:
    data = bundle.get("config", {})
    if not isinstance(data, dict):
        raise BundleError("config must be an object")
    base = coh.DEFAULT_CONFIG
    try:
        return coh.EngineConfig(
            max_level=int(data.get("max_level", base.max_level)),
            max_degree=int(data.get("max_degree", base.max_degree)),
            max_group=int(data.get("max_group", base.max_group)),
            max_dim=int(data.get("max_dim", base.max_dim)),
            max_dense_cells=int(data.get("max_dense_cells", base.max_dense_cells)),
        )
    except (TypeError, ValueError) as exc:
        raise BundleError(f"config: {exc}") from exc


def load_bundle(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BundleError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(bundle, dict):
        raise BundleError("bundle must be a JSON object")
    return bundle


# ---------------------------------------------------------------------------
# emission


def _emit_scalar(x) -> str:
    return format_rational(x)


def _emit_vector(v) -> list:
    return [_emit_scalar(x) for x in v]


def _emit_matrix(m: Matrix) -> list:
    return [[_emit_scalar(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _emit_tensor(t) -> list:
    return [[[_emit_scalar(x) for x in row] for row in plane] for plane in t]


def _jsonify(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, Fraction):
        return _emit_scalar(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


def _emit_cocycle(alpha, beta) -> dict:
    return {
        "alpha": [_emit_matrix(m) for m in alpha],
        "beta_left": _emit_tensor(beta[0]),
        "beta_right": _emit_tensor(beta[1]),
    }


def _check_payload(reports: dict) -> tuple[dict, bool]:
    checks = []
    for source, report in reports.items():
        for item in report:
            checks.append({
                "check": f"{source}: {item['name']}",
                "ok": item["ok"],
                "witness": _jsonify(item["witness"]),
            })
    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks}, ok


def _items(report) -> list[dict]:
    out = []
    for item in report.items:
        out.append({"name": item.name, "ok": item.ok, "witness": item.witness})
    return out


def _axiom_items(report) -> list[dict]:
    out = []
    for c in report.checks:
        out.append({"name": c.name, "ok": c.ok, "witness": c.witness})
    return out


def _deform_items(report) -> list[dict]:
    out = []
    for c in report.checks:
        witness = None if c.ok else [c.power, list(c.witness or ())]
        out.append({"name": c.clause, "ok": c.ok, "witness": witness})
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_trees(args) -> tuple:
    lines = [json.dumps(list(t.word)) for t in enumerate_trees(args.n)]
    return {"_lines": lines}, 0


def cmd_check(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    reports = {}
    OD = None
    if "dialgebra" in bundle:
        D = _parse_dialgebra(bundle["dialgebra"], config)
        reports["dialgebra axioms"] = _axiom_items(check_axioms(D))
    if "group" in bundle:
        G = _parse_group(bundle["group"], config)
        reports["oriented group"] = _items(check_oriented_group(G))
    if "group" in bundle and "action" in bundle and "dialgebra" in bundle:
        OD = _parse_oriented(bundle, config)
        reports["oriented dialgebra"] = _items(check_oriented_dialgebra(OD))
    if "cocycle" in bundle:
        if OD is None:
            raise BundleError("cocycle checking needs dialgebra, group and action sections")
        alpha, beta = _parse_cocycle(bundle["cocycle"], OD)
        rep = coh.is_degree1_cocycle(OD, alpha, beta)
        reports["degree-1 cocycle"] = [{
            "name": "explicit cocycle equations",
            "ok": rep.ok,
            "witness": _residual_witness(rep),
        }]
    if "extension" in bundle:
        if OD is None:
            raise BundleError("extension checking needs dialgebra, group and action sections")
        E = _parse_extension(bundle, OD, config)
        reports["singular extension"] = _items(ext.check_extension(OD, E))
    if "deformation" in bundle:
        if OD is None:
            raise BundleError("deformation checking needs dialgebra, group and action sections")
        dfm = _parse_deformation(bundle["deformation"], OD)
        reports["deformation"] = _deform_items(defm.check_deformation(OD, dfm))
    if not reports:
        raise BundleError("bundle contains nothing to check")
    payload, ok = _check_payload(reports)
    return payload, 0 if ok else 1


def _residual_witness(rep):
    if rep.ok:
        return None
    label, value = rep.residuals[0]
    return [list(label), _emit_scalar(value)]


def _cohomology_payload(result) -> dict:
    return {
        "dim": result.dim,
        "kernel_dim": result.kernel_dim,
        "image_rank": result.image_rank,
        "representatives": [_emit_vector(v) for v in result.representatives],
    }


def cmd_cohomology(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    if "dialgebra" not in bundle:
        raise BundleError("bundle needs a 'dialgebra' section")
    D = _parse_dialgebra(bundle["dialgebra"], config)
    report = check_axioms(D)
    if not report.ok:
        return {"error": "dialgebra axioms fail", "checks": _axiom_items(report)}, 1
    result = coh.dialgebra_cohomology(D, args.n, config)
    return _cohomology_payload(result), 0


def cmd_equivariant(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    report = check_oriented_dialgebra(OD)
    if not report.ok:
        return {"error": "oriented dialgebra axioms fail", "checks": _items(report)}, 1
    result = coh.equivariant_cohomology(OD, args.n, config)
    return _cohomology_payload(result), 0


def cmd_cocycle_check(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    if "cocycle" not in bundle:
        raise BundleError("bundle needs a 'cocycle' section")
    alpha, beta = _parse_cocycle(bundle["cocycle"], OD)
    rep = coh.is_degree1_cocycle(OD, alpha, beta)
    payload = {
        "ok": rep.ok,
        "nonzero_residuals": [[list(label), _emit_scalar(v)] for label, v in rep.residuals[:16]],
    }
    return payload, 0 if rep.ok else 1


def cmd_extend(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    if "cocycle" not in bundle:
        raise BundleError("bundle needs a 'cocycle' section")
    alpha, beta = _parse_cocycle(bundle["cocycle"], OD)
    try:
        E = ext.build_extension(OD, alpha, beta)
    except ext.NotCocycleError as exc:
        return {"error": str(exc)}, 1
    payload = {
        "extension": {
            "dialgebra": {
                "dim": E.total.dim,
                "left": _emit_tensor(E.total.base.left),
                "right": _emit_tensor(E.total.base.right),
            },
            "action": [_emit_matrix(m) for m in E.total.action],
            "inclusion": _emit_matrix(E.inclusion),
            "projection": _emit_matrix(E.projection),
        }
    }
    return payload, 0


def cmd_extract(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    E = _parse_extension(bundle, OD, config)
    if "section" in bundle:
        section = _parse_matrix(bundle["section"], 2 * OD.dim, OD.dim, "section")
    else:
        section = ext.canonical_section(E)
    try:
        alpha, beta = ext.extract_cocycle(OD, E, section)
    except ext.NotSectionError as exc:
        return {"error": f"NotSection: {exc}"}, 1
    return {"cocycle": _emit_cocycle(alpha, beta)}, 0


def cmd_deform_check(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    if "deformation" not in bundle:
        raise BundleError("bundle needs a 'deformation' section")
    dfm = _parse_deformation(bundle["deformation"], OD)
    report = defm.check_deformation(OD, dfm)
    return {"ok": report.ok, "checks": _deform_items(report)}, 0 if report.ok else 1


def cmd_infinitesimal(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    if "deformation" not in bundle:
        raise BundleError("bundle needs a 'deformation' section")
    dfm = _parse_deformation(bundle["deformation"], OD)
    try:
        inf = defm.infinitesimal(OD, dfm, args.order)
    except defm.PrecedingTermsNonzeroError as exc:
        return {"error": f"PrecedingTermsNonzero: {exc}"}, 1
    rep = defm.infinitesimal_cocycle_report(OD, inf)
    payload = {
        "order": inf.order,
        "cocycle": _emit_cocycle(inf.theta, (inf.m_left, inf.m_right)),
        "cocycle_ok": rep.ok,
    }
    return payload, 0 if rep.ok else 1


def cmd_equivalence_check(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    for key in ("deformation", "deformation2", "equivalence"):
        if key not in bundle:
            raise BundleError(f"bundle needs a {key!r} section")
    def1 = _parse_deformation(bundle["deformation"], OD)
    def2 = _parse_deformation(bundle["deformation2"], OD)
    eq = _parse_equivalence(bundle["equivalence"], OD)
    report = defm.check_equivalence(OD, def1, def2, eq)
    payload = {"ok": report.ok, "checks": _deform_items(report)}
    if report.ok:
        psi1 = defm.infinitesimals_cohomologous(OD, def1, def2, eq)
        payload["certificate_psi1"] = _emit_matrix(psi1)
    return payload, 0 if report.ok else 1


def cmd_rigidity(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    report = check_oriented_dialgebra(OD)
    if not report.ok:
        return {"error": "oriented dialgebra axioms fail", "checks": _items(report)}, 1
    rig = defm.rigidity_probe(OD, config)
    payload = {
        "dim": rig.dim,
        "obstruction_trivial": rig.obstruction_trivial,
        "candidates": [_emit_cocycle(alpha, beta) for alpha, beta in rig.candidates],
    }
    return payload, 0


# ---------------------------------------------------------------------------
# driver


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oridial",
        description="exact cohomology, extensions and deformations of oriented dialgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True, **extra):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True, help="input bundle (JSON)")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="compact JSON output (default)")
        fmt.add_argument("--pretty", action="store_true", help="indented JSON output")
        p.set_defaults(fn=fn)
        return p

    add("trees", cmd_trees, needs_input=False,
        **{"--n": dict(type=int, required=True, help="tree level")})
    add("check", cmd_check)
    add("cohomology", cmd_cohomology, **{"--n": dict(type=int, required=True)})
    add("equivariant-cohomology", cmd_equivariant, **{"--n": dict(type=int, required=True)})
    add("cocycle-check", cmd_cocycle_check)
    add("extend", cmd_extend)
    add("extract", cmd_extract)
    add("deform-check", cmd_deform_check)
    add("infinitesimal", cmd_infinitesimal, **{"--order": dict(type=int, default=1)})
    add("equivalence-check", cmd_equivalence_check)
    add("rigidity", cmd_rigidity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 0) < 0:
            raise BundleError(f"--n must be non-negative, got {args.n}")
        payload, code = args.fn(args)
    except BundleError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(json.dumps({"error": f"resource cap: {exc}"}, sort_keys=True), file=sys.stderr)
        return 1
    except (ValueError, defm.CertificateFailureError) as exc:
        # engine-level rejection of semantically bad input (non-cocycles,
        # incoherent structures, mismatched orders, ...)
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}, sort_keys=True),
              file=sys.stderr)
        return 1
    if "_lines" in payload:
        for line in payload["_lines"]:
            print(line)
        return code
    if args.pretty:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
