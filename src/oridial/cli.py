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
    "config":      {"max_level": 6, "max_degree": 3, "max_group": 24,
                    "max_dim": 4, "max_cochain_dim": 32768}

A section written {..} above must be a JSON object, and a key not listed
above is malformed.  The "config" fields
are the engine's resource caps (``cohomology.EngineConfig``, defaults
shown), each optional and a JSON integer; an unknown field is malformed.

Rationals are written "p" or "p/q" in lowest terms; structure-constant
tensors are indexed T[i][j][k] = coefficient of e_k in e_i ∘ e_j.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import cohomology as coh
from . import deformations as defm
from . import extensions as ext
from .dialgebra import Check, Dialgebra, Report, check_axioms
from .linalg import Matrix, format_rational, parse_rational
from .oriented import (
    OrientedDialgebra,
    OrientedGroup,
    check_oriented_dialgebra,
    check_oriented_group,
)
from .trees import ResourceLimitError, enumerate_trees


# the sections of the docstring above; any other top-level key is malformed,
# so a misspelled section cannot be skipped without a word
BUNDLE_KEYS = frozenset({"dialgebra", "group", "action", "cocycle", "extension", "section",
                         "deformation", "deformation2", "equivalence", "config"})


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
    dim = _int_field(data, "dim", "dialgebra")
    if not 1 <= dim <= config.max_dim:
        raise BundleError(f"dialgebra: dim {dim} outside 1..{config.max_dim}")
    left = _parse_tensor(data.get("left"), dim, "dialgebra.left")
    right = _parse_tensor(data.get("right"), dim, "dialgebra.right")
    return Dialgebra(dim, left, right)


def _is_int(v) -> bool:
    """A JSON integer: an int that is not a boolean."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_field(data, key: str, what: str, default=None) -> int:
    """``data[key]`` as a JSON integer; a float, string or boolean is malformed."""
    value = data.get(key, default) if isinstance(data, dict) else None
    if not _is_int(value):
        raise BundleError(f"{what}: {key} must be an integer, got {value!r}")
    return value


def _parse_group(data, config) -> OrientedGroup:
    order = _int_field(data, "order", "group")
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


def _section(bundle, key: str) -> dict:
    """The object section ``bundle[key]``; missing or not an object is malformed."""
    if key not in bundle:
        raise BundleError(f"bundle needs a {key!r} section for this command")
    data = bundle[key]
    if not isinstance(data, dict):
        raise BundleError(f"{key}: section must be a JSON object")
    return data


def _parse_oriented(bundle, config) -> OrientedDialgebra:
    base = _parse_dialgebra(_section(bundle, "dialgebra"), config)
    group = _parse_group(_section(bundle, "group"), config)
    action_data = bundle.get("action")
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
    data = _section(bundle, "extension")
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
    return dataclasses.replace(config, max_dim=2 * config.max_dim)


def _parse_deformation(data, OD) -> defm.TruncatedDeformation:
    d = OD.dim
    order = _int_field(data, "order", "deformation")
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
    order = _int_field(data, "order", "equivalence")
    if order < 1:
        raise BundleError("equivalence: order must be >= 1")
    psi = data.get("psi")
    if not isinstance(psi, list) or len(psi) != order + 1:
        raise BundleError(f"equivalence.psi: need order+1 = {order + 1} matrices")
    mats = [_parse_matrix(m, d, d, f"equivalence.psi[{i}]") for i, m in enumerate(psi)]
    try:
        return defm.DeformationEquivalence(order, mats)
    except ValueError as exc:
        raise BundleError(f"equivalence: {exc}") from exc


def _parse_config(bundle) -> coh.EngineConfig:
    data = _section(bundle, "config") if "config" in bundle else {}
    names = [f.name for f in dataclasses.fields(coh.EngineConfig)]
    unknown = next((key for key in data if key not in names), None)
    if unknown is not None:
        raise BundleError(f"config: unknown field {unknown!r}")
    return coh.EngineConfig(**{
        name: _int_field(data, name, "config", getattr(coh.DEFAULT_CONFIG, name))
        for name in names})


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
    unknown = next((key for key in bundle if key not in BUNDLE_KEYS), None)
    if unknown is not None:
        raise BundleError(f"unknown bundle section {unknown!r}")
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


def _emit_checks(report) -> list[dict]:
    return [{"name": c.name, "ok": c.ok, "witness": _jsonify(c.witness)} for c in report.checks]


def _emit_residual(residual) -> list:
    label, value = residual
    return [list(label), _emit_scalar(value)]


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
        D = _parse_dialgebra(_section(bundle, "dialgebra"), config)
        reports["dialgebra axioms"] = check_axioms(D)
    if "group" in bundle:
        G = _parse_group(_section(bundle, "group"), config)
        reports["oriented group"] = check_oriented_group(G)
    if "group" in bundle and "action" in bundle and "dialgebra" in bundle:
        OD = _parse_oriented(bundle, config)
        reports["oriented dialgebra"] = check_oriented_dialgebra(OD)
    if "cocycle" in bundle:
        if OD is None:
            raise BundleError("cocycle checking needs dialgebra, group and action sections")
        alpha, beta = _parse_cocycle(_section(bundle, "cocycle"), OD)
        (c,) = coh.is_degree1_cocycle(OD, alpha, beta).checks
        # the payload names the first nonzero residual only
        witness = None if c.ok else _emit_residual(c.witness[0])
        reports["degree-1 cocycle"] = Report([Check(c.name, c.ok, witness)])
    if "extension" in bundle:
        if OD is None:
            raise BundleError("extension checking needs dialgebra, group and action sections")
        E = _parse_extension(bundle, OD, config)
        reports["singular extension"] = ext.check_extension(OD, E)
    if "deformation" in bundle:
        if OD is None:
            raise BundleError("deformation checking needs dialgebra, group and action sections")
        dfm = _parse_deformation(_section(bundle, "deformation"), OD)
        reports["deformation"] = defm.check_deformation(OD, dfm)
    if not reports:
        raise BundleError("bundle contains nothing to check")
    ok = all(report.ok for report in reports.values())
    checks = [{"check": f"{label}: {c.name}", "ok": c.ok, "witness": _jsonify(c.witness)}
              for label, report in reports.items() for c in report.checks]
    return {"ok": ok, "checks": checks}, 0 if ok else 1


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
    D = _parse_dialgebra(_section(bundle, "dialgebra"), config)
    report = check_axioms(D)
    if not report.ok:
        return {"error": "dialgebra axioms fail", "checks": _emit_checks(report)}, 1
    result = coh.dialgebra_cohomology(D, args.n, config)
    return _cohomology_payload(result), 0


def cmd_equivariant(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    report = check_oriented_dialgebra(OD)
    if not report.ok:
        return {"error": "oriented dialgebra axioms fail", "checks": _emit_checks(report)}, 1
    result = coh.equivariant_cohomology(OD, args.n, config)
    return _cohomology_payload(result), 0


def cmd_cocycle_check(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    alpha, beta = _parse_cocycle(_section(bundle, "cocycle"), OD)
    (c,) = coh.is_degree1_cocycle(OD, alpha, beta).checks
    payload = {
        "ok": c.ok,
        "nonzero_residuals": [_emit_residual(r) for r in (c.witness or [])[:16]],
    }
    return payload, 0 if c.ok else 1


def cmd_extend(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    alpha, beta = _parse_cocycle(_section(bundle, "cocycle"), OD)
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
    dfm = _parse_deformation(_section(bundle, "deformation"), OD)
    report = defm.check_deformation(OD, dfm)
    return {"ok": report.ok, "checks": _emit_checks(report)}, 0 if report.ok else 1


def cmd_infinitesimal(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    OD = _parse_oriented(bundle, config)
    dfm = _parse_deformation(_section(bundle, "deformation"), OD)
    try:
        inf = defm.infinitesimal(OD, dfm, args.order)
    except defm.PrecedingTermsNonzeroError as exc:
        return {"error": f"PrecedingTermsNonzero: {exc}"}, 1
    rep = coh.is_degree1_cocycle(OD, *inf.as_pair())
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
    def1 = _parse_deformation(_section(bundle, "deformation"), OD)
    def2 = _parse_deformation(_section(bundle, "deformation2"), OD)
    eq = _parse_equivalence(_section(bundle, "equivalence"), OD)
    report = defm.check_equivalence(OD, def1, def2, eq)
    payload = {"ok": report.ok, "checks": _emit_checks(report)}
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
        return {"error": "oriented dialgebra axioms fail", "checks": _emit_checks(report)}, 1
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
