"""Command-line front end.

Reads JSON input bundles, dispatches to the engine, and emits
deterministic JSON, indented with --pretty.  Exit codes: 0 all checks
pass / result computed, 1 semantic failure or resource cap, 2 malformed
input.

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
    "config":      {"max_group": 24, "max_dim": 4, "max_cochain_dim": 32768}

A section written {..} above must be a JSON object, and a key not listed
above is malformed.  The "config" fields are the engine's resource caps
(``cohomology.EngineConfig``, defaults shown), each optional and a JSON
integer; an unknown field is malformed.

Rationals are read as "p" or "p/q" with any q > 0 ("3/6" is accepted)
and always written in lowest terms; structure-constant tensors are
indexed T[i][j][k] = coefficient of e_k in e_i ∘ e_j.  An array of
another shape is malformed, and the error names the path of the
offending list, e.g. "dialgebra.left[1]: expected a list of 2 entries".
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import cohomology as coh
from . import deformations as defm
from .deformations import MAX_ORDER
from . import extensions as ext
from .dialgebra import Check, Dialgebra, Report, check_axioms
from .linalg import Matrix, format_rational, parse_rational
from .oriented import (
    NoInverseError,
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


class Refused(Exception):
    """Input failing axioms the command needs: exit 1, its payload on stdout."""


# ---------------------------------------------------------------------------
# parsing


def _rationals(data, shape, what):
    """``data`` as nested lists of rationals, ``shape`` giving each level's length.

    Every level must be a JSON list of its length; an error starts with the
    path of the offending list, e.g. ``dialgebra.left[1]``.
    """
    n, *inner = shape
    if not isinstance(data, list) or len(data) != n:
        raise BundleError(f"{what}: expected a list of {n} entries")
    if inner:
        return [_rationals(x, inner, f"{what}[{i}]") for i, x in enumerate(data)]
    try:
        return [parse_rational(x) for x in data]
    except ValueError as exc:
        raise BundleError(f"{what}: {exc}") from exc


def _parse_matrix(data, rows, cols, what) -> Matrix:
    return Matrix.from_rows(_rationals(data, (rows, cols), what))


def _per_element(data, count: int, dim: int, what: str) -> list[Matrix]:
    """``count`` dim x dim matrices: one per group element, or one per power of t."""
    return [Matrix.from_rows(m) for m in _rationals(data, (count, dim, dim), what)]


def _parse_dialgebra(data, max_dim: int, what="dialgebra") -> Dialgebra:
    dim = _int_field(data, "dim", what)
    if not 1 <= dim <= max_dim:
        raise BundleError(f"{what}: dim {dim} outside 1..{max_dim}")
    cube = (dim, dim, dim)
    left = _rationals(data.get("left"), cube, f"{what}.left")
    right = _rationals(data.get("right"), cube, f"{what}.right")
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


def _parse_oriented(bundle, base: Dialgebra, group: OrientedGroup) -> OrientedDialgebra:
    action = _per_element(bundle.get("action"), group.order, base.dim, "action")
    return OrientedDialgebra(base, group, action)


def _parse_cocycle(bundle, OD):
    data = _section(bundle, "cocycle")
    d = OD.dim
    alpha = _per_element(data.get("alpha"), OD.group.order, d, "cocycle.alpha")
    beta_l = _rationals(data.get("beta_left"), (d, d, d), "cocycle.beta_left")
    beta_r = _rationals(data.get("beta_right"), (d, d, d), "cocycle.beta_right")
    return alpha, (beta_l, beta_r)


def _parse_extension(bundle, OD) -> ext.SingularExtension:
    data = _section(bundle, "extension")
    d = OD.dim
    if "dialgebra" not in data:
        raise BundleError("extension: missing middle-term dialgebra")
    base2 = _parse_dialgebra(data["dialgebra"], 2 * d, "extension.dialgebra")
    if base2.dim != 2 * d:
        raise BundleError(f"extension middle term must have dimension {2 * d}")
    action = _per_element(data.get("action"), OD.group.order, 2 * d, "extension.action")
    total = OrientedDialgebra(base2, OD.group, action)
    inclusion = _parse_matrix(data.get("inclusion"), 2 * d, d, "extension.inclusion")
    projection = _parse_matrix(data.get("projection"), d, 2 * d, "extension.projection")
    return ext.SingularExtension(total, inclusion, projection)


def _order(data, what: str) -> int:
    """The section's order, refused outside 1..MAX_ORDER before any array is read."""
    order = _int_field(data, "order", what)
    if order < 1:
        raise BundleError(f"{what}: order must be >= 1")
    if order > MAX_ORDER:
        raise BundleError(f"{what}: order {order} exceeds cap {MAX_ORDER}")
    return order


def _parse_deformation(bundle, OD, what="deformation") -> defm.TruncatedDeformation:
    data = _section(bundle, what)
    d = OD.dim
    order = _order(data, what)
    mlt, mrt = (_rationals(data.get(key), (order + 1, d, d, d), f"{what}.{key}")
                for key in ("ml", "mr"))
    phi = _rationals(data.get("phi"), (order + 1, OD.group.order, d, d), f"{what}.phi")
    return defm.TruncatedDeformation(order, mlt, mrt,
                                     [[Matrix.from_rows(m) for m in per_g] for per_g in phi])


def _parse_equivalence(bundle, OD) -> defm.DeformationEquivalence:
    data = _section(bundle, "equivalence")
    d = OD.dim
    order = _order(data, "equivalence")
    mats = _per_element(data.get("psi"), order + 1, d, "equivalence.psi")
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


def _emit(x):
    """Rationals as canonical strings, through nested lists and matrices."""
    if isinstance(x, Matrix):
        x = x.to_rows()
    if isinstance(x, list):
        return [_emit(y) for y in x]
    return format_rational(x)


def _emit_cocycle(alpha, beta) -> dict:
    return {"alpha": _emit(alpha), "beta_left": _emit(beta[0]), "beta_right": _emit(beta[1])}


def _emit_checks(report) -> list[dict]:
    return [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in report.checks]


def _emit_residual(residual) -> list:
    label, value = residual
    return [list(label), format_rational(value)]


# ---------------------------------------------------------------------------
# commands


def _load(args, *parsers) -> tuple:
    """The config, oriented dialgebra and each ``parse(bundle, OD)`` of the bundle at
    ``--input``; a table failing the group axioms is refused once all of them parse."""
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    base = _parse_dialgebra(_section(bundle, "dialgebra"), config.max_dim)
    group = _parse_group(_section(bundle, "group"), config)
    OD = _parse_oriented(bundle, base, group)
    parsed = [parse(bundle, OD) for parse in parsers]
    _refuse(check_oriented_group(group), "oriented group axioms fail")
    return config, OD, *parsed


def cmd_trees(args) -> tuple:
    lines = [json.dumps(list(t.word)) for t in enumerate_trees(args.n)]
    return {"_lines": lines}, 0


def cmd_check(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    reports = {}
    D = G = OD = None
    if "dialgebra" in bundle:
        D = _parse_dialgebra(_section(bundle, "dialgebra"), config.max_dim)
        reports["dialgebra axioms"] = check_axioms(D)
    if "group" in bundle:
        G = _parse_group(_section(bundle, "group"), config)
        reports["oriented group"] = check_oriented_group(G)
    if "action" in bundle:
        for key, part in (("dialgebra", D), ("group", G)):
            if part is None:
                raise BundleError(f"action checking needs a {key!r} section")
        OD = _parse_oriented(bundle, D, G)
        reports["oriented dialgebra"] = check_oriented_dialgebra(OD)
    if "section" in bundle:
        if D is None:
            raise BundleError("section checking needs a 'dialgebra' section")
        _parse_matrix(bundle["section"], 2 * D.dim, D.dim, "section")
    needing = [key for key in ("cocycle", "extension", "deformation") if key in bundle]
    if needing and OD is None:
        raise BundleError(f"{needing[0]} checking needs dialgebra, group and action sections")
    if "cocycle" in bundle:
        alpha, beta = _parse_cocycle(bundle, OD)
        try:
            (c,) = coh.is_degree1_cocycle(OD, alpha, beta).checks
        except NoInverseError as exc:
            # the equations need g⁻¹; the witness is the element without one
            c = Check("explicit cocycle equations", False, exc.witness)
        else:
            # the payload names the first nonzero residual only
            c = Check(c.name, c.ok, None if c.ok else _emit_residual(c.witness[0]))
        reports["degree-1 cocycle"] = Report([c])
    if "extension" in bundle:
        E = _parse_extension(bundle, OD)
        reports["singular extension"] = ext.check_extension(OD, E)
    if "deformation" in bundle:
        dfm = _parse_deformation(bundle, OD)
        reports["deformation"] = defm.check_deformation(OD, dfm)
    if not reports:
        raise BundleError("bundle contains nothing to check")
    ok = all(report.ok for report in reports.values())
    checks = [{"check": f"{label}: {c.name}", "ok": c.ok, "witness": c.witness}
              for label, report in reports.items() for c in report.checks]
    return {"ok": ok, "checks": checks}, 0 if ok else 1


def _cohomology_payload(result) -> dict:
    return {
        "dim": result.dim,
        "kernel_dim": result.kernel_dim,
        "image_rank": result.image_rank,
        "representatives": _emit(result.representatives),
    }


def _refuse(report: Report, error: str) -> None:
    """Stop the command with exit 1 if ``report`` fails: ``error`` and its checks."""
    if not report.ok:
        raise Refused({"error": error, "checks": _emit_checks(report)})


def cmd_cohomology(args) -> tuple:
    bundle = load_bundle(args.input)
    config = _parse_config(bundle)
    D = _parse_dialgebra(_section(bundle, "dialgebra"), config.max_dim)
    _refuse(check_axioms(D), "dialgebra axioms fail")
    result = coh.dialgebra_cohomology(D, args.n, config)
    return _cohomology_payload(result), 0


def cmd_equivariant(args) -> tuple:
    config, OD = _load(args)
    _refuse(check_axioms(OD.base), "dialgebra axioms fail")
    _refuse(check_oriented_dialgebra(OD), "oriented dialgebra axioms fail")
    result = coh.equivariant_cohomology(OD, args.n, config)
    return _cohomology_payload(result), 0


def cmd_cocycle_check(args) -> tuple:
    _, OD, (alpha, beta) = _load(args, _parse_cocycle)
    (c,) = coh.is_degree1_cocycle(OD, alpha, beta).checks
    payload = {
        "ok": c.ok,
        "nonzero_residuals": [_emit_residual(r) for r in (c.witness or [])[:16]],
    }
    return payload, 0 if c.ok else 1


def cmd_extend(args) -> tuple:
    _, OD, (alpha, beta) = _load(args, _parse_cocycle)
    try:
        E = ext.build_extension(OD, alpha, beta)
    except (ext.NotCocycleError, ext.ExtensionInvalidError) as exc:
        return {"error": str(exc)}, 1
    payload = {
        "extension": {
            "dialgebra": {
                "dim": E.total.dim,
                "left": _emit(E.total.base.left),
                "right": _emit(E.total.base.right),
            },
            "action": _emit(E.total.action),
            "inclusion": _emit(E.inclusion),
            "projection": _emit(E.projection),
        }
    }
    return payload, 0


def _parse_section(bundle, OD) -> Matrix | None:
    """The bundle's section, or None: the canonical one."""
    if "section" in bundle:
        return _parse_matrix(bundle["section"], 2 * OD.dim, OD.dim, "section")
    return None


def cmd_extract(args) -> tuple:
    _, OD, E, section = _load(args, _parse_extension, _parse_section)
    if section is None:
        section = ext.canonical_section(E)
    try:
        alpha, beta = ext.extract_cocycle(OD, E, section)
    except ext.NotSectionError as exc:
        return {"error": f"NotSection: {exc}"}, 1
    except (ext.NotCocycleError, ext.ExtensionInvalidError) as exc:
        return {"error": str(exc)}, 1
    return {"cocycle": _emit_cocycle(alpha, beta)}, 0


def cmd_deform_check(args) -> tuple:
    _, OD, dfm = _load(args, _parse_deformation)
    report = defm.check_deformation(OD, dfm)
    return {"ok": report.ok, "checks": _emit_checks(report)}, 0 if report.ok else 1


def cmd_infinitesimal(args) -> tuple:
    _, OD, dfm = _load(args, _parse_deformation)
    try:
        alpha, beta = defm.infinitesimal(OD, dfm, args.order)
    except defm.PrecedingTermsNonzeroError as exc:
        return {"error": f"PrecedingTermsNonzero: {exc}"}, 1
    rep = coh.is_degree1_cocycle(OD, alpha, beta)
    payload = {"order": args.order, "cocycle": _emit_cocycle(alpha, beta), "cocycle_ok": rep.ok}
    return payload, 0 if rep.ok else 1


def cmd_equivalence_check(args) -> tuple:
    _, OD, def1, def2, eq = _load(args, _parse_deformation,
                                  functools.partial(_parse_deformation, what="deformation2"),
                                  _parse_equivalence)
    report = defm.check_equivalence(OD, def1, def2, eq)
    payload = {"ok": report.ok, "checks": _emit_checks(report)}
    if report.ok:
        payload["certificate_psi1"] = _emit(defm._certificate(OD, def1, def2, eq))
    return payload, 0 if report.ok else 1


def cmd_rigidity(args) -> tuple:
    config, OD = _load(args)
    _refuse(check_axioms(OD.base), "dialgebra axioms fail")
    _refuse(check_oriented_dialgebra(OD), "oriented dialgebra axioms fail")
    candidates = defm.rigidity_probe(OD, config)
    payload = {
        "dim": len(candidates),
        "obstruction_trivial": not candidates,
        "candidates": [_emit_cocycle(alpha, beta) for alpha, beta in candidates],
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

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input bundle (JSON)")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        p.set_defaults(fn=fn)

    trees = sub.add_parser("trees")
    trees.add_argument("--n", type=int, required=True, help="tree level")
    trees.set_defaults(fn=cmd_trees)
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
        if getattr(args, "order", 1) < 1:
            raise BundleError(f"--order must be at least 1, got {args.order}")
        payload, code = args.fn(args)
    except Refused as exc:
        payload, code = exc.args[0], 1
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
