import copy
import functools
import importlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oridial import cli
from oridial import cohomology as coh
from oridial import oriented
from oridial.cli import build_parser, main

from bundles import (
    dual_numbers_section,
    dual_sign_bundle,
    run_cli_process,
    sign_group_section,
    split_products_section,
    write_bundle,
    zero_trivial_bundle,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_console_script_is_cli_main():
    # the [project.scripts] table of pyproject.toml, read without a TOML parser
    # (tomllib is not in Python 3.10)
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', table, re.MULTILINE))
    module, attr = scripts["oridial"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_trees_command(capsys):
    code, out, _ = run_cli(capsys, ["trees", "--n", "3"])
    assert code == 0
    words = [json.loads(line) for line in out.strip().splitlines()]
    assert words == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [3, 1, 2], [3, 2, 1]]


def test_check_valid_bundle(tmp_path, capsys):
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    code, out, _ = run_cli(capsys, ["check", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and all(c["ok"] for c in payload["checks"])


def test_check_broken_axiom_exits_1(tmp_path, capsys):
    bundle = {
        "dialgebra": {
            "dim": 1,
            "left": [[["1"]]],
            "right": [[["0"]]],
        }
    }
    path = write_bundle(tmp_path / "bad.json", bundle)
    code, out, _ = run_cli(capsys, ["check", "--input", path])
    assert code == 1
    payload = json.loads(out)
    bad = [c for c in payload["checks"] if not c["ok"]]
    assert bad and bad[0]["witness"] == [0, 0, 0]


def test_malformed_rational_exits_2(tmp_path, capsys):
    bundle = dual_sign_bundle()
    bundle["dialgebra"]["left"][0][0][0] = "1/0"
    path = write_bundle(tmp_path / "bad.json", bundle)
    code, _, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2
    assert "malformed rational" in err


@pytest.mark.parametrize("text", ["1e0", "0.0", " 1/2", "1_0"])
def test_rational_outside_the_p_q_format_exits_2(tmp_path, capsys, text):
    bundle = dual_sign_bundle()
    bundle["dialgebra"]["left"][0][0][0] = text
    path = write_bundle(tmp_path / "bad.json", bundle)
    code, _, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2
    assert "malformed rational" in err


Z3_TABLE = [[(i + j) % 3 for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("group", [
    {"order": 2, "table": [[0, True], [1, 0]], "epsilon": [1, -1]},
    {"order": True, "table": [[0]], "epsilon": [1]},
    {"order": 3.5, "table": Z3_TABLE, "epsilon": [1, 1, 1]},
    {"order": 2, "table": [[0, 1], [1, 0]], "epsilon": [1, True]},
])
def test_group_numbers_must_be_integers(tmp_path, capsys, group):
    # each group is valid once its booleans and floats are read as ints
    bundle = dual_sign_bundle()
    bundle["group"] = group
    bundle["action"] = [[["1", "0"], ["0", "1"]]] * len(group["table"])
    path = write_bundle(tmp_path / "bad.json", bundle)
    code, _, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2
    assert "group" in json.loads(err)["error"]


def _constant_order1_bundle():
    """The dual-sign bundle with the order-1 constant deformation, twice, and Ψ = id."""
    mult = dual_numbers_section()["left"]
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    bundle = dual_sign_bundle()
    const = {"order": 1, "ml": [mult, zero], "mr": [mult, zero],
             "phi": [bundle["action"], [zero[0], zero[0]]]}
    bundle.update(deformation=const, deformation2=copy.deepcopy(const),
                  equivalence={"order": 1, "psi": [bundle["action"][0], zero[0]]})
    return bundle


@pytest.mark.parametrize("field,value", [
    ("dialgebra.dim", 2.7),
    ("dialgebra.dim", "2"),
    ("deformation.order", 1.0),
    ("equivalence.order", "1"),
    ("deformation2.order", 1.0),
    ("group.order", 2.0),
    ("group.order", "2"),
])
def test_integer_fields_must_be_json_integers(tmp_path, capsys, field, value):
    section, key = field.split(".")
    command = {"deformation": ["deform-check"], "deformation2": ["equivalence-check"],
               "equivalence": ["equivalence-check"],
               "group": ["equivariant-cohomology", "--n", "0"]}.get(
        section, ["cohomology", "--n", "0"])
    bundle = _constant_order1_bundle()
    bundle.setdefault(section, {})[key] = int(value)
    path = write_bundle(tmp_path / "int.json", bundle)
    assert run_cli(capsys, command + ["--input", path])[0] == 0
    bundle[section][key] = value
    path = write_bundle(tmp_path / "other.json", bundle)
    code, out, err = run_cli(capsys, command + ["--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{section}: {key} must be an integer, got {value!r}"


@pytest.mark.parametrize("order,psi", [(-1, []), (0, [[["1", "0"], ["0", "1"]]])])
def test_equivalence_order_below_one_exits_2(tmp_path, capsys, order, psi):
    # each ψ list has order + 1 matrices, so only the order can reject it
    bundle = _constant_order1_bundle()
    bundle["equivalence"] = {"order": order, "psi": psi}
    path = write_bundle(tmp_path / "eq.json", bundle)
    code, out, err = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "equivalence: order must be >= 1"


@pytest.mark.parametrize("command,section", [
    (["deform-check"], "deformation"),
    (["infinitesimal", "--order", "1"], "deformation"),
    (["equivalence-check"], "deformation2"),
    (["equivalence-check"], "equivalence"),
])
def test_order_above_max_order_exits_2(tmp_path, capsys, command, section):
    # the section's arrays are no lists at all, so the order is refused
    # before any of them is read
    bundle = _constant_order1_bundle()
    assert run_cli(capsys, command + ["--input", write_bundle(tmp_path / "ok.json", bundle)])[0] == 0
    order = cli.MAX_ORDER + 1
    arrays = {key: "unread" for key in bundle[section] if key != "order"}
    deep = {**bundle, section: {"order": order, **arrays}}
    code, out, err = run_cli(capsys, command + ["--input", write_bundle(tmp_path / "deep.json", deep)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{section}: order {order} exceeds cap {cli.MAX_ORDER}"


def test_equivalence_psi0_not_identity_exits_2(tmp_path, capsys):
    bundle = _constant_order1_bundle()
    not_identity, zero = [["1", "1"], ["0", "1"]], [["0", "0"], ["0", "0"]]
    bundle["equivalence"] = {"order": 1, "psi": [not_identity, zero]}
    path = write_bundle(tmp_path / "eq.json", bundle)
    code, out, err = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "equivalence: psi_0 must be the identity"}


def test_infinitesimal_order_below_one_exits_2(tmp_path, capsys):
    path = write_bundle(tmp_path / "order1.json", _constant_order1_bundle())
    for order in (0, -1):
        code, out, err = run_cli(capsys, ["infinitesimal", "--input", path, "--order", str(order)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == f"--order must be at least 1, got {order}"
    # an order above the deformation's own is a semantic failure, not malformed input
    code, out, err = run_cli(capsys, ["infinitesimal", "--input", path, "--order", "2"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError: order 2 outside 1..1"


def test_negative_tree_level_exits_2(capsys):
    code, out, err = run_cli(capsys, ["trees", "--n", "-1"])
    assert code == 2 and out == ""
    assert "non-negative" in json.loads(err)["error"]


def test_bad_json_and_missing_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["check", "--input", str(path)])
    assert code == 2
    code, _, err = run_cli(capsys, ["check", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    code, out, err = run_cli(capsys, ["check", "--input",
                                      write_bundle(tmp_path / "list.json", [dual_sign_bundle()])])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "bundle must be a JSON object"


def test_dimension_cap_exits_2(tmp_path, capsys):
    zero5 = [[["0"] * 5 for _ in range(5)] for _ in range(5)]
    bundle = {"dialgebra": {"dim": 5, "left": zero5, "right": zero5}}
    path = write_bundle(tmp_path / "big.json", bundle)
    code, _, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2
    assert "outside" in err


def test_cohomology_zero_products(tmp_path, capsys):
    path = write_bundle(tmp_path / "z.json", zero_trivial_bundle())
    code, out, _ = run_cli(capsys, ["cohomology", "--input", path, "--n", "1"])
    assert code == 0
    assert json.loads(out)["dim"] == 4


def test_trivial_group_equivariant_matches_shifted_plain(tmp_path, capsys):
    path = write_bundle(tmp_path / "z.json", zero_trivial_bundle())
    code, out, _ = run_cli(capsys, ["equivariant-cohomology", "--input", path, "--n", "1"])
    assert code == 0
    dim_eq = json.loads(out)["dim"]
    code, out, _ = run_cli(capsys, ["cohomology", "--input", path, "--n", "2"])
    assert json.loads(out)["dim"] == dim_eq == 16


@pytest.mark.parametrize("section,dim", [(dual_numbers_section(), 1),
                                         (split_products_section(), 2)], ids=["dual", "split"])
def test_fixed_caps_reach_equivariant_degree_3(tmp_path, capsys, section, dim):
    # with the trivial group, HG(3) is HY(4)
    path = write_bundle(tmp_path / "b.json", {**zero_trivial_bundle(), "dialgebra": section})
    for command in (["equivariant-cohomology", "--n", "3"], ["cohomology", "--n", "4"]):
        code, out, _ = run_cli(capsys, command + ["--input", path])
        assert code == 0 and json.loads(out)["dim"] == dim


def test_size_cap_refuses_a_high_degree(tmp_path, capsys):
    # HG(5) of dual-sign needs Tot(6), of dimension 160,000
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    code, out, err = run_cli(capsys, ["equivariant-cohomology", "--input", path, "--n", "5"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == (
        "resource cap: Tot(6) has dimension 160000, above the cap 32768")


@pytest.mark.parametrize("command,n,level", [("cohomology", 10 ** 8, 10 ** 8 + 1),
                                             ("equivariant-cohomology", 10 ** 6, 10 ** 6 + 2)])
def test_an_unbounded_n_is_refused_at_once(tmp_path, capsys, command, n, level):
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    code, out, err = run_cli(capsys, [command, "--input", path, "--n", str(n)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == f"resource cap: tree level {level} exceeds cap 12"


def test_extend_extract_round_trip_through_json(tmp_path, capsys):
    bundle = dual_sign_bundle()
    zero2 = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    bundle["cocycle"] = {
        "alpha": [[["0", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "beta_left": zero2,
        "beta_right": zero2,
    }
    # make the alpha part an actual cocycle: use a coboundary emitted by
    # the engine instead of hand-written numbers
    from oridial import cohomology as coh
    from oridial.cli import _emit_cocycle
    from oridial.linalg import Matrix
    from conftest import oriented_dual_sign

    OD = oriented_dual_sign()
    gamma = Matrix.from_rows([[1, 2], [0, 1]])
    alpha, beta = coh.degree1_coboundary(OD, gamma)
    bundle["cocycle"] = _emit_cocycle(alpha, beta)

    path = write_bundle(tmp_path / "c.json", bundle)
    code, out, _ = run_cli(capsys, ["extend", "--input", path])
    assert code == 0
    extension = json.loads(out)["extension"]

    bundle2 = dual_sign_bundle()
    bundle2["extension"] = extension
    path2 = write_bundle(tmp_path / "e.json", bundle2)
    code, out, _ = run_cli(capsys, ["extract", "--input", path2])
    assert code == 0
    extracted = json.loads(out)["cocycle"]
    assert extracted == bundle["cocycle"]

    # and the emitted extension re-validates through `check`
    code, out, _ = run_cli(capsys, ["check", "--input", path2])
    assert code == 0


@pytest.mark.parametrize("change,message", [
    ({"group": None, "action": "garbage"}, "action checking needs a 'group' section"),
    ({"dialgebra": None}, "action checking needs a 'dialgebra' section"),
    ({"section": "garbage"}, "section: expected a list of 4 entries"),
    ({"section": [["0", "0"]] * 4, "dialgebra": None, "group": None, "action": None},
     "section checking needs a 'dialgebra' section"),
    ({"group": {"order": 25}}, "group: order 25 outside 1..24"),
    ({"dialgebra": None, "group": None, "action": None}, "bundle contains nothing to check"),
])
def test_check_parses_action_and_section(tmp_path, capsys, change, message):
    bundle = dual_sign_bundle()
    for key, value in change.items():
        if value is None:
            del bundle[key]
        else:
            bundle[key] = value
    path = write_bundle(tmp_path / "bad.json", bundle)
    code, out, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == message


def test_extract_with_bad_section_exits_1(tmp_path, capsys):
    bundle = dual_sign_bundle()
    from oridial import cohomology as coh
    from oridial.cli import _emit
    from oridial.extensions import build_extension
    from conftest import degree1_zero, oriented_dual_sign

    OD = oriented_dual_sign()
    alpha, beta = degree1_zero(OD)
    E = build_extension(OD, alpha, beta)
    bundle["extension"] = json.loads(json.dumps({
        "dialgebra": {"dim": 4,
                      "left": [[[str(x) for x in row] for row in plane]
                               for plane in E.total.base.left],
                      "right": [[[str(x) for x in row] for row in plane]
                                for plane in E.total.base.right]},
        "action": _emit(E.total.action),
        "inclusion": _emit(E.inclusion),
        "projection": _emit(E.projection),
    }))
    bundle["section"] = [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]
    path = write_bundle(tmp_path / "e.json", bundle)
    code, out, _ = run_cli(capsys, ["extract", "--input", path])
    assert code == 1
    assert "NotSection" in json.loads(out)["error"]


def _transported_bundle():
    from oridial.cli import _emit
    from oridial.deformations import constant_deformation, transport_constant
    from oridial.linalg import Matrix
    from conftest import oriented_dual_sign

    OD = oriented_dual_sign()
    psis = [Matrix.from_rows([[0, 1], [0, 0]]), Matrix.from_rows([[0, 0], [1, 0]])]
    moved = transport_constant(OD, psis, 2)
    const = constant_deformation(OD, 2)

    def emit_deformation(dfm):
        return {
            "order": dfm.order,
            "ml": _emit(dfm.mlt),
            "mr": _emit(dfm.mrt),
            "phi": _emit(dfm.phi),
        }

    bundle = dual_sign_bundle()
    bundle["deformation"] = emit_deformation(const)
    bundle["deformation2"] = emit_deformation(moved)
    bundle["equivalence"] = {
        "order": 2,
        "psi": _emit([Matrix.identity(2)] + psis),
    }
    return bundle


def test_deform_check_and_equivalence(tmp_path, capsys):
    bundle = _transported_bundle()
    moved_only = dict(bundle)
    moved_only["deformation"] = bundle["deformation2"]
    path = write_bundle(tmp_path / "d.json", moved_only)
    code, out, _ = run_cli(capsys, ["deform-check", "--input", path])
    assert code == 0 and json.loads(out)["ok"]

    path = write_bundle(tmp_path / "eq.json", bundle)
    code, out, _ = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["certificate_psi1"] == [["0", "1"], ["0", "0"]]


def test_equivalence_check_runs_the_checker_once(tmp_path, capsys, monkeypatch):
    # the CLI reports the check and then certifies ψ_1 without checking again
    from oridial import deformations

    calls = []
    check = deformations.check_equivalence
    monkeypatch.setattr(deformations, "check_equivalence",
                        lambda *args: calls.append(args) or check(*args))
    path = write_bundle(tmp_path / "eq.json", _transported_bundle())
    code, out, _ = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 0
    assert json.loads(out)["certificate_psi1"] == [["0", "1"], ["0", "0"]]
    assert len(calls) == 1


def test_certificate_reads_both_deformations_in_one_call(tmp_path, capsys, monkeypatch):
    # one accepted bundle reads both deformations once, in the check: the
    # certificate takes the order-1 terms without reading the series again,
    # and without ``infinitesimal``
    from oridial import deformations

    path = write_bundle(tmp_path / "eq.json", _transported_bundle())
    reads = []
    read = deformations._integer_series
    monkeypatch.setattr(deformations, "_integer_series",
                        lambda *dfms: reads.append(len(dfms)) or read(*dfms))
    monkeypatch.setattr(deformations, "infinitesimal", None)
    code, out, _ = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 0
    assert json.loads(out)["certificate_psi1"] == [["0", "1"], ["0", "0"]]
    assert reads == [2]


def test_certificate_failure_exits_1(tmp_path, capsys, shifted_coboundary):
    path = write_bundle(tmp_path / "eq.json", _transported_bundle())
    code, out, err = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("CertificateFailureError: ")


def test_infinitesimal_command(tmp_path, capsys):
    bundle = _transported_bundle()
    bundle["deformation"] = bundle.pop("deformation2")
    del bundle["equivalence"]
    path = write_bundle(tmp_path / "d.json", bundle)
    code, out, _ = run_cli(capsys, ["infinitesimal", "--input", path, "--order", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cocycle_ok"] and payload["order"] == 1
    # asking for order 2 must fail: the order-1 terms are nonzero
    code, out, _ = run_cli(capsys, ["infinitesimal", "--input", path, "--order", "2"])
    assert code == 1
    assert "PrecedingTermsNonzero" in json.loads(out)["error"]


def test_engine_rejections_become_structured_errors(tmp_path, capsys):
    # equivalence-check with the wrong deformation pair: the engine raises,
    # the CLI turns it into an error payload with exit 1
    bundle = _transported_bundle()
    bundle["deformation2"] = bundle["deformation"]  # not intertwined by psi
    path = write_bundle(tmp_path / "eq.json", bundle)
    code, out, err = run_cli(capsys, ["equivalence-check", "--input", path])
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]

    # a cocycle bundle whose pair fails the explicit equations, fed to extend
    bad = dual_sign_bundle()
    zero2 = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    beta = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    bad["cocycle"] = {"alpha": [zero2[0], zero2[0]], "beta_left": beta,
                      "beta_right": zero2}
    path = write_bundle(tmp_path / "bad.json", bad)
    code, out, err = run_cli(capsys, ["extend", "--input", path])
    assert code == 1
    assert "cocycle" in json.loads(out)["error"]

    # an extension bundle that is not actually an extension
    broken = dual_sign_bundle()
    eye4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    zero4 = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
    broken["extension"] = {
        "dialgebra": {"dim": 4, "left": zero4, "right": zero4},
        "action": [eye4, eye4],
        "inclusion": [["1", "0"], ["0", "1"], ["1", "0"], ["0", "0"]],
        "projection": [["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }
    path = write_bundle(tmp_path / "broken_ext.json", broken)
    code, out, err = run_cli(capsys, ["extract", "--input", path])
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "extension clauses fail: ['defect lands in the kernel']"}

    # the zero cocycle's extension with e0 added to e2 ⊣ e2, e2 the section's
    # image of e0: every defect lands in the kernel, but the pair is no cocycle
    zero = dual_sign_bundle()
    zero["cocycle"] = {"alpha": zero2, "beta_left": zero2, "beta_right": zero2}
    path = write_bundle(tmp_path / "zero.json", zero)
    code, out, err = run_cli(capsys, ["extend", "--input", path])
    assert code == 0
    tampered = dual_sign_bundle()
    tampered["extension"] = json.loads(out)["extension"]
    tampered["extension"]["dialgebra"]["left"][2][2][0] = "1"
    path = write_bundle(tmp_path / "tampered_ext.json", tampered)
    code, out, err = run_cli(capsys, ["extract", "--input", path])
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "pair is not a degree-1 cocycle (7 nonzero residuals)"}


def test_rigidity_command(tmp_path, capsys):
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    code, out, _ = run_cli(capsys, ["rigidity", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 1 and not payload["obstruction_trivial"]


def _broken_mixed_axioms_bundle():
    """The dual-numbers ⊣ next to a ⊢ with only e1 ⊢ e1 = e0, which fails three
    mixed axioms, with the trivial group and the zero cocycle."""
    bundle = zero_trivial_bundle()
    zero2 = bundle["dialgebra"]["left"]
    bundle["dialgebra"] = {"dim": 2, "left": dual_numbers_section()["left"],
                           "right": [[["0", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}
    bundle["cocycle"] = {"alpha": [[["0", "0"], ["0", "0"]]],
                         "beta_left": zero2, "beta_right": zero2}
    return bundle


@pytest.mark.parametrize("command", [["extend"], ["equivariant-cohomology", "--n", "0"],
                                     ["rigidity"], ["cohomology", "--n", "0"]])
def test_commands_refuse_a_base_that_is_no_dialgebra(tmp_path, capsys, command):
    path = write_bundle(tmp_path / "b.json", _broken_mixed_axioms_bundle())
    code, out, err = run_cli(capsys, command + ["--input", path])
    assert code == 1 and not err
    payload = json.loads(out)
    if command == ["extend"]:
        # one JSON object on stdout, as for a pair failing the degree-1 equations
        assert payload == {
            "error": "extension clauses fail: ['middle term is an oriented dialgebra']"}
    else:
        assert payload["error"] == "dialgebra axioms fail"
        assert [c["ok"] for c in payload["checks"]] == [True, True, False, False, False]


@pytest.mark.parametrize("group,failing", [
    # has inverses, but (1·2)·2 = 2 while 1·(2·2) = 1
    ({"order": 3, "table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]], "epsilon": [1, 1, 1]},
     "multiplication is associative"),
    # associative with identity 0, but 1·1 = 1, so 1 has no inverse
    ({"order": 2, "table": [[0, 1], [1, 1]], "epsilon": [1, 1]},
     "every element has an inverse"),
], ids=["non-associative", "no-inverse"])
@pytest.mark.parametrize("command,section", [
    (["equivariant-cohomology", "--n", "0"], None),
    (["equivariant-cohomology", "--n", "1"], None),
    (["rigidity"], None),
    (["cocycle-check"], "cocycle"),
    (["extend"], "cocycle"),
    (["extract"], "extension"),
    (["deform-check"], "deformation"),
    (["infinitesimal"], "deformation"),
    (["equivalence-check"], "equivalence"),
], ids=["equivariant-n0", "equivariant-n1", "rigidity", "cocycle-check", "extend", "extract",
        "deform-check", "infinitesimal", "equivalence-check"])
def test_commands_refuse_a_table_that_is_no_group(tmp_path, capsys, monkeypatch, group, failing,
                                                  command, section):
    m = group["order"]
    identity, zero = [["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]
    bundle = {"dialgebra": dual_numbers_section(), "group": group, "action": [identity] * m}
    code, out, _ = run_cli(capsys, ["check", "--input", write_bundle(tmp_path / "c.json", bundle)])
    assert code == 1
    assert [c["check"] for c in json.loads(out)["checks"] if not c["ok"]] == \
        [f"oriented group: {failing}"]
    # every section the commands read, well-formed for a group of order m
    mult, zero3, zero4 = dual_numbers_section()["left"], [zero, zero], [["0"] * 4] * 4
    deformation = {"order": 1, "ml": [mult, zero3], "mr": [mult, zero3],
                   "phi": [[identity] * m, [zero] * m]}
    bundle |= {
        "cocycle": {"alpha": [zero] * m, "beta_left": zero3, "beta_right": zero3},
        "extension": {"dialgebra": {"dim": 4, "left": [zero4] * 4, "right": [zero4] * 4},
                      "action": [zero4] * m, "inclusion": [["0", "0"]] * 4,
                      "projection": [["0"] * 4] * 2},
        "deformation": deformation, "deformation2": deformation,
        "equivalence": {"order": 1, "psi": [identity, zero]},
    }
    path = write_bundle(tmp_path / "b.json", bundle)
    calls = []
    monkeypatch.setattr(cli, "check_oriented_group",
                        lambda G: calls.append(G) or oriented.check_oriented_group(G))
    code, out, err = run_cli(capsys, command + ["--input", path])
    assert code == 1 and not err and len(calls) == 1
    payload = json.loads(out)
    assert payload["error"] == "oriented group axioms fail"
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == [failing]
    if section is not None:
        # the sections parse first: a missing one is malformed input, not a refusal
        del bundle[section]
        path = write_bundle(tmp_path / "missing.json", bundle)
        code, out, err = run_cli(capsys, command + ["--input", path])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == f"bundle needs a {section!r} section for this command"


@pytest.mark.parametrize("command,golden_name", [
    (["equivariant-cohomology", "--n", "1"], "equivariant_dual_sign_n1.json"),
    (["rigidity"], "rigidity_dual_sign.json"),
])
def test_golden_outputs_are_reproducible(tmp_path, command, golden_name):
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    runs = [run_cli_process(command + ["--input", path]) for _ in range(3)]
    assert all(r.returncode == 0 for r in runs)
    outputs = {r.stdout for r in runs}
    assert len(outputs) == 1  # byte-identical across runs
    golden = (GOLDEN / golden_name).read_text(encoding="utf-8")
    assert runs[0].stdout == golden


@pytest.mark.parametrize("command,name", [
    (["check"], "check_all_sections"),
    (["deform-check"], "deform_check_tampered"),
    (["equivalence-check"], "equivalence_check_tampered"),
])
def test_failing_reports_match_goldens(capsys, command, name):
    # check_all_sections has all six sections and a failing item in every
    # report source; the deformation bundles fail several clauses at
    # different powers, so the witnesses pin the lowest failing power
    bundle = GOLDEN / "bundles" / f"{name}.json"
    code, out, _ = run_cli(capsys, command + ["--input", str(bundle)])
    assert code == 1
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main reuses one parser per process; a usage error (argparse exits 2)
    # or a flag of one call must not change what the next call does
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    argvs = [
        ["trees", "--n", "2"],
        ["equivariant-cohomology", "--n", "1", "--input", path, "--pretty"],
        ["cohomology", "--n"],
        ["rigidity", "--input", path],
        ["no-such-command"],
        ["check", "--input", path],
        ["trees", "--n", "1", "--json", "--pretty"],
        ["trees", "--n", "1"],
    ]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    assert build_parser() is build_parser()
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 2, 0, 2, 0]
    separate = [run_cli_process(argv) for argv in argvs]
    assert in_process == [(r.returncode, r.stdout) for r in separate]


@functools.cache
def _every_section_bundle() -> dict:
    """The dual-sign bundle with every section, all valid; do not mutate the result."""
    from oridial import cohomology as coh
    from oridial.cli import _emit, _emit_cocycle
    from oridial.extensions import build_extension, canonical_section
    from oridial.linalg import Matrix
    from conftest import oriented_dual_sign

    OD = oriented_dual_sign()
    alpha, beta = coh.degree1_coboundary(OD, Matrix.from_rows([[1, 2], [0, 1]]))
    E = build_extension(OD, alpha, beta)
    bundle = _transported_bundle()
    bundle["cocycle"] = _emit_cocycle(alpha, beta)
    bundle["extension"] = {
        "dialgebra": {"dim": 4, "left": _emit(E.total.base.left),
                      "right": _emit(E.total.base.right)},
        "action": _emit(E.total.action),
        "inclusion": _emit(E.inclusion),
        "projection": _emit(E.projection),
    }
    bundle["section"] = _emit(canonical_section(E))
    return bundle


COMMANDS = [
    ["trees", "--n", "2"],
    ["check"],
    ["cohomology", "--n", "1"],
    ["equivariant-cohomology", "--n", "1"],
    ["cocycle-check"],
    ["extend"],
    ["extract"],
    ["deform-check"],
    ["infinitesimal", "--order", "1"],
    ["equivalence-check"],
    ["rigidity"],
]


def _argv(command: list, path: str) -> list:
    return command if command[0] == "trees" else command + ["--input", path]


def test_every_command_accepts_the_every_section_bundle(tmp_path, capsys):
    parser_commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(c[0] for c in COMMANDS) == sorted(parser_commands)
    path = write_bundle(tmp_path / "all.json", _every_section_bundle())
    for command in COMMANDS:
        assert run_cli(capsys, _argv(command, path))[0] == 0, command


@pytest.mark.parametrize("command,section,value", [
    (["cocycle-check"], "cocycle", []),
    (["extract"], "extension", "dialgebra"),
    (["check"], "dialgebra", [1]),
    (["rigidity"], "group", "sign"),
    (["deform-check"], "deformation", None),
    (["equivalence-check"], "deformation2", 2),
    (["equivalence-check"], "equivalence", ["order"]),
])
def test_object_section_of_another_type_exits_2(tmp_path, capsys, command, section, value):
    bundle = copy.deepcopy(_every_section_bundle())
    bundle[section] = value
    path = write_bundle(tmp_path / "bad.json", bundle)
    code, out, err = run_cli(capsys, command + ["--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{section}: section must be a JSON object"


@pytest.mark.parametrize("config", [
    {}, {"max_group": 24, "max_dim": 4, "max_cochain_dim": 32768}, {"max_levle": 1},
    {"max_dense_cells": 1}, {"max_level": 1}, {"max_degree": 1},
])
def test_a_config_section_exits_2(tmp_path, capsys, config):
    # the caps are fixed: a bundle cannot set them, not even to their own values
    path = write_bundle(tmp_path / "config.json", {**zero_trivial_bundle(), "config": config})
    code, out, err = run_cli(capsys, ["cohomology", "--n", "1", "--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "unknown bundle section 'config'"


def test_unknown_bundle_section_exits_2(tmp_path, capsys):
    # a broken cocycle fails `check`; under a misspelled key it must not be skipped
    bundle = copy.deepcopy(_every_section_bundle())
    bundle["cocycle"]["beta_left"][0][0][0] = "7"
    path = write_bundle(tmp_path / "broken.json", bundle)
    assert run_cli(capsys, ["check", "--input", path])[0] == 1
    bundle["cocyle"] = bundle.pop("cocycle")
    path = write_bundle(tmp_path / "misspelled.json", bundle)
    code, out, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "unknown bundle section 'cocyle'"


BAD_RATIONALS = ["1/0", "1e0", "0.0", " 1/2", "1_0", "+1", "1/-2", "x"]
OTHER_JSON = [None, True, 0, 3, 1.5, "1", [], {}, [[]]]


@st.composite
def mutated_bundles(draw) -> dict:
    """The every-section bundle with one node dropped, retyped, resized or made a bad rational.

    The node is reached by a random walk from the root; a bad rational
    always replaces a leaf.
    """
    bundle = copy.deepcopy(_every_section_bundle())
    kind = draw(st.sampled_from(["drop", "retype", "shorten", "lengthen", "rational"]))
    parent, key, node = None, None, bundle
    while isinstance(node, (dict, list)) and node and (
            parent is None or kind == "rational" or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(OTHER_JSON))
    elif kind == "rational":
        parent[key] = draw(st.sampled_from(BAD_RATIONALS))
    else:
        target = node if isinstance(node, list) and node else parent
        if isinstance(target, list):
            if kind == "shorten":
                target.pop()
            else:
                target.append(copy.deepcopy(target[-1]))
    return bundle


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), bundle=mutated_bundles())
def test_mutated_bundles_exit_cleanly(tmp_path, capsys, command, bundle):
    # any exception escaping main fails the example
    path = write_bundle(tmp_path / "fuzz.json", bundle)
    code, out, _ = run_cli(capsys, _argv(command, path))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""


@pytest.mark.parametrize("change", ["shorten", "lengthen"])
@pytest.mark.parametrize("path,command", [
    ("dialgebra.left", ["check"]),
    ("action[1]", ["check"]),
    ("cocycle.alpha[1]", ["check"]),
    ("cocycle.beta_right", ["check"]),
    ("extension.inclusion", ["check"]),
    ("extension.dialgebra.right", ["extract"]),
    ("section", ["extract"]),
    ("deformation.ml[1]", ["check"]),
    ("deformation.phi[1][0]", ["check"]),
    ("equivalence.psi[1]", ["equivalence-check"]),
    ("deformation2.ml", ["equivalence-check"]),
    ("deformation2.phi[1][0]", ["equivalence-check"]),
    ("action", ["check"]),
    ("deformation.mr", ["check"]),
    ("deformation.phi", ["check"]),
    ("equivalence.psi", ["equivalence-check"]),
])
def test_wrong_length_array_exits_2_naming_its_path(tmp_path, capsys, path, command, change):
    bundle = copy.deepcopy(_every_section_bundle())
    *keys, last = [int(k[1:-1]) if k.startswith("[") else k
                   for k in re.findall(r"\[\d+\]|\w+", path)]
    parent = functools.reduce(lambda node, key: node[key], keys, bundle)
    node = parent[last]
    parent[last] = node[:-1] if change == "shorten" else node + node[-1:]
    path_file = write_bundle(tmp_path / "bad.json", bundle)
    code, out, err = run_cli(capsys, command + ["--input", path_file])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{path}: expected a list of {len(node)} entries"


def test_docstring_names_every_bundle_section():
    # the bundle format in the module docstring is the one the code reads
    assert set(re.findall(r'^    "(\w+)":', cli.__doc__, re.MULTILINE)) == cli.BUNDLE_KEYS


@pytest.mark.parametrize("command,change,message", [
    ("extract", {"extension": {}}, "extension: missing middle-term dialgebra"),
    ("extract", {"extension": {"dialgebra": dual_numbers_section()}},
     "extension middle term must have dimension 4"),
    ("extract", {"extension": {"dialgebra": {"dim": 5}}},
     "extension.dialgebra: dim 5 outside 1..4"),
    ("deform-check", {"deformation": {"order": 0}}, "deformation: order must be >= 1"),
    ("check", {"group": {**sign_group_section(), "epsilon": [1]}},
     "group: epsilon must list 2 signs"),
])
def test_refused_sections_exit_2(tmp_path, capsys, command, change, message):
    path = write_bundle(tmp_path / "bad.json", {**dual_sign_bundle(), **change})
    code, out, err = run_cli(capsys, [command, "--input", path])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == message
