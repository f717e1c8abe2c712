import json
from pathlib import Path

import pytest

from oridial.cli import build_parser, main

from bundles import (
    dual_numbers_section,
    dual_sign_bundle,
    run_cli_process,
    sign_group_section,
    write_bundle,
    zero_trivial_bundle,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_degree_cap_exits_1(tmp_path, capsys):
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    code, _, err = run_cli(capsys, ["equivariant-cohomology", "--input", path, "--n", "3"])
    assert code == 1
    assert "resource cap" in err


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


def test_extract_with_bad_section_exits_1(tmp_path, capsys):
    bundle = dual_sign_bundle()
    from oridial import cohomology as coh
    from oridial.cli import _emit_cocycle, _emit_matrix
    from oridial.extensions import build_extension
    from conftest import oriented_dual_sign

    OD = oriented_dual_sign()
    alpha, beta = coh.degree1_zero(OD)
    E = build_extension(OD, alpha, beta)
    bundle["extension"] = json.loads(json.dumps({
        "dialgebra": {"dim": 4,
                      "left": [[[str(x) for x in row] for row in plane]
                               for plane in E.total.base.left],
                      "right": [[[str(x) for x in row] for row in plane]
                                for plane in E.total.base.right]},
        "action": [_emit_matrix(m) for m in E.total.action],
        "inclusion": _emit_matrix(E.inclusion),
        "projection": _emit_matrix(E.projection),
    }))
    bundle["section"] = [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]
    path = write_bundle(tmp_path / "e.json", bundle)
    code, out, _ = run_cli(capsys, ["extract", "--input", path])
    assert code == 1
    assert "NotSection" in json.loads(out)["error"]


def _transported_bundle():
    from oridial.cli import _emit_matrix, _emit_tensor
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
            "ml": [_emit_tensor(t) for t in dfm.mlt],
            "mr": [_emit_tensor(t) for t in dfm.mrt],
            "phi": [[_emit_matrix(m) for m in per_g] for per_g in dfm.phi],
        }

    bundle = dual_sign_bundle()
    bundle["deformation"] = emit_deformation(const)
    bundle["deformation2"] = emit_deformation(moved)
    bundle["equivalence"] = {
        "order": 2,
        "psi": [_emit_matrix(Matrix.identity(2))] + [_emit_matrix(p) for p in psis],
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
    assert code == 1


def test_rigidity_command(tmp_path, capsys):
    path = write_bundle(tmp_path / "b.json", dual_sign_bundle())
    code, out, _ = run_cli(capsys, ["rigidity", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 1 and not payload["obstruction_trivial"]


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
