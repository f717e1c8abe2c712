"""Canonical JSON bundles and a CLI process runner for the CLI tests and the acceptance suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import oridial


def run_cli_process(argv: list) -> subprocess.CompletedProcess:
    """``python -m oridial.cli`` in a fresh interpreter that imports this oridial."""
    src = str(Path(oridial.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "oridial.cli", *argv],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": path})


def dual_numbers_section():
    mult = [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]
    return {"dim": 2, "left": mult, "right": mult}


def zero_dialgebra_section():
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    return {"dim": 2, "left": zero, "right": zero}


def sign_group_section():
    return {"order": 2, "table": [[0, 1], [1, 0]], "epsilon": [1, -1]}


def trivial_group_section():
    return {"order": 1, "table": [[0]], "epsilon": [1]}


def dual_sign_bundle():
    """K[u]/(u^2) with the sign group acting by u -> -u."""
    return {
        "dialgebra": dual_numbers_section(),
        "group": sign_group_section(),
        "action": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]]],
    }


def zero_trivial_bundle():
    return {
        "dialgebra": zero_dialgebra_section(),
        "group": trivial_group_section(),
        "action": [[["1", "0"], ["0", "1"]]],
    }


def write_bundle(path, bundle):
    path.write_text(json.dumps(bundle, sort_keys=True, indent=1), encoding="utf-8")
    return str(path)
