"""The experiment scripts run to completion on their shipped defaults."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stdrefine

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_chain.py", "--k", "3"],
        ["conflict_matrix.py"],
        ["soundness_sweep.py", "--machines", "20", "--seed", "7"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    # The subprocess imports the same stdrefine as this process, installed or not.
    src = str(Path(stdrefine.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_mutant_names_one_place_and_killing_tests_that_exist():
    # scripts/mutants.py runs outside Tier-1; this keeps its table from rotting.
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    package = Path(stdrefine.__file__).parent
    root = SCRIPTS.parent
    for m in mutants.MUTANTS:
        assert (package / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and bool(m.killers) != bool(m.argument), m.name
        for node_id in m.killers:
            path, name = node_id.split("::")
            tree = ast.parse((root / path).read_text())
            defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.split("[")[0] in defined, node_id
