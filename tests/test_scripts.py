"""The experiment scripts run to completion on their shipped defaults."""

from __future__ import annotations

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
