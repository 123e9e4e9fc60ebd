"""Command-line interface: subcommands, exit codes, JSON reports, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import stdrefine
from stdrefine import build_step, corpus_path, parse_std, print_std
from stdrefine.cli import main

from fixtures import corpus_std

TEL = str(corpus_path("tel.std"))
CALLPROC = str(corpus_path("callproc.std"))
DUO = str(corpus_path("duo.std"))
DEFAULT_ENV = str(corpus_path("default.env"))
ABANDON = str(corpus_path("abandon.feat"))
LEFT = str(corpus_path("conflict-left.feat"))
RIGHT = str(corpus_path("conflict-right.feat"))


def run(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def schema(name: str) -> dict:
    path = resources.files("stdrefine") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def check_against(doc: dict, name: str) -> None:
    jsonschema.validate(doc, schema(name))


@pytest.fixture()
def step_file(tmp_path):
    def write(n: int) -> str:
        p = tmp_path / f"step{n}.std"
        p.write_text(print_std(build_step(n)))
        return str(p)

    return write


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_reports_shape_and_no_bounds():
    # check explores nothing, so its report names no bound.
    code, out, err = run("check", TEL)
    assert code == 0 and err == ""
    assert "machine tel: 4 states, 5 transitions" in out
    assert "bounds" not in out


@pytest.mark.parametrize("argv", [("check", TEL), ("simulate", TEL, "--input", "LT")])
def test_check_and_simulate_take_no_input_length_bound(argv):
    # check reads no bound, and simulate's input length is its input's.
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--k", "3")
    assert exc.value.code == 2


def test_simulate_reports_the_length_of_its_input_as_k():
    code, out, _ = run("simulate", TEL, "--input", "LT,DL(7)")
    assert code == 0
    assert "  bounds: k=2 eps-budget=4 output-cap=16 state-cap=none\n" in out
    code, out, _ = run("simulate", TEL, "--input", "LT", "--json")
    assert json.loads(out)["bounds"]["max_input_len"] == 1


def test_check_json_validates_against_schema():
    code, out, _ = run("check", TEL, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "std/1"
    check_against(doc, "std")


def test_check_rejects_unparseable_file():
    code, out, err = run("check", DEFAULT_ENV)  # an env file is not a diagram
    assert code == 2
    assert out == ""
    assert "line" in err and "col" in err


def test_check_missing_file_is_usage_error():
    code, _, err = run("check", "/nonexistent/nothing.std")
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_lists_outputs_sorted():
    code, out, err = run("simulate", TEL, "--input", "LT, DL(1)")
    assert code == 0 and err == ""
    assert out.index("[DT, BY]") < out.index("[DT, RG]")


def test_simulate_reports_chaos():
    code, out, _ = run("simulate", TEL, "--input", "OH")
    assert code == 0
    assert "CHAOS" in out


def test_simulate_json_validates_against_schema():
    code, out, _ = run(
        "simulate", CALLPROC, "--env", DEFAULT_ENV, "--input", "call(d1, d2), abandon", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "traces/1"
    check_against(doc, "traces")


def test_simulate_json_lists_the_warnings_of_its_prefixes(tmp_path):
    p = tmp_path / "loop.std"
    p.write_text(LOOP_SRC)
    code, out, _ = run("simulate", str(p), "--input", "go, go", "--json")
    assert code == 0
    doc = json.loads(out)
    check_against(doc, "traces")
    assert doc["warnings"] == [
        "internal-step budget exhausted while processing go after input []",
        "internal-step budget exhausted while processing go after input [go]",
    ]


def test_simulate_json_lists_every_prefix_of_a_chaotic_input():
    code, out, _ = run("simulate", TEL, "--input", "OH, LT, LT", "--json")
    assert code == 0
    doc = json.loads(out)
    check_against(doc, "traces")
    assert [([m["ctor"] for m in e["input"]], e["chaos"]) for e in doc["entries"]] == [
        ([], False), (["OH"], True), (["OH", "LT"], True), (["OH", "LT", "LT"], True)
    ]


def test_simulate_rejects_garbage_input_sequence():
    code, _, err = run("simulate", TEL, "--input", "DL(")
    assert code == 2 and err


def test_simulate_rejects_a_non_ascii_digit_at_its_column():
    code, out, err = run("simulate", TEL, "--input", "DL(\u00b2)")
    assert (code, out) == (2, "")
    assert err == "--input: line 1, col 4: unexpected character '\u00b2'\n"


def test_simulate_rejects_a_foreign_message_after_chaos():
    code, out, err = run("simulate", TEL, "--input", "OH, Zap")
    assert code == 2 and out == ""
    assert "Zap is not an input message instance of tel" in err


def test_simulate_honors_state_cap():
    code, _, err = run(
        "simulate", CALLPROC, "--env", DEFAULT_ENV, "--input", "call(d1, d2)", "--state-cap", "1"
    )
    assert code == 3
    assert "state cap" in err


LOOP_SRC = """
std loop = {
  input go
  output tick
  states s init
  e1: s -> s : eps / [tick]
  g1: s -> s : go
}
"""


def test_simulate_reports_divergence_flag(tmp_path):
    p = tmp_path / "loop.std"
    p.write_text(LOOP_SRC)
    code, out, _ = run("simulate", str(p), "--input", "go")
    assert code == 0
    assert "diverged" in out


# ---------------------------------------------------------------------------
# refine verify / refine apply
# ---------------------------------------------------------------------------


def test_refine_verify_passes_chain_step(step_file):
    code, out, err = run(
        "refine", "verify", CALLPROC, step_file(1), "--env", DEFAULT_ENV, "--k", "2"
    )
    assert code == 0 and err == ""
    assert "refinement: pass" in out
    assert "k=2" in out


def test_refine_verify_fails_reversed_direction(step_file):
    code, out, _ = run(
        "refine", "verify", step_file(1), CALLPROC, "--env", DEFAULT_ENV, "--k", "2"
    )
    assert code == 1
    assert "FAIL" in out
    assert "abandon" in out  # the replayable witness names the new message


def test_refine_verify_json_validates_against_schema(step_file):
    code, out, _ = run(
        "refine", "verify", step_file(1), CALLPROC, "--env", DEFAULT_ENV, "--k", "2", "--json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["format"] == "verdict/1"
    assert doc["ok"] is False
    check_against(doc, "verdict")


def test_refine_apply_prints_result(tmp_path):
    code, out, err = run("refine", "apply", CALLPROC, ABANDON, "--env", DEFAULT_ENV)
    assert code == 0 and err == ""
    assert parse_std(out) == build_step(1)


def test_refine_apply_output_file_round_trips(tmp_path):
    target = tmp_path / "step1.std"
    code, _, _ = run(
        "refine", "apply", CALLPROC, ABANDON, "--env", DEFAULT_ENV, "--output", str(target)
    )
    assert code == 0
    assert parse_std(target.read_text()) == build_step(1)


def test_refine_apply_rule_error_exit_code(tmp_path):
    grown = tmp_path / "grown.std"
    code, out, _ = run("refine", "apply", DUO, LEFT, "--output", str(grown))
    assert code == 0
    # Re-applying a patch to its own result is invalid before any side
    # condition is asked; the rival patch reaches the overlap check.
    code, _, err = run("refine", "apply", str(grown), LEFT)
    assert code == 1
    assert "duplicate label" in err
    code, _, err = run("refine", "apply", str(grown), RIGHT)
    assert code == 1
    assert "overlaps existing" in err


def test_refine_apply_names_the_machine_a_patch_is_written_for():
    code, out, err = run("refine", "apply", CALLPROC, LEFT)
    assert (code, out) == (2, "")
    assert err == (
        f"{LEFT}: line 3, col 26: feature 'conflict-left' is written against 'duo', "
        "not 'callproc'\n"
    )


@pytest.mark.parametrize(
    "payload",
    [
        "add-transitions { t9: s -> s : {head(n) == 1} go(v) / [o] }",
        "add-transitions { t9: s -> s : {n' == 1} go(v) / [o] }",
        "split b into { b1, b2 } { redirect t0 -> b1 with {n' == len(n)} }",
    ],
    ids=["ill-sorted-guard", "primed-guard", "ill-sorted-redirect"],
)
def test_an_ill_sorted_payload_is_a_rule_rejection(tmp_path, payload):
    machine = tmp_path / "m.std"
    machine.write_text(
        "std m = { input go(Int 0..3) | stop  output o  attributes n :: Int 0..3"
        "  states s init, b  t0: s -> b : stop / [o]  t1: b -> s : stop / [o] }\n"
    )
    bad = tmp_path / "bad.feat"
    bad.write_text(f"feature bad on m {{ {payload} }}\n")
    other = tmp_path / "other.feat"
    other.write_text("feature other on m { add-states { z } }\n")
    code, out, err = run("refine", "apply", str(machine), str(bad))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "the transformed machine is invalid: " in err
    # feature conflicts reports the rejection as its inapplicable evidence.
    code, out, err = run("feature", "conflicts", str(machine), str(bad), str(other))
    assert code == 1 and err == ""
    assert "bad x other: inapplicable" in out
    assert "the transformed machine is invalid: " in out


def test_refine_apply_redirects_a_transition_the_patch_adds(tmp_path):
    # The redirect postcondition names the parameter of t1, which exists only
    # once the patch's own add-transitions has run.
    machine = tmp_path / "m.std"
    machine.write_text(
        "std m = { input go(Int 0..2) | stop  output o  attributes n :: Int 0..2"
        "  states a init, b  t0: a -> a : stop }\n"
    )
    patch = tmp_path / "f.feat"
    patch.write_text(
        "feature f on m {\n"
        "  add-transitions { t1: a -> b : go(v) {n' == v} }\n"
        "  split b into { b1, b2 } { redirect t1 -> b1 with {n' == v} }\n"
        "}\n"
    )
    code, out, err = run("refine", "apply", str(machine), str(patch))
    assert code == 0 and err == ""
    assert "t1: a -> b1 : go(v) {n' == v}" in out


def test_refine_apply_takes_no_exploration_bounds():
    # Rule side conditions do not depend on the length, internal-step or
    # output bounds, so refine apply does not accept them.
    for flag in ("--k", "--eps-budget", "--output-cap"):
        with pytest.raises(SystemExit) as exc:
            run("refine", "apply", CALLPROC, ABANDON, "--env", DEFAULT_ENV, flag, "3")
        assert exc.value.code == 2


def test_refine_apply_honors_state_cap(tmp_path):
    patch = tmp_path / "prune.feat"
    patch.write_text("feature prune on tel {\n  remove-states { busytone }\n}\n")
    code, out, err = run("refine", "apply", TEL, str(patch), "--state-cap", "1")
    assert code == 3 and out == ""
    assert "state_cap" in err
    code, _, err = run("refine", "apply", TEL, str(patch))
    assert code == 1
    assert "state 'busytone' is reachable" in err


# ---------------------------------------------------------------------------
# feature conflicts
# ---------------------------------------------------------------------------


def test_feature_conflicts_conflicting_pair_exits_one():
    code, out, err = run("feature", "conflicts", DUO, LEFT, RIGHT)
    assert code == 1 and err == ""
    assert "conflict-left x conflict-right: conflicting" in out
    assert "order conflict-left then conflict-right" in out


def test_feature_conflicts_compatible_pair_exits_zero(step_file):
    fwd = str(corpus_path("forwarding.feat"))
    blk = str(corpus_path("blocking.feat"))
    code, out, _ = run(
        "feature", "conflicts", step_file(2), fwd, blk, "--env", DEFAULT_ENV, "--k", "2"
    )
    assert code == 0
    assert "compatible" in out


def test_feature_conflicts_reports_an_inapplicable_feature():
    fwd = str(corpus_path("forwarding.feat"))
    blk = str(corpus_path("blocking.feat"))
    code, out, _ = run(
        "feature", "conflicts", CALLPROC, fwd, blk, "--env", DEFAULT_ENV, "--k", "2"
    )
    assert code == 1
    assert "forwarding x blocking: inapplicable" in out
    assert "does not apply" in out
    code, out, _ = run(
        "feature", "conflicts", CALLPROC, fwd, blk, "--env", DEFAULT_ENV, "--k", "2", "--json"
    )
    assert code == 1
    (doc,) = json.loads(out)
    assert doc["verdict"] == "inapplicable"
    check_against(doc, "conflict")


def test_feature_conflicts_json_validates_against_schema():
    code, out, _ = run("feature", "conflicts", DUO, LEFT, RIGHT, "--json")
    assert code == 1
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 1
    assert docs[0]["format"] == "conflict/1"
    check_against(docs[0], "conflict")


def test_feature_conflicts_requires_two_patches():
    code, _, err = run("feature", "conflicts", DUO, LEFT)
    assert code == 2 and err


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_dot_emits_digraph():
    code, out, _ = run("export", "dot", DUO)
    assert code == 0
    assert out.startswith('digraph "duo"')
    assert '"start"' in out


def test_export_json_round_trips():
    code, out, _ = run("export", "json", TEL)
    assert code == 0
    doc = json.loads(out)
    check_against(doc, "std")
    from stdrefine import std_from_json

    assert std_from_json(doc) == corpus_std("tel.std")


def test_export_picks_its_format_by_argument_only():
    with pytest.raises(SystemExit) as exc:
        run("export", "dot", DUO, "--json")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# usage and determinism
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_negative_bound_is_usage_error():
    code, _, err = run("simulate", TEL, "--input", "LT", "--eps-budget", "-1")
    assert code == 2 and "non-negative" in err


def test_reports_are_byte_identical_across_runs():
    for argv in (
        ("check", TEL),
        ("check", TEL, "--json"),
        ("simulate", TEL, "--input", "LT, DL(2)"),
        ("feature", "conflicts", DUO, LEFT, RIGHT),
    ):
        a = run(*argv)
        b = run(*argv)
        assert a == b


def test_console_entry_point_matches_in_process_run():
    # The subprocess imports the same stdrefine as this process, installed or not.
    src = str(Path(stdrefine.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "stdrefine.cli", "check", TEL],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    code, out, err = run("check", TEL)
    assert proc.returncode == code
    assert proc.stdout == out
