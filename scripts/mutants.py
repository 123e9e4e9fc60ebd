#!/usr/bin/env python3
"""Mutants of the package that the tests must kill.

Each entry of `MUTANTS` names a file under `src/stdrefine/`, a text that
occurs exactly once in it, the one-line change to make there, and the tests
that must fail once it is made.  For each mutant the script copies `src/`
into a temporary directory, applies the change there and runs only the listed
tests against the copy.  A mutant is killed iff pytest exits non-zero.  An
equivalent mutant (one that changes no machine's behaviour, so no
behavioural test needs to kill it) is listed with its argument instead of
killers, and is not run.  The listed tests are first run once against an
unchanged copy, where they must pass.

Prints one line per mutant and exits 1 if any mutant survives.  Run it from
anywhere, with the test dependencies installed:

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/stdrefine/
    old: str
    new: str
    killers: tuple[str, ...] = ()  # pytest node ids, relative to the repository
    argument: str = ""  # why an equivalent mutant changes no behaviour


MUTANTS = (
    Mutant(
        "M8: add-states lets an old state lead into a new one",
        "refine.py",
        "if t.source not in fresh or t.target not in fresh:",
        "if t.target not in fresh:",
        (
            "tests/test_refine.py::test_add_states_rejects_payload_touching_old_states",
            "tests/test_refine.py::test_add_states_rejects_every_generated_wiring_from_an_old_state",
        ),
    ),
    Mutant(
        "M8': add-states lets a new state lead into an old one",
        "refine.py",
        "if t.source not in fresh or t.target not in fresh:",
        "if t.source not in fresh:",
        argument="new states are unreachable, and so are their transitions: one "
        "that leads to an old state adds no behaviour (the stricter rule's rejection "
        "text is still pinned by test_add_states_rejects_payload_touching_old_states)",
    ),
    Mutant(
        "M18: inclusion ignores divergent outputs",
        "refine.py",
        "if not ec.divergent <= ea.divergent:",
        "if False:",
        ("tests/test_refine.py::test_an_undeclared_divergent_output_fails_inclusion_and_equivalence",),
    ),
    Mutant(
        "M19: inclusion ignores the output cap",
        "refine.py",
        "if ec.capped and not ea.capped:",
        "if False:",
        ("tests/test_refine.py::test_a_concrete_output_cap_fails_inclusion_and_equivalence",),
    ),
    Mutant(
        "M20: equal priorities exclude each other",
        "model.py",
        "and std.transitions[j].priority < t.priority",
        "and std.transitions[j].priority <= t.priority",
        ("tests/test_model.py::test_transitions_of_equal_or_no_priority_are_not_ordered",),
    ),
    Mutant(
        "equivalence drops the reverse inclusion",
        "refine.py",
        "backward = trace_inclusion(ts_b, ts_a)",
        "backward = forward",
        (
            "tests/test_refine.py::test_equivalence_reports_the_inclusion_failing_at_the_shorter_input",
            "tests/test_refine.py::test_equivalence_agrees_with_the_enumerating_oracle",
        ),
    ),
    Mutant(
        "equivalence breaks a tie the other way",
        "refine.py",
        "return min(failures, key=lambda v: seq_key(v.witness.input))",
        "return min(failures[::-1], key=lambda v: seq_key(v.witness.input))",
        ("tests/test_refine.py::test_equivalence_reports_the_first_inclusion_on_a_tie",),
    ),
    Mutant(
        "a conflict order is compared with the first single machine only",
        "features.py",
        "for single in (0, 1):",
        "for single in (0,):",
        ("tests/test_features.py::test_an_order_must_refine_the_second_single_machine_too",),
    ),
    Mutant(
        "conflict detection skips the both-orders equivalence",
        "features.py",
        "if len(passed) == 2:",
        "if False:",
        (
            "tests/test_features.py::test_two_passing_orders_that_disagree_conflict",
            "tests/test_features.py::test_compatible_features_merge_and_refine_both_singles",
        ),
    ),
    Mutant(
        "a feature's later rule takes its own new transitions as sort-checked",
        "refine.py",
        "problems = validate_std(result, checked=bindings.checked(work))",
        "problems = validate_std(result, checked=set(result.transitions) if bindings.checked(work) else ())",
        (
            "tests/test_features.py::test_a_later_rule_sort_checks_the_transitions_it_adds",
            "tests/test_properties.py::test_a_later_rule_of_a_feature_is_validated_as_a_first_rule_is",
        ),
    ),
    Mutant(
        "a feature's first rule takes the input's transitions as sort-checked",
        "interp.py",
        "return self._checked.get(declarations(std), ())",
        "return self._checked.get(declarations(std), std.transitions)",
        ("tests/test_features.py::test_an_ill_sorted_input_fails_the_first_rule_with_every_problem",),
    ),
    Mutant(
        "a transition is recorded as sort-checked when its rule's result had problems",
        "refine.py",
        "problems = validate_std(result, checked=bindings.checked(work))",
        "problems = validate_std(result, checked=bindings.checked(work)); "
        "bindings.record_checked(work, result.transitions)",
        ("tests/test_refine.py::test_a_rejected_rule_records_no_transition_as_sort_checked",),
    ),
    Mutant(
        "a shared enabled answer is keyed without its trigger",
        "interp.py",
        "question = (tid, config.valuation, trigger)",
        "question = (tid, config.valuation)",
        (
            "tests/test_properties.py::test_a_corpus_report_serves_the_enabled_answers_of_the_oracle",
            "tests/test_properties.py::test_generated_reports_serve_the_enabled_answers_of_the_oracle",
        ),
    ),
    Mutant(
        "a Machine with different attributes joins a binding",
        "interp.py",
        "return (std.domains, std.uses, std.signature, std.attributes)",
        "return (std.domains, std.uses, std.signature)",
        (
            "tests/test_refine.py::test_machines_bind_apart_when_their_declarations_differ",
            "tests/test_refine.py::test_refinement_between_different_attributes_binds_each_machine_apart",
        ),
    ),
    Mutant(
        "conflict detection shares the orders' trace set when only their states agree",
        "features.py",
        "_unordered(machines[2]) == _unordered(machines[3])",
        "set(machines[2].states) == set(machines[3].states)",
        (
            "tests/test_features.py::test_two_passing_orders_that_disagree_conflict",
            "tests/test_features.py::test_stubbed_orders_share_a_trace_set_only_when_equal_up_to_order",
        ),
    ),
    Mutant(
        "remove-transitions judges an internal transition as an input one",
        "refine.py",
        "if trigger is None:",
        "if False:",
        ("tests/test_refine.py::test_remove_transition_rejects_leaving_no_internal_transition",),
    ),
)


def run_tests(src: Path, node_ids: list[str]) -> int:
    """Exit code of pytest on `node_ids`, importing the package from `src`."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         # the project's own `pythonpath` setting would put the original src/ first
         "-o", "pythonpath=", *node_ids],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    return proc.returncode


def main() -> int:
    killers = sorted({k for m in MUTANTS for k in m.killers})
    with tempfile.TemporaryDirectory() as tmp:
        pristine = Path(tmp) / "pristine"
        shutil.copytree(ROOT / "src", pristine, ignore=shutil.ignore_patterns("__pycache__"))
        if run_tests(pristine, killers) != 0:
            print("the listed tests fail on the unchanged package; no mutant can be judged")
            return 1

        survived = 0
        for m in MUTANTS:
            if not m.killers:
                print(f"equivalent  {m.name} ({m.file}): {m.argument}")
                continue
            copy = Path(tmp) / "mutant"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(pristine, copy)
            path = copy / "stdrefine" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"stale       {m.name} ({m.file}): the old text occurs {text.count(m.old)} times")
                survived += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            killed = run_tests(copy, list(m.killers)) != 0
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':<11} {m.name} ({m.file}, "
                  f"{len(m.killers)} test(s), {time.perf_counter() - start:.1f} s)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
