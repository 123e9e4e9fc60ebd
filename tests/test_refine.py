"""The six transformation rules and the bounded refinement check."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import corpus_std
from machine_gen import gen_application, gen_std, gen_wiring
from oracles import input_closure, oracle_traces

import stdrefine

from stdrefine import interp, model, refine
from stdrefine import (
    AddStates,
    AddTransitions,
    Bounds,
    Msg,
    RemoveInitialStates,
    RemoveStates,
    RemoveTransitions,
    RuleError,
    SignatureMismatch,
    SplitState,
    Transition,
    apply_rule,
    check_refinement,
    make_environment,
    parse_std,
    print_std,
    simulate_prefixes,
    trace_equivalence,
    trace_inclusion,
    traces,
)
from stdrefine.interp import CHAOS_ENTRY, Witness, seq_key
from stdrefine.model import (
    EMPTY_ENV,
    TRUE,
    AttrRef,
    BinOp,
    ElseGuard,
    Head,
    Len,
    Lit,
    Not,
    PrimedRef,
    conj,
    message_instances,
    replace,
)

B = Bounds(max_input_len=3, eps_budget=3, output_cap=16)

BASE_SRC = """
std base = {
  input go | stop
  output a | b
  attributes x :: Int 0..1
  states s0 init {x == 0}, s1
  t1: s0 -> s1 : go / [a] {x' == x}
  t2: s1 -> s0 : stop / [b] {x' == x}
}
"""

GUARDED_SRC = """
std guarded = {
  input go | stop
  output a | b
  attributes x :: Int 0..1
  states s0 init {x == 0}, s1
  t1: s0 -> s1 : {x == 0} go / [a] {x' == x}
  t2: s1 -> s0 : stop / [b] {x' == x}
}
"""


@pytest.fixture()
def base():
    return parse_std(BASE_SRC)


@pytest.fixture()
def guarded():
    return parse_std(GUARDED_SRC)


def _pin(name="x"):
    return BinOp("eq", PrimedRef(name), AttrRef(name))


def _t(label, source, target, trigger, guard=TRUE, outputs=(), post=None):
    return Transition(
        label=label,
        source=source,
        target=target,
        trigger=trigger,
        params=(),
        guard=guard,
        outputs=tuple(outputs),
        post=_pin() if post is None else post,
    )


# ---------------------------------------------------------------------------
# Rule: adding states
# ---------------------------------------------------------------------------


def test_add_states_plain(base):
    out = apply_rule(base, AddStates(("limbo",)), EMPTY_ENV, B)
    assert "limbo" in out.states
    assert check_refinement(base, out, EMPTY_ENV, B).ok


def test_add_states_with_internal_wiring(base):
    t = _t("w1", "limbo", "limbo2", None)
    out = apply_rule(base, AddStates(("limbo", "limbo2"), (t,)), EMPTY_ENV, B)
    assert out.transition("w1") is not None
    assert check_refinement(base, out, EMPTY_ENV, B).ok


def test_add_states_rejects_existing_name(base):
    with pytest.raises(RuleError, match="s1"):
        apply_rule(base, AddStates(("s1",)), EMPTY_ENV, B)


def test_add_states_rejects_payload_touching_old_states(base):
    t = _t("w1", "limbo", "s0", None)
    with pytest.raises(RuleError, match="new states only"):
        apply_rule(base, AddStates(("limbo",), (t,)), EMPTY_ENV, B)
    # An old state's transition into a new one would make it reachable.
    std = parse_std("std m = { input go output a | b states s init  t: s -> s : go / [a] }")
    t2 = _t("t2", "s", "w", "go", outputs=(("b", ()),), post=TRUE)
    with pytest.raises(RuleError) as raised:
        apply_rule(std, AddStates(("w",), (t2,)), EMPTY_ENV, B)
    assert str(raised.value) == (
        "rule add-states: payload transitions must connect the new states only "
        "(anything else could make them reachable) [witness: transition t2->w]"
    )


def test_add_states_rejects_every_generated_wiring_from_an_old_state():
    rng = random.Random(3)
    for i in range(200):
        std = gen_std(rng, name=f"gen{i}")
        fresh, t = gen_wiring(rng, std)
        with pytest.raises(RuleError) as raised:
            apply_rule(std, AddStates((fresh,), (t,)), EMPTY_ENV)
        assert str(raised.value) == (
            "rule add-states: payload transitions must connect the new states only "
            "(anything else could make them reachable) "
            f"[witness: transition {t.label}->{fresh}]"
        )


def test_a_state_wired_by_add_transitions_after_add_states_refines():
    # The two-step wiring the one-step proposal above must not take.
    bounds = Bounds(max_input_len=3, eps_budget=2)
    rng = random.Random(3)
    accepted = 0
    for i in range(200):
        std = gen_std(rng, name=f"gen{i}")
        fresh, t = gen_wiring(rng, std)
        grown = apply_rule(std, AddStates((fresh,)), EMPTY_ENV)
        try:
            wired = apply_rule(grown, AddTransitions((t,)), EMPTY_ENV)
        except RuleError:
            continue
        accepted += 1
        verdict = check_refinement(std, wired, EMPTY_ENV, bounds)
        assert verdict.ok, (print_std(std), t, verdict.describe())
    assert accepted > 80


# ---------------------------------------------------------------------------
# Rule: removing states
# ---------------------------------------------------------------------------


def test_remove_states_accepts_unreachable(base):
    grown = apply_rule(base, AddStates(("limbo",)), EMPTY_ENV, B)
    out = apply_rule(grown, RemoveStates(("limbo",)), EMPTY_ENV, B)
    assert out.states == base.states
    assert check_refinement(grown, out, EMPTY_ENV, B).ok


def test_remove_states_rejects_reachable(base):
    with pytest.raises(RuleError, match="unreachable"):
        apply_rule(base, RemoveStates(("s1",)), EMPTY_ENV, B)


def test_remove_states_rejects_unknown(base):
    with pytest.raises(RuleError):
        apply_rule(base, RemoveStates(("nosuch",)), EMPTY_ENV, B)


# b is entered on the sixth go only, beyond the default input bound.
LATE_SRC = """
std late = { input go  output o  attributes x :: Int 0..5
  states a init {x == 0}, b
  t1: a -> a : {x < 5} go / [o] {x' == x + 1}
  t2: a -> b : {x == 5} go / [o] {x' == x}
  t3: b -> b : go / [o] {x' == x} }
"""

# b is entered after 20 internal steps while the first go is pending, beyond
# the default internal-step budget.
DEEP_SRC = """
std deep = { input go  output o | p  attributes x :: Int 0..20
  states a init {x == 0}, b
  t0: a -> a : {x < 20} eps / [] {x' == x + 1}
  t1: a -> b : {x == 20} eps / [o] {x' == x}
  t2: b -> b : go / [p] {x' == x} }
"""


@pytest.mark.parametrize(
    "src, bounds",
    [(LATE_SRC, Bounds(max_input_len=6)), (DEEP_SRC, Bounds(max_input_len=1, eps_budget=21))],
    ids=["input-bound", "eps-budget"],
)
def test_remove_states_rejects_states_reached_beyond_the_bounds(src, bounds):
    std = parse_std(src)
    with pytest.raises(RuleError, match="state 'b' is reachable"):
        apply_rule(std, RemoveStates(("b",)), EMPTY_ENV)
    # What the rule would produce is not a refinement at these bounds.
    pruned = replace(
        std,
        states=("a",),
        transitions=tuple(t for t in std.transitions if "b" not in (t.source, t.target)),
    )
    assert not check_refinement(std, pruned, EMPTY_ENV, bounds).ok


# ---------------------------------------------------------------------------
# Rule: splitting a state
# ---------------------------------------------------------------------------


def test_split_redirects_incoming_and_copies_outgoing(base):
    app = SplitState("s1", ("s1a", "s1b"), (("t1", "s1a", None),))
    out = apply_rule(base, app, EMPTY_ENV, B)
    assert "s1" not in out.states and {"s1a", "s1b"} <= set(out.states)
    assert out.transition("t1").target == "s1a"
    assert out.transition("t2__s1a").source == "s1a"
    assert out.transition("t2__s1b").source == "s1b"
    assert check_refinement(base, out, EMPTY_ENV, B).ok


def test_split_initial_state_marks_every_part(base):
    app = SplitState("s0", ("s0a", "s0b"), (("t2", "s0a", None),))
    out = apply_rule(base, app, EMPTY_ENV, B)
    assert {s for s, _ in out.initial} == {"s0a", "s0b"}
    assert check_refinement(base, out, EMPTY_ENV, B).ok


def test_split_accepts_implying_strengthened_post(base):
    app = SplitState("s1", ("s1a", "s1b"), (("t1", "s1a", _pin()),))
    out = apply_rule(base, app, EMPTY_ENV, B)
    assert check_refinement(base, out, EMPTY_ENV, B).ok


def test_split_rejects_non_implying_strengthening(base):
    stronger = BinOp("eq", PrimedRef("x"), BinOp("sub", Lit(1), AttrRef("x")))
    app = SplitState("s1", ("s1a", "s1b"), (("t1", "s1a", stronger),))
    with pytest.raises(RuleError, match="does not imply"):
        apply_rule(base, app, EMPTY_ENV, B)


def test_split_rejects_unsatisfiable_strengthening(base):
    app = SplitState("s1", ("s1a", "s1b"), (("t1", "s1a", Lit(False)),))
    with pytest.raises(RuleError, match="is unsatisfiable where the original was satisfiable"):
        apply_rule(base, app, EMPTY_ENV, B)


def test_split_requires_every_incoming_redirected(base):
    app = SplitState("s1", ("s1a", "s1b"), ())
    with pytest.raises(RuleError, match="t1"):
        apply_rule(base, app, EMPTY_ENV, B)


def test_split_rejects_redirect_to_non_part(base):
    app = SplitState("s1", ("s1a", "s1b"), (("t1", "s0", None),))
    with pytest.raises(RuleError, match="which is not a part"):
        apply_rule(base, app, EMPTY_ENV, B)


def test_split_rejects_redirect_of_non_incoming(base):
    app = SplitState("s1", ("s1a", "s1b"), (("t1", "s1a", None), ("t2", "s1b", None)))
    with pytest.raises(RuleError, match="which does not enter 's1'"):
        apply_rule(base, app, EMPTY_ENV, B)


# ---------------------------------------------------------------------------
# Rule: adding transitions
# ---------------------------------------------------------------------------


def test_add_external_fills_unspecified_input(base):
    # (s0, stop) has no transition, so the machine is unconstrained there;
    # describing it is a refinement.
    t3 = _t("t3", "s0", "s0", "stop", outputs=(("b", ()),))
    out = apply_rule(base, AddTransitions((t3,)), EMPTY_ENV, B)
    stop = (Msg("stop"),)
    assert not simulate_prefixes(out, EMPTY_ENV, stop, B).entry(stop).chaos
    assert simulate_prefixes(base, EMPTY_ENV, stop, B).entry(stop).chaos
    assert check_refinement(base, out, EMPTY_ENV, B).ok


def test_add_external_rejects_same_trigger_overlap(base):
    t1b = _t("t1b", "s0", "s0", "go", outputs=(("b", ()),))
    with pytest.raises(RuleError, match="same trigger"):
        apply_rule(base, AddTransitions((t1b,)), EMPTY_ENV, B)


def test_add_external_accepts_guard_disjoint_same_trigger(guarded):
    t1b = _t(
        "t1b", "s0", "s0", "go", guard=BinOp("eq", AttrRef("x"), Lit(1)), outputs=(("b", ()),)
    )
    out = apply_rule(guarded, AddTransitions((t1b,)), EMPTY_ENV, B)
    assert check_refinement(guarded, out, EMPTY_ENV, B).ok


def test_add_internal_rejects_overlap_with_any_existing(base):
    e1 = _t("e1", "s0", "s0", None, guard=BinOp("eq", AttrRef("x"), Lit(1)))
    with pytest.raises(RuleError, match="overlaps existing"):
        apply_rule(base, AddTransitions((e1,)), EMPTY_ENV, B)


def test_add_internal_accepts_disjoint_guard(guarded):
    e1 = _t("e1", "s0", "s0", None, guard=BinOp("eq", AttrRef("x"), Lit(1)))
    out = apply_rule(guarded, AddTransitions((e1,)), EMPTY_ENV, B)
    assert check_refinement(guarded, out, EMPTY_ENV, B).ok


def _counting_enabled(monkeypatch):
    """Record (key, trigger) for every question that misses the memo of
    `Machine.enabled`: each `_find_enabled` call of a lone Machine, each
    `_find_shared` call of a request's (which asks `_find_enabled` one
    transition at a time)."""
    asked = []
    for name in ("_find_enabled", "_find_shared"):

        def counting(machine, config, trigger, *group, find=getattr(interp.Machine, name)):
            if not group:
                asked.append((machine.key(config), trigger))
            return find(machine, config, trigger, *group)

        monkeypatch.setattr(interp.Machine, name, counting)
    return asked


def test_add_transitions_asks_each_question_once_per_read_key(monkeypatch):
    # t3 has three trigger instances, go(0..2); e1 and e2 raise the same
    # internal and per-input questions at every configuration of s2.  t2,
    # which leaves s1, reads x, so s1[x=0] and s1[x=1] are asked apart; no
    # transition leaves s2, so its two configurations share one key.
    std = parse_std(
        """
std wide = {
  input go(Int 0..2) | stop
  output a | b
  attributes x :: Int 0..1
  states s0 init {x == 0}, s1, s2
  t1: s0 -> s1 : go(n) / [a] {x' == x}
  t2: s1 -> s0 : stop / [b] {x' == x}
}
"""
    )
    t3 = replace(_t("t3", "s1", "s1", "go", outputs=(("b", ()),)), params=("n",))
    e1 = _t("e1", "s2", "s0", None)
    e2 = _t("e2", "s2", "s0", None, outputs=(("a", ()),))
    asked = _counting_enabled(monkeypatch)
    out = apply_rule(std, AddTransitions((t3, e1, e2)), EMPTY_ENV, B)
    monkeypatch.undo()
    assert [t.label for t in out.transitions] == ["t1", "t2", "t3", "e1", "e2"]
    internal = [key for key, trigger in asked if trigger is None]
    assert internal == [("s1", ("x", 0)), ("s1", ("x", 1)), ("s2", ())]
    assert len(asked) == len(set(asked)) == 2 * (3 + 1) + 1 * (1 + 4) == 13


WIDE_SRC = """
std wide = {
  input go | stop
  output a
  attributes x :: Int 0..2
  attributes y :: Int 0..3
  states s0 init, s1
  t1: s0 -> s0 : go / [a] {x' == x && y' == y}
  t2: s1 -> s1 : {x == 1} go / [a] {x' == x && y' == y}
}
"""


def _guard_evaluations(monkeypatch, std, app, guard):
    """The x of each valuation at which applying `app` evaluates `guard`."""
    evaluated = []
    holds = interp.guard_holds

    def counting(expr, *args, **kwargs):
        if expr == guard:
            evaluated.append(args[0]["x"])
        return holds(expr, *args, **kwargs)

    monkeypatch.setattr(interp, "guard_holds", counting)
    apply_rule(std, app, EMPTY_ENV, B)
    return evaluated


def test_add_transitions_evaluates_a_guard_once_per_read_value(monkeypatch):
    # t3's guard reads x only, so it is evaluated once per value of x and
    # trigger instance, not once per valuation of (x, y).
    t3 = _t("t3", "s0", "s0", "stop", guard=BinOp("eq", AttrRef("x"), Lit(1)), post=TRUE)
    app = AddTransitions((t3,))
    assert _guard_evaluations(monkeypatch, parse_std(WIDE_SRC), app, t3.guard) == [0, 1, 2]


def test_split_state_evaluates_a_guard_once_per_read_value(monkeypatch):
    # So is the guard of t2, whose postcondition the split restates.
    std = parse_std(WIDE_SRC)
    t2 = std.transition("t2")
    app = SplitState("s1", ("s1a", "s1b"), (("t2", "s1a", t2.post),))
    assert _guard_evaluations(monkeypatch, std, app, t2.guard) == [0, 1, 2]


def test_rule_payloads_may_not_use_else(base):
    t = _t("t3", "s1", "s1", "go", guard=ElseGuard())
    with pytest.raises(RuleError, match="'else' guards are not allowed in rule payloads"):
        apply_rule(base, AddTransitions((t,)), EMPTY_ENV, B)


def test_an_else_below_the_top_of_a_payload_guard_is_invalid(base):
    # Only an API-built payload can hold one: the parser reads no `else`
    # inside an expression.
    t = _t("t3", "s1", "s1", "go", guard=BinOp("and", TRUE, Not(ElseGuard())))
    with pytest.raises(RuleError, match="'else' may only appear as the entire guard of a transition"):
        apply_rule(base, AddTransitions((t,)), EMPTY_ENV, B)


def test_payload_priorities_are_local_to_the_batch():
    # t0 is @1 in the same (s, go) group as the payload, but p2's guard
    # negates only the higher-priority guard of its own batch, p1's.
    std = parse_std(PRIO_TEMPLATE.format("t0: s -> s : {x == 0} go / [a] {x' == x} @1"))
    p1, p2 = parse_std(PRIO_TEMPLATE.format(PRIO_PAYLOAD)).transitions
    out = apply_rule(std, AddTransitions((p1, p2)), EMPTY_ENV, B)
    assert [(t.label, t.priority) for t in out.transitions] == [
        ("t0", None), ("p1", None), ("p2", None)
    ]
    assert out.transition("p1").guard == p1.guard
    assert out.transition("p2").guard == conj(p2.guard, Not(p1.guard))


PRIO_TEMPLATE = """
std prio = {{
  input go
  output a | b | c
  attributes x :: Int 0..3
  states s init {{x == 0}}
  {}
}}
"""
PRIO_PAYLOAD = """
  p1: s -> s : {x >= 2} go / [b] {x' == x} @1
  p2: s -> s : {x >= 1} go / [c] {x' == x} @2
"""


def test_add_transitions_rejects_duplicate_label(base):
    t = _t("t1", "s0", "s0", "stop")
    with pytest.raises(RuleError, match="label"):
        apply_rule(base, AddTransitions((t,)), EMPTY_ENV, B)


# ---------------------------------------------------------------------------
# Rule: removing transitions
# ---------------------------------------------------------------------------


def test_remove_transition_with_remaining_cover():
    redundant = parse_std(
        """
std redundant = {
  input go
  output a | b
  states s0 init, s1
  t1: s0 -> s1 : go / [a]
  t1b: s0 -> s1 : go / [b]
}
"""
    )
    out = apply_rule(redundant, RemoveTransitions(("t1b",)), EMPTY_ENV, B)
    assert out.transition("t1b") is None
    assert check_refinement(redundant, out, EMPTY_ENV, B).ok
    go = (Msg("go"),)
    entry = simulate_prefixes(out, EMPTY_ENV, go, B).entry(go)
    assert {o[0].ctor for o in entry.outputs} == {"a"}


def test_remove_transition_rejects_uncovering_removal(base):
    with pytest.raises(RuleError, match="unhandled"):
        apply_rule(base, RemoveTransitions(("t2",)), EMPTY_ENV, B)


def test_remove_transition_rejects_leaving_no_internal_transition():
    # e1 is the only internal transition at s1; without it, s1 takes no
    # internal step where the original took one.
    std = parse_std(BASE_SRC.replace("  t2:", "  e1: s1 -> s0 : eps / [b] {x' == x}\n  t2:"))
    with pytest.raises(RuleError) as raised:
        apply_rule(std, RemoveTransitions(("e1",)), EMPTY_ENV, B)
    assert str(raised.value) == (
        "rule remove-transitions: removing 'e1' leaves no internal transition where it "
        "was enabled [witness: configuration s1[x=0]]"
    )


def test_remove_transitions_asks_each_question_once_per_read_key(monkeypatch):
    # No transition leaving s0 reads x, so the three reachable configurations
    # of s0 share one key.  The side condition asks the machine's memoised
    # `enabled`, which reachability has already asked every question it
    # raises: `_find_enabled` sees exactly the questions of reachability alone.
    std = parse_std(
        """
std cover = {
  input go | stop
  output a | b
  attributes x :: Int 0..2
  states s0 init, s1
  t1: s0 -> s1 : go / [a]
  t1b: s0 -> s1 : go / [b]
  t2: s1 -> s0 : stop / [b]
}
"""
    )

    asked = _counting_enabled(monkeypatch)
    out = apply_rule(std, RemoveTransitions(("t1b",)), EMPTY_ENV, B)
    assert [t.label for t in out.transitions] == ["t1", "t2"]
    assert len(asked) == len(set(asked))
    monkeypatch.undo()
    alone = _counting_enabled(monkeypatch)
    interp.reachable_configurations(interp.Machine(std, EMPTY_ENV, Bounds(eps_budget=1)))
    assert sorted(asked, key=repr) == sorted(alone, key=repr)
    assert (("s0", ()), Msg("go")) in asked


# t2's guard holds, but its postcondition pins x out of range, so t2 has no
# reaction: it is not enabled.
UNPRODUCTIVE_SRC = """
std unproductive = { input go  output o | p  attributes x :: Int 0..3
  states a init {x == 0}
  t1: a -> a : go / [o] {x' == x}
  t2: a -> a : go / [p] {x' == 5} }
"""


def test_remove_transition_rejects_an_alternative_without_reactions():
    std = parse_std(UNPRODUCTIVE_SRC)
    with pytest.raises(RuleError, match="leaves go unhandled"):
        apply_rule(std, RemoveTransitions(("t1",)), EMPTY_ENV)
    pruned = replace(std, transitions=(std.transition("t2"),))
    assert not check_refinement(std, pruned, EMPTY_ENV, B).ok


def test_add_transition_where_the_only_guard_has_no_reactions():
    # go at a is unspecified (chaos) while only t2 leaves it, so a new go
    # transition there is a refinement.
    unproductive = parse_std(UNPRODUCTIVE_SRC)
    std = replace(unproductive, transitions=(unproductive.transition("t2"),))
    out = apply_rule(std, AddTransitions((_t("t3", "a", "a", "go", outputs=[("o", ())]),)), EMPTY_ENV)
    assert check_refinement(std, out, EMPTY_ENV, B).ok
    assert not check_refinement(out, std, EMPTY_ENV, B).ok


def test_remove_transition_at_unreachable_state_is_fine(base):
    t = _t("w1", "limbo", "limbo", None)
    grown = apply_rule(base, AddStates(("limbo",), (t,)), EMPTY_ENV, B)
    out = apply_rule(grown, RemoveTransitions(("w1",)), EMPTY_ENV, B)
    assert out.transition("w1") is None
    assert check_refinement(grown, out, EMPTY_ENV, B).ok


HUED_SRC = """
std hued = {
  domain Hue = {red, green}
  input go
  output a
  attributes x0 :: Bool
  attributes x1 :: Hue
  attributes x2 :: Int 0..2
  states s0 init
  t0: s0 -> s0 : go / [a] {x0' == x0 && x1' == x1 && x2' == x2}
}
"""

REJECT_SCRIPT = f"""
from stdrefine import RemoveTransitions, RuleError, apply_rule, parse_std
from stdrefine.model import EMPTY_ENV
try:
    apply_rule(parse_std({HUED_SRC!r}), RemoveTransitions(("t0",)), EMPTY_ENV)
except RuleError as exc:
    print(exc)
"""


def test_remove_transition_witness_is_least_configuration_under_any_hash_seed():
    src = str(Path(stdrefine.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    messages = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", REJECT_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        messages.add(proc.stdout)
    assert messages == {
        "rule remove-transitions: removing 't0' leaves go unhandled where it was "
        "accepted [witness: configuration s0[x0=false, x1=green, x2=0]]\n"
    }


def test_remove_transition_unknown_label(base):
    with pytest.raises(RuleError, match="nosuch"):
        apply_rule(base, RemoveTransitions(("nosuch",)), EMPTY_ENV, B)


# ---------------------------------------------------------------------------
# Rule: removing initial states
# ---------------------------------------------------------------------------


def test_remove_initial_state():
    two = parse_std(
        """
std two = {
  input go
  output a
  states s0 init, s1 init
  t1: s0 -> s1 : go / [a]
  t2: s1 -> s1 : go / [a]
}
"""
    )
    out = apply_rule(two, RemoveInitialStates(("s1",)), EMPTY_ENV, B)
    assert [s for s, _ in out.initial] == ["s0"]
    assert check_refinement(two, out, EMPTY_ENV, B).ok


def test_remove_initial_rejects_last_marking(base):
    # The same text as removing every initial state with remove-states.
    with pytest.raises(RuleError) as exc:
        apply_rule(base, RemoveInitialStates(("s0",)), EMPTY_ENV, B)
    assert str(exc.value) == (
        "rule remove-initial-states: the transformed machine is invalid: "
        "initial: no initial control state"
    )


def test_remove_initial_rejects_non_initial(base):
    with pytest.raises(RuleError, match="not an initial state"):
        apply_rule(base, RemoveInitialStates(("s1",)), EMPTY_ENV, B)


# ---------------------------------------------------------------------------
# apply_rule generalities
# ---------------------------------------------------------------------------


def test_apply_rule_preserves_signature_and_domains(base):
    apps = [
        AddStates(("limbo",)),
        AddTransitions((_t("t3", "s0", "s0", "stop", outputs=(("b", ()),)),)),
        SplitState("s1", ("s1a", "s1b"), (("t1", "s1a", None),)),
    ]
    for app in apps:
        out = apply_rule(base, app, EMPTY_ENV, B)
        assert out.signature == base.signature
        assert out.domains == base.domains
        assert out.attributes == base.attributes


def test_rule_error_carries_witness(base):
    t1b = _t("t1b", "s0", "s0", "go", outputs=(("b", ()),))
    with pytest.raises(RuleError) as info:
        apply_rule(base, AddTransitions((t1b,)), EMPTY_ENV, B)
    assert "witness" in str(info.value)


def test_remove_transitions_binds_the_environment_once(base, monkeypatch):
    grown = apply_rule(base, AddStates(("limbo",), (_t("w1", "limbo", "limbo", None),)), EMPTY_ENV)
    bound = []

    def counting(std, env):
        bound.append(std.name)
        return model.bind_environment(std, env)

    monkeypatch.setattr(interp, "bind_environment", counting)
    monkeypatch.setattr(refine, "bind_environment", counting, raising=False)
    apply_rule(grown, RemoveTransitions(("w1",)), EMPTY_ENV)
    assert bound == ["base"]


# Hue disagrees between PAINTED_SRC and MISFIT, so the environment does not
# fit the diagram.
PAINTED_SRC = """
std painted = {
  domain Hue = {red, green}
  input go
  output a
  attributes h :: Hue
  states s0 init, s1 init
  t0: s0 -> s1 : go / [a] {h' == h}
  t1: s1 -> s0 : go / [a] {h' == h}
}
"""
MISFIT = make_environment(domains={"Hue": ("blue",)})


INVALID = "the transformed machine is invalid: "


@pytest.mark.parametrize(
    "app,raised,match",
    [
        pytest.param(AddStates(("limbo",)), None, None, id="add-states"),
        pytest.param(RemoveInitialStates(("s1",)), None, None, id="remove-initial-states"),
        pytest.param(SplitState("s1", ("s1a",), (("t0", "s1a", None),)), None, None,
                     id="split-state"),
        pytest.param(SplitState("s1", ("s1a", "s1b"), ()), RuleError, "has no redirect",
                     id="split-state-malformed"),
        pytest.param(SplitState("s1", ("s1a",), (("t0", "s1a", BinOp(
                         "eq", PrimedRef("h"), AttrRef("h"))),)),
                     ValueError, "does not fit", id="split-state-strengthened"),
        pytest.param(AddTransitions((_t("t9", "nowhere", "s0", "go", post=TRUE),)), RuleError,
                     INVALID + "transition t9: unknown source state 'nowhere'",
                     id="add-transitions-malformed"),
        pytest.param(AddTransitions((_t("t9", "s0", "s0", None, post=TRUE),)), ValueError,
                     "does not fit", id="add-transitions"),
        pytest.param(RemoveStates(("nowhere",)), RuleError, "does not exist",
                     id="remove-states-malformed"),
        pytest.param(RemoveStates(("s1",)), ValueError, "does not fit", id="remove-states"),
        pytest.param(RemoveTransitions(("nosuch",)), RuleError, "no transition labeled",
                     id="remove-transitions-malformed"),
        pytest.param(RemoveTransitions(("t1",)), ValueError, "does not fit",
                     id="remove-transitions"),
        # Payloads that are not well-sorted are rejected by validation, before
        # a side condition could evaluate them.
        pytest.param(AddTransitions((_t("t9", "s0", "s0", None, post=TRUE,
                                        guard=BinOp("eq", Head(Lit(1)), Lit(1))),)),
                     RuleError, INVALID + "transition t9 guard: head applies to a list",
                     id="add-transitions-ill-sorted-guard"),
        pytest.param(AddTransitions((_t("t9", "s0", "s0", None, post=TRUE,
                                        guard=BinOp("eq", PrimedRef("h"), AttrRef("h"))),)),
                     RuleError, INVALID + "transition t9 guard: primed reference h'",
                     id="add-transitions-primed-guard"),
        pytest.param(SplitState("s1", ("s1a",), (("t0", "s1a", BinOp(
                         "eq", PrimedRef("h"), Len(AttrRef("h")))),)),
                     RuleError, INVALID + "transition t0 post: len applies to a list",
                     id="split-state-ill-sorted-redirect"),
    ],
)
def test_the_environment_is_bound_where_a_side_condition_first_needs_it(app, raised, match):
    # Rules without environment conditions never bind it, nor does a split
    # that strengthens no postcondition; a malformed or ill-sorted payload is
    # reported before an environment that does not fit.
    painted = parse_std(PAINTED_SRC)
    if raised is None:
        apply_rule(painted, app, MISFIT)
    else:
        with pytest.raises(raised, match=re.escape(match)):
            apply_rule(painted, app, MISFIT)


@pytest.mark.parametrize(
    "app,match",
    [
        pytest.param(AddStates(("n", "n")), "state 'n' listed twice", id="add-states"),
        pytest.param(RemoveStates(("s1", "s1")), "state 's1' listed twice", id="remove-states"),
        pytest.param(SplitState("s1", ("p", "p"), (("t1", "p", None),)), "part 'p' listed twice",
                     id="split-state"),
        pytest.param(RemoveTransitions(("t2", "t2")), "transition 't2' listed twice",
                     id="remove-transitions"),
        pytest.param(RemoveInitialStates(("s0", "s0")), "state 's0' listed twice",
                     id="remove-initial-states"),
    ],
)
def test_a_name_listed_twice_is_rejected(base, app, match):
    with pytest.raises(RuleError, match=re.escape(match)):
        apply_rule(base, app, EMPTY_ENV, B)


@pytest.mark.parametrize(
    "app,text",
    [
        (AddStates(()), "rule add-states: no states to add"),
        (RemoveStates(()), "rule remove-states: no states to remove"),
        (AddTransitions(()), "rule add-transitions: no transitions to add"),
        (RemoveTransitions(()), "rule remove-transitions: no transitions to remove"),
        (RemoveInitialStates(()), "rule remove-initial-states: no initial markings to remove"),
        (SplitState("s1", (), ()), "rule split-state: a split needs at least one part"),
        (SplitState("s1", ("s0",), ()),
         "rule split-state: part 's0' collides with an existing state"),
        (SplitState("s1", ("p",), (("t1", "p", None), ("t1", "p", None))),
         "rule split-state: transition 't1' redirected twice"),
        (AddStates(("s0",)), "rule add-states: state 's0' already exists"),
    ],
    ids=["add-states-empty", "remove-states-empty", "add-transitions-empty",
         "remove-transitions-empty", "remove-initial-states-empty", "split-no-parts",
         "split-part-collides", "split-redirected-twice", "add-states-existing"],
)
def test_a_malformed_application_is_rejected_with_its_text(base, app, text):
    with pytest.raises(RuleError) as raised:
        apply_rule(base, app, EMPTY_ENV, B)
    assert str(raised.value) == text


@pytest.mark.parametrize("app", ["add-states", None, ("limbo",)], ids=["str", "none", "tuple"])
def test_apply_rule_takes_only_rule_applications(base, app):
    with pytest.raises(TypeError, match="not a rule application"):
        apply_rule(base, app, EMPTY_ENV)
    with pytest.raises(TypeError, match="not a rule application"):
        refine.rule_name(app)


# ---------------------------------------------------------------------------
# check_refinement
# ---------------------------------------------------------------------------


def test_refinement_is_reflexive():
    for std in (corpus_std("tel.std"), corpus_std("stack.std")):
        v = check_refinement(std, std, EMPTY_ENV, Bounds(max_input_len=2))
        assert v.ok


def test_refinement_rejects_signature_change():
    with pytest.raises(SignatureMismatch):
        check_refinement(corpus_std("tel.std"), corpus_std("stack.std"), EMPTY_ENV, Bounds(max_input_len=1))
    with pytest.raises(SignatureMismatch) as raised:
        check_refinement(corpus_std("tel.std"), corpus_std("duo.std"), EMPTY_ENV, Bounds(max_input_len=1))
    assert str(raised.value) == "tel and duo have different signatures or domains"


def test_inclusion_rejects_trace_sets_of_other_alphabets_or_bounds():
    k1 = Bounds(max_input_len=1)
    tel = traces(corpus_std("tel.std"), EMPTY_ENV, k1)
    with pytest.raises(SignatureMismatch) as raised:
        trace_inclusion(tel, traces(corpus_std("duo.std"), EMPTY_ENV, k1))
    assert str(raised.value) == (
        "trace sets range over different input alphabets; refinement is only defined "
        "between machines with identical signatures and domains"
    )
    with pytest.raises(SignatureMismatch) as raised:
        trace_inclusion(tel, traces(corpus_std("tel.std"), EMPTY_ENV, Bounds(max_input_len=2)))
    assert str(raised.value) == "trace sets were computed under different bounds"


def test_refinement_failure_witness_is_replayable():
    # Removing the busy answer narrows the telephone; the full machine then
    # shows an output the narrowed abstraction never allows.
    tel = corpus_std("tel.std")
    pruned = apply_rule(tel, RemoveTransitions(("u3",)), EMPTY_ENV, B)
    assert check_refinement(tel, pruned, EMPTY_ENV, B).ok
    back = check_refinement(pruned, tel, EMPTY_ENV, B)
    assert not back.ok
    assert back.witness is not None and back.witness.output is not None
    seq = back.witness.input
    concrete_entry = simulate_prefixes(tel, EMPTY_ENV, seq, B).entry(seq)
    abstract_entry = simulate_prefixes(pruned, EMPTY_ENV, seq, B).entry(seq)
    assert tuple(back.witness.output) in concrete_entry.outputs
    assert tuple(back.witness.output) not in abstract_entry.outputs


def test_refinement_chaos_licenses_any_completion(base):
    t3 = _t("t3", "s0", "s0", "stop", outputs=(("b", ()),))
    filled = apply_rule(base, AddTransitions((t3,)), EMPTY_ENV, B)
    assert check_refinement(base, filled, EMPTY_ENV, B).ok
    # and the reverse direction fails: the filled machine specified (s0,stop),
    # the base machine is chaotic there.
    v = check_refinement(filled, base, EMPTY_ENV, B)
    assert not v.ok and v.witness is not None


def test_verdict_describe_mentions_bounds(base):
    v = check_refinement(base, base, EMPTY_ENV, B)
    text = v.describe()
    assert "k=3" in text and "eps-budget=3" in text


# ---------------------------------------------------------------------------
# trace_inclusion and trace_equivalence
# ---------------------------------------------------------------------------

GO = Msg("go")
CHOICE_HEADER = "std m = { input go output a | b | c states s init, v "


def _traces_of(src: str, bounds: Bounds):
    return traces(parse_std(src), EMPTY_ENV, bounds)


def test_an_undeclared_divergent_output_fails_inclusion_and_equivalence():
    # The concrete machine parks at u, whose eps loop exhausts the budget on
    # the second go; the abstract machine never diverges.
    bounds = Bounds(max_input_len=2, eps_budget=2)
    ts_a = _traces_of("std m = { input go output a states s init  t: s -> s : go / [a] }", bounds)
    ts_c = _traces_of(
        "std m = { input go output a states s init, u "
        " t: s -> u : go / [a]  l: u -> u : eps }", bounds,
    )
    inclusion = trace_inclusion(ts_a, ts_c)
    assert (inclusion.ok, inclusion.witness) == (False, Witness(
        input=(GO, GO), output=(Msg("a"),),
        note="concrete divergent (budget-truncated) output has no abstract counterpart",
    ))
    equivalence = trace_equivalence(ts_a, ts_c)
    assert not equivalence.ok and equivalence.witness.input == (GO, GO)


def test_a_concrete_output_cap_fails_inclusion_and_equivalence():
    bounds = Bounds(max_input_len=1, output_cap=2)
    ts_a = _traces_of("std m = { input go output a states s init  t: s -> s : go / [a, a] }", bounds)
    ts_c = _traces_of("std m = { input go output a states s init  t: s -> s : go / [a, a, a] }", bounds)
    note = ("the concrete machine hit the output cap where the abstract machine did not; "
            "outputs are incomparable at this bound")
    for verdict in (trace_inclusion(ts_a, ts_c), trace_equivalence(ts_a, ts_c)):
        assert (verdict.ok, verdict.witness) == (False, Witness(input=(GO,), note=note))


def test_equivalence_reports_the_inclusion_failing_at_the_shorter_input():
    # A ⊉ B fails at [go] (B may output [b]); B ⊉ A only at [go, go].
    bounds = Bounds(max_input_len=2)
    ts_a = _traces_of(CHOICE_HEADER + " t: s -> s : go / [a] }", bounds)
    ts_b = _traces_of(
        CHOICE_HEADER + " t1: s -> v : go / [a]  t2: s -> v : go / [b]  t3: v -> v : go / [c] }",
        bounds,
    )
    assert trace_inclusion(ts_b, ts_a).witness.input == (GO, GO)
    forward, backward = trace_equivalence(ts_a, ts_b), trace_equivalence(ts_b, ts_a)
    assert forward.witness == backward.witness == Witness(
        input=(GO,), output=(Msg("b"),), note="concrete output is not among the abstract outputs",
    )
    assert forward.note == "the second trace set is not included in the first"
    assert backward.note == "the first trace set is not included in the second"
    assert forward.kind == backward.kind == "trace-equivalence"


def test_equivalence_reports_the_first_inclusion_on_a_tie():
    bounds = Bounds(max_input_len=2)
    ts_a = _traces_of(CHOICE_HEADER + " t: s -> s : go / [a] }", bounds)
    ts_c = _traces_of(CHOICE_HEADER + " t: s -> s : go / [b] }", bounds)
    for (first, second), output in (((ts_a, ts_c), "b"), ((ts_c, ts_a), "a")):
        verdict = trace_equivalence(first, second)
        assert verdict.witness.input == (GO,)
        assert verdict.witness.output == (Msg(output),)
        assert verdict.note == "the second trace set is not included in the first"


def test_equivalence_agrees_with_the_enumerating_oracle():
    # Each accepted application against its original, in both orders: the
    # verdict holds iff the oracle's entries agree everywhere (an unrecorded
    # sequence extends chaos), and a failure names the least disagreement.
    bounds = Bounds(max_input_len=3, eps_budget=2, output_cap=4)
    rng = random.Random(7)
    compared = failed = 0
    for i in range(200):
        std = gen_std(rng, name=f"gen{i}")
        inputs = input_closure(
            message_instances(std.signature.inputs, std.domain_map()), bounds.max_input_len
        )
        original = traces(std, EMPTY_ENV, bounds), oracle_traces(std, EMPTY_ENV, bounds)[0]
        for _ in range(3):
            try:
                result = apply_rule(std, gen_application(rng, std), EMPTY_ENV)
            except RuleError:
                continue
            rewritten = traces(result, EMPTY_ENV, bounds), oracle_traces(result, EMPTY_ENV, bounds)[0]
            for (ts_l, oracle_l), (ts_r, oracle_r) in ((original, rewritten), (rewritten, original)):
                differ = [
                    seq for seq in inputs
                    if oracle_l.get(seq, CHAOS_ENTRY) != oracle_r.get(seq, CHAOS_ENTRY)
                ]
                verdict = trace_equivalence(ts_l, ts_r)
                assert verdict.ok == (not differ), (print_std(std), print_std(result))
                if differ:
                    assert verdict.witness.input == min(differ, key=seq_key)
                compared += 1
                failed += not verdict.ok
    assert compared > 800 and failed > 40


# ---------------------------------------------------------------------------
# One binding per request
# ---------------------------------------------------------------------------

# Equal signatures, different attribute sorts: x ranges over 0..1 in the
# abstract machine and over 0..2 in the concrete one.
TWO_VALUES = """
std m = {
  input go
  output a | b
  attributes x :: Int 0..1
  states s init {x == 0}
  t: s -> s : {x == 0} go / [a] {x' == 1}
  u: s -> s : {x == 1} go / [b] {x' == 0}
}
"""
THREE_VALUES = """
std m = {
  input go
  output a | b
  attributes x :: Int 0..2
  states s init {x == 0}
  t: s -> s : {x == 0} go / [a] {x' == 2}
  u: s -> s : {x == 1} go / [b] {x' == 0}
  v: s -> s : {x == 2} go / [a] {x' == 0}
}
"""


def test_machines_bind_apart_when_their_declarations_differ(base):
    env = make_environment(tables={"f": {(0,): 1}})
    bindings = interp.Bindings(env)
    grown = replace(base, states=base.states + ("s2",))
    wider = replace(base, attributes=(("x", model.IntSort(0, 2)),))
    using = replace(base, uses=(("f", model.EnvSymDecl((model.IntSort(0, 1),), model.IntSort(0, 1),
                                                        False)),))
    assert bindings.binding(grown) is bindings.binding(base)
    assert bindings.binding(wider) is not bindings.binding(base)
    assert bindings.binding(using) is not bindings.binding(base)
    assert interp.Bindings(env).binding(base) is not bindings.binding(base)
    one, two = interp.Machine(base, bindings), interp.Machine(grown, bindings)
    assert one.binding is two.binding and one.valuations is two.valuations


@pytest.mark.parametrize("abstract, concrete, output", [
    (TWO_VALUES, THREE_VALUES, "[a, a]"),
    (THREE_VALUES, TWO_VALUES, "[a, b]"),
])
def test_refinement_between_different_attributes_binds_each_machine_apart(
    abstract, concrete, output
):
    v = check_refinement(parse_std(abstract), parse_std(concrete), EMPTY_ENV, B)
    assert v.describe() == (
        "refinement: FAIL (bounds: k=3 eps-budget=3 output-cap=16 state-cap=none)\n"
        "  input:  [go, go]\n"
        f"  output: {output}\n"
        "  concrete output is not among the abstract outputs"
    )


def test_a_rule_without_a_side_condition_binds_no_environment(base, monkeypatch):
    # Adding states asks no side condition, so no Machine is made and the
    # environment is never bound, alone or as a later rule of a request.
    bound = []
    bind = interp.bind_environment
    monkeypatch.setattr(interp, "bind_environment", lambda *a: bound.append(a) or bind(*a))
    out = apply_rule(base, AddStates(("q",)), EMPTY_ENV, B)
    bindings = interp.Bindings(EMPTY_ENV)
    apply_rule(out, AddStates(("r",)), bindings, B)
    apply_rule(out, AddStates(("r",)), bindings, B)
    assert bound == []
    assert set(bindings.checked(out)) == set(out.transitions)


def test_a_rejected_rule_records_no_transition_as_sort_checked(base):
    # The add-transitions payload has an Int guard; its rejection must not
    # let a later rule of the same request take the transition as checked.
    bad = _t("t9", "s0", "s0", None, guard=Lit(3))
    bindings = interp.Bindings(EMPTY_ENV)
    with pytest.raises(RuleError) as first:
        apply_rule(base, AddTransitions((bad,)), bindings, B)
    holding = replace(base, transitions=base.transitions + (bad,))
    with pytest.raises(RuleError) as later:
        apply_rule(holding, AddStates(("q",)), bindings, B)
    assert first.value.reason == later.value.reason == (
        "the transformed machine is invalid: transition t9: guard must be Bool")
