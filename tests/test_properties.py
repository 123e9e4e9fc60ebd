"""Property-based checks over randomly generated machines.

Each property draws an integer seed, derives a machine from it with the
shared generator, and checks a semantic invariant: syntax round-trips,
desugaring stability, oracle agreement, trace-set structure, and the
soundness of rule application with respect to bounded refinement.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fixtures import conflict_patches, corpus_std
from machine_gen import gen_application, gen_std
from oracles import all_configs, input_closure, oracle_apply_feature, oracle_enabled, oracle_step

from stdrefine import (
    AddStates,
    AddTransitions,
    Bounds,
    FeaturePatch,
    SplitState,
    Transition,
    parse_feature,
    RuleError,
    apply_feature,
    apply_rule,
    check_monotone,
    check_refinement,
    default_env,
    desugar,
    detect_conflict,
    build_step,
    feature_patch,
    make_environment,
    parse_std,
    print_std,
    simulate_prefixes,
    std_from_json,
    std_to_json,
    traces,
    validate_std,
)
from stdrefine.interp import Machine, seq_key
from stdrefine.model import (
    AttrRef,
    BinOp,
    BoolSort,
    Cons,
    Defined,
    ElseGuard,
    EnumLit,
    EnumSort,
    EnvSymDecl,
    Head,
    IntSort,
    Len,
    ListLit,
    ListSort,
    Lit,
    Name,
    Neg,
    Not,
    ParamRef,
    PrimedRef,
    SymApp,
    TRUE,
    Tail,
    message_instances,
    replace,
)
from stdrefine.textlang import expr_from_json, expr_to_json, print_expr

EMPTY_ENV = make_environment({}, {}, {})
B3 = Bounds(max_input_len=3, eps_budget=3, output_cap=64)
B2 = Bounds(max_input_len=2, eps_budget=3, output_cap=64)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Every binary operator, loosest level first.
BINARY_OPS = ("or", "and", "eq", "ne", "le", "ge", "lt", "gt", "add", "sub", "mul")
# Identifiers, hyphenated and builtin-named ones among them; only a call's
# name must not be a builtin, or it would read back as that builtin.
idents = st.sampled_from(("a", "b2", "x-y", "_n", "len", "Bool"))
callees = st.sampled_from(("f", "busy-tone", "K"))


def _exprs(leaves, max_leaves=12):
    def extend(sub):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(BINARY_OPS), sub, sub),
            st.builds(Not, sub),
            st.builds(Neg, sub),
            st.builds(Defined, sub),
            st.builds(Head, sub),
            st.builds(Tail, sub),
            st.builds(Len, sub),
            st.builds(Cons, sub, sub),
            st.builds(ListLit, st.lists(sub, max_size=3).map(tuple)),
            st.builds(SymApp, callees, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


# What a parse with no scope can give back: literals (integer literals are
# never negative; `-1` is `Neg(Lit(1))`), names, primed names and calls.
surface_leaves = st.one_of(
    st.builds(Lit, st.booleans() | st.integers(min_value=0, max_value=99)),
    st.builds(Name, idents),
    st.builds(PrimedRef, idents),
    st.builds(SymApp, callees, st.just(())),
)
surface_exprs = _exprs(surface_leaves)
# Literal values the parser never gives back: negative integers and
# non-numbers.  A fraction is never NaN, so that it equals itself.
wide_literals = st.builds(
    Lit,
    st.integers(min_value=-3, max_value=-1)
    | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.just((1, 2))
    | st.none(),
)
# Every one of the 17 expression kinds.
all_exprs = _exprs(
    surface_leaves
    | wide_literals
    | st.builds(EnumLit, idents, idents)
    | st.builds(AttrRef, idents)
    | st.builds(ParamRef, idents)
    | st.just(ElseGuard())
)

# A machine declaring an attribute of each sort, a trigger parameter `p` and
# the callee `f`, for `test_machines_that_std1_accepts_print_and_parse_back`
# to put an expression in.  The leaves below name what it declares, with
# literals widened as above and enumeration literals widened to non-members
# and an undeclared domain.
HOLDER_SRC = """
std m = {
  domain Hue = {red, green}
  uses { f(Int 0..2) -> Int 0..2 }
  input go(Int 0..2)
  output o
  attributes x :: Int 0..2
  attributes h :: Hue
  attributes b :: Bool
  attributes l :: [Int 0..2]^2
  states s init
  t: s -> s : go(p)
}
"""
held_names = st.sampled_from(("x", "h", "b", "l"))
held_exprs = _exprs(
    st.builds(Lit, st.booleans() | st.integers(min_value=0, max_value=3))
    | wide_literals
    | st.builds(EnumLit, st.sampled_from(("red", "green", "blue")), st.sampled_from(("Hue", "NOPE")))
    | st.builds(AttrRef, held_names)
    | st.builds(PrimedRef, held_names)
    | st.just(ParamRef("p"))
    | st.just(ElseGuard()),
    max_leaves=4,
)


# Environment symbol declarations beside the holder's `f`: sorts with empty
# integer ranges, negative list bounds and undeclared domains, and names that
# may repeat one another or `f`.
wide_sorts = st.recursive(
    st.just(BoolSort())
    | st.builds(IntSort, st.integers(-2, 3), st.integers(-2, 3))
    | st.builds(EnumSort, st.sampled_from(("Hue", "NOPE"))),
    lambda sub: st.builds(ListSort, sub, st.integers(-1, 3)),
    max_leaves=3,
)
held_uses = st.lists(
    st.tuples(
        st.sampled_from(("f", "g", "h")),
        st.builds(EnvSymDecl, st.lists(wide_sorts, max_size=2).map(tuple), wide_sorts, st.booleans()),
    ),
    max_size=2,
)


def parse_expr(text: str):
    """`text` read with no scope, as a redirect postcondition is."""
    patch = parse_feature(
        f"feature f on m {{ split s into {{ p }} {{ redirect t -> p with {{{text}}} }} }}"
    )
    return patch.applications[0].redirects[0][2]


def make_std(seed: int):
    return gen_std(random.Random(seed))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_desugar_is_idempotent_and_preserves_validity(seed):
    std = make_std(seed)
    once = desugar(std)
    assert desugar(once) == once
    assert validate_std(once) == []


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_printing_is_stable_and_parses_back(seed):
    std = make_std(seed)
    text = print_std(std)
    assert print_std(std) == text
    assert parse_std(text) == std


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_json_export_round_trips(seed):
    std = make_std(seed)
    doc = json.loads(json.dumps(std_to_json(std)))
    assert std_from_json(doc) == std


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_enabled_transitions_agree_with_oracle(seed):
    std = make_std(seed)
    machine = Machine(std, EMPTY_ENV)
    msgs = list(message_instances(std.signature.inputs, std.domain_map()))
    for config in all_configs(std):
        for trigger in [None, *msgs]:
            got = {
                (e.transition.label, e.reactions)
                for e in machine._find_enabled(config, trigger)
            }
            assert got == {
                (label, reactions)
                for label, _, reactions in oracle_enabled(std, config, trigger, EMPTY_ENV)
            }


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_step_agrees_with_oracle(seed):
    std = make_std(seed)
    machine = Machine(std, EMPTY_ENV, B3)
    msgs = list(message_instances(std.signature.inputs, std.domain_map()))
    for config in all_configs(std):
        for message in msgs:
            sr = machine.step(config, message)
            assert oracle_step(std, config, message, EMPTY_ENV, B3) == (
                sr.reactions,
                sr.divergent,
                sr.chaotic,
                sr.touched,
            )


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_trace_sets_grow_monotonically_and_absorb_chaos(seed):
    std = make_std(seed)
    ts2 = traces(std, EMPTY_ENV, B2)
    ts3 = traces(std, EMPTY_ENV, B3)

    closure2 = input_closure(ts2.inputs, B2.max_input_len)
    closure3 = input_closure(ts3.inputs, B3.max_input_len)

    # Raising the input-length bound only adds sequences; shared ones keep
    # the exact same entry.
    for seq in closure2:
        assert ts3.entry(seq) == ts2.entry(seq)

    # `entry` agrees with simulating the one sequence, on the whole closure;
    # chaos is recorded once, at the sequences without a chaotic proper prefix.
    for seq in closure3:
        assert ts3.entry(seq) == simulate_prefixes(std, EMPTY_ENV, seq, B3).entry(seq)
        if seq and ts3.entry(seq[:-1]).chaos:
            assert ts3.entry(seq).chaos
    assert set(ts3.entries) == {
        seq
        for seq in closure3
        if not any(ts3.entry(seq[:cut]).chaos for cut in range(len(seq)))
    }

    verdict = check_monotone(ts3)
    assert verdict.ok, verdict.describe()

    # `traces` and `simulate_prefixes` record entries in canonical order, and
    # simulating one input sequence reproduces the entries of its prefixes
    # and, unless the trace set's were cut off, their warnings.
    assert list(ts3.entries) == sorted(ts3.entries, key=seq_key)
    longest = ts3.sequences()[-1]
    sim = simulate_prefixes(std, EMPTY_ENV, longest, B3)
    assert list(sim.entries) == sorted(sim.entries, key=seq_key)
    assert sim.entries == {seq: ts3.entry(seq) for seq in sim.entries}
    if not ts3.warnings or "suppressed" not in ts3.warnings[-1]:
        assert set(sim.warnings) <= set(ts3.warnings)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_refinement_is_reflexive(seed):
    std = make_std(seed)
    verdict = check_refinement(std, std, EMPTY_ENV, B2)
    assert verdict.ok, verdict.describe()


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_applicable_rules_yield_refinements(seed):
    rng = random.Random(seed)
    std = gen_std(rng)
    application = gen_application(rng, std)
    try:
        result = apply_rule(std, application, EMPTY_ENV)
    except RuleError:
        event("rule rejected")
        return
    event(f"rule applied: {type(application).__name__}")

    # The rewritten machine stays well formed and keeps the signature.
    assert validate_std(result) == []
    assert result.signature == std.signature
    assert result.domains == std.domains
    assert result.attributes == std.attributes

    verdict = check_refinement(std, result, EMPTY_ENV, B3)
    assert verdict.ok, verdict.describe()


def test_rules_accepted_on_a_fixed_stream_are_refinements():
    # Machine 451 of this stream offers a remove-transitions whose only
    # alternative has a guard that holds but no reaction (an `x' == x + 1`
    # pin at the top of the range); the stream is long enough to include it.
    rng = random.Random(5)
    for i in range(460):
        std = gen_std(rng, name=f"gen{i}")
        for _ in range(3):
            application = gen_application(rng, std)
            try:
                result = apply_rule(std, application, EMPTY_ENV)
            except RuleError:
                continue
            verdict = check_refinement(std, result, EMPTY_ENV, B3)
            assert verdict.ok, (std.name, application, verdict.describe())


@given(surface_exprs)
@settings(max_examples=300, deadline=None)
def test_expressions_print_and_parse_back(expr):
    assert parse_expr(print_expr(expr)) == expr


def test_operators_at_equal_and_unequal_levels_parse_back():
    # Each operator under each other one, on either side.
    a, b, c = Name("a"), Lit(1), PrimedRef("c")
    for outer in BINARY_OPS:
        for inner in BINARY_OPS:
            for expr in (
                BinOp(outer, BinOp(inner, a, b), c),
                BinOp(outer, a, BinOp(inner, b, c)),
                Not(BinOp(inner, a, b)),
                Neg(Neg(Not(BinOp(inner, a, b)))),
            ):
                assert parse_expr(print_expr(expr)) == expr, print_expr(expr)


@given(all_exprs)
@settings(max_examples=300, deadline=None)
def test_expression_json_round_trips(expr):
    assert expr_from_json(json.loads(json.dumps(expr_to_json(expr)))) == expr


@given(held_exprs, st.sampled_from(("guard", "post", "initial")), st.booleans(), held_uses)
@settings(max_examples=300, deadline=None)
def test_machines_that_std1_accepts_print_and_parse_back(expr, place, wrap, uses):
    # A std/1 document is checked as text is, so whatever `std_from_json`
    # accepts prints as text that `parse_std` reads back to the same machine.
    # `defined(e)` is Bool whatever the sort of e.
    if wrap:
        expr = Defined(expr)
    holder = parse_std(HOLDER_SRC)
    doc = std_to_json(replace(holder, uses=holder.uses + tuple(uses)))
    if place == "initial":
        doc["initial"][0]["pred"] = expr_to_json(expr)
    else:
        doc["transitions"][0][place] = expr_to_json(expr)
    try:
        m = std_from_json(json.loads(json.dumps(doc)))
    except ValueError:
        event("rejected")
        return
    event(f"accepted in the {place}")
    assert parse_std(print_std(m)) == m


def _applied(apply, std, patch, env) -> str:
    """The printed result of applying the feature, or its rejection."""
    try:
        return print_std(apply(std, patch, env))
    except RuleError as exc:
        return f"rejected: {exc}"


def test_features_apply_as_the_fold_that_validates_every_result():
    # Each feature is 2-3 proposals, each drawn against the machine the ones
    # before it give where they apply.
    rng = random.Random(28)
    for i in range(300):
        std = gen_std(rng, name=f"gen{i}")
        apps, work = [], std
        for _ in range(rng.randint(2, 3)):
            apps.append(gen_application(rng, work))
            try:
                work = apply_rule(work, apps[-1], EMPTY_ENV)
            except RuleError:
                pass
        patch = FeaturePatch("f", std.name, tuple(apps))
        assert _applied(apply_feature, std, patch, EMPTY_ENV) == _applied(
            oracle_apply_feature, std, patch, EMPTY_ENV
        ), (std.name, apps)


def _shuffled(rng: random.Random, std):
    """`std` with its states, initial markings and transitions reordered."""
    return replace(std, **{f: tuple(rng.sample(getattr(std, f), len(getattr(std, f))))
                           for f in ("states", "initial", "transitions")})


def test_a_trace_set_does_not_depend_on_declaration_order():
    # Conflict detection traces two orders that give one machine up to the
    # order of its declarations once.
    rng = random.Random(3)
    bounds = Bounds(max_input_len=3, eps_budget=2, output_cap=64)
    for i in range(400):
        std = gen_std(rng, name=f"gen{i}")
        ts, shuffled = traces(std, EMPTY_ENV, bounds), traces(_shuffled(rng, std), EMPTY_ENV, bounds)
        assert list(shuffled.entries.items()) == list(ts.entries.items()), std.name
        assert (shuffled.reached, shuffled.warnings) == (ts.reached, ts.warnings), std.name


HOLDER_ENV = make_environment(tables={"f": {(i,): i for i in range(3)}})


def _holding(expr, place: str):
    """A rule application on the holder that carries `expr` as a new guard
    or as a redirect's strengthened postcondition."""
    if place == "guard":
        return AddTransitions((Transition("t9", "s", "s", None, (), expr, (), TRUE),))
    return SplitState("s", ("p",), (("t", "p", expr),))


@given(held_exprs, st.sampled_from(("guard", "redirect")))
@settings(max_examples=300, deadline=None)
def test_rules_sort_check_a_payload_before_evaluating_it(expr, place):
    # Whatever the payload holds, a rule applies or is rejected: no side
    # condition evaluates an expression that validation would refuse.
    holder = parse_std(HOLDER_SRC)
    app = _holding(expr, place)
    try:
        apply_rule(holder, app, HOLDER_ENV)
    except RuleError as exc:
        event("rejected as invalid" if "is invalid" in exc.reason else "rejected")
    else:
        event(f"applied with the expression as a {place}")


@given(held_exprs, st.sampled_from(("guard", "redirect")))
@settings(max_examples=100, deadline=None)
def test_a_later_rule_of_a_feature_is_validated_as_a_first_rule_is(expr, place):
    # The second rule sort-checks only what it adds, with the text and
    # the problems of the whole-diagram check.
    holder = parse_std(HOLDER_SRC)
    patch = FeaturePatch("f", "m", (AddStates(("q",)), _holding(expr, place)))
    assert _applied(apply_feature, holder, patch, HOLDER_ENV) == _applied(
        oracle_apply_feature, holder, patch, HOLDER_ENV
    )


def _served_answers(monkeypatch) -> list:
    """(diagram, configuration, trigger, answer, transitions answered by
    another Machine) for every question that a Machine on a shared binding
    puts to the binding's answers from now on."""
    served = []
    find = Machine._find_shared

    def recording(machine, config, trigger):
        before = len(machine.binding.answers)
        got = find(machine, config, trigger)
        group = machine._groups.get((config.control, trigger and trigger.ctor), ())
        reused = len(group) - (len(machine.binding.answers) - before)
        served.append((machine.std, config, trigger, got, reused))
        return got

    monkeypatch.setattr(Machine, "_find_shared", recording)
    return served


def _assert_served_as_the_oracle_answers(served, env) -> int:
    for std, config, trigger, got, _ in served:
        assert {(e.transition.label, e.reactions) for e in got} == {
            (label, reactions) for label, _, reactions in oracle_enabled(std, config, trigger, env)
        }, (std.name, config, trigger)
    return sum(reused for *_, reused in served)


@pytest.mark.parametrize("report", ["forwarding x blocking", "left x right"])
def test_a_corpus_report_serves_the_enabled_answers_of_the_oracle(monkeypatch, report):
    # Every answer a report's Machines share is the one `oracle_enabled`
    # gives for that machine, configuration and trigger.
    served = _served_answers(monkeypatch)
    if report == "left x right":
        base, (f1, f2), env = corpus_std("duo.std"), conflict_patches(), make_environment()
    else:
        base, env = build_step(2), default_env()
        f1, f2 = feature_patch("forwarding"), feature_patch("blocking")
    detect_conflict(base, f1, f2, env, Bounds(max_input_len=2, eps_budget=2, output_cap=8))
    reused = _assert_served_as_the_oracle_answers(served, env)
    assert served
    if report == "forwarding x blocking":
        assert reused > 0  # the combined machine asks what the singles asked


def test_generated_reports_serve_the_enabled_answers_of_the_oracle(monkeypatch):
    # Two features of 1-2 proposals each on generated machines.
    rng = random.Random(29)
    bounds = Bounds(max_input_len=2, eps_budget=2, output_cap=8)
    env = make_environment()
    served = _served_answers(monkeypatch)
    verdicts = set()
    for i in range(200):
        std = gen_std(rng, name=f"gen{i}")
        f1, f2 = (FeaturePatch(f"f{j}", std.name, tuple(
            gen_application(rng, std) for _ in range(rng.randint(1, 2)))) for j in (1, 2))
        verdicts.add(detect_conflict(std, f1, f2, env, bounds).verdict)
    assert _assert_served_as_the_oracle_answers(served, env) > 0
    assert {"compatible", "conflicting"} <= verdicts
