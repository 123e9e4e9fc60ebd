"""Bounded operational semantics: stepping, trace sets, chaos, divergence."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import stdrefine
from stdrefine import (
    Bounds,
    SignatureMismatch,
    Msg,
    ResourceLimit,
    check_monotone,
    check_refinement,
    parse_std,
    print_std,
    simulate_prefixes,
    trace_equivalence,
    trace_inclusion,
    traces,
)
from stdrefine.callproc import build_step, default_env
from stdrefine.interp import (
    CHAOS_ENTRY,
    Machine,
    TraceSet,
    format_sequence,
    machine_traces,
    seq_key,
    traceset_to_json,
)
from stdrefine.model import (
    EMPTY_ENV,
    BinOp,
    Lit,
    Name,
    UnknownName,
    config_key,
    make_environment,
    name_scope,
    resolve_names,
)

from fixtures import corpus_std
from machine_gen import gen_std
from oracles import (
    _inputs_and_initial,
    all_configs,
    input_closure,
    make_config,
    oracle_guarded,
    oracle_step,
    oracle_traces,
)

K2 = Bounds(max_input_len=2, eps_budget=4, output_cap=16)
K4 = Bounds(max_input_len=4, eps_budget=4, output_cap=16)
K6 = Bounds(max_input_len=6, eps_budget=4, output_cap=16)


def outs(entry):
    """Readable rendering of an entry's output sequences."""
    return sorted(
        ("|".join(str(m) for m in seq) for seq in entry.outputs), key=str
    )


LOOP_SRC = """
std loop = {
  input go
  output tick | ok
  states s init
  e1: s -> s : eps / [tick]
  g1: s -> s : go / [ok]
}
"""


# ---------------------------------------------------------------------------
# The telephone fixture
# ---------------------------------------------------------------------------


def test_tel_lift_then_dial_is_ring_or_busy():
    tel = corpus_std("tel.std")
    for n in range(1, 10):
        seq = (Msg("LT"), Msg("DL", (n,)))
        entry = simulate_prefixes(tel, EMPTY_ENV, seq, K2).entry(seq)
        assert not entry.chaos
        assert outs(entry) == ["DT|BY", "DT|RG"]
        assert entry.divergent == frozenset()


def test_tel_unspecified_input_is_chaos():
    # Going on hook while already on hook is not described: anything goes.
    seq = (Msg("OH"),)
    assert simulate_prefixes(corpus_std("tel.std"), EMPTY_ENV, seq, K2).entry(seq).chaos


def test_tel_trace_count_is_alphabet_closure():
    ts = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    n = len(ts.inputs)
    assert n == 11  # LT, OH, DL(1..9)
    closure = input_closure(ts.inputs, K2.max_input_len)
    assert len(closure) == 1 + n + n * n
    # `entry` answers for the whole closure; `entries` records exactly the
    # sequences without a chaotic proper prefix.
    entries = {seq: ts.entry(seq) for seq in closure}
    assert set(ts.entries) == {
        seq for seq in closure if not any(entries[seq[:cut]].chaos for cut in range(len(seq)))
    }
    assert len(ts.entries) < len(closure)
    assert ts.entry(()) is not None and not ts.entry(()).chaos
    oh = Msg("OH")
    with pytest.raises(KeyError):
        ts.entry((oh, oh, oh))  # extends chaos, but is longer than the bound
    with pytest.raises(KeyError):
        ts.entry((oh, Msg("Zap")))  # extends chaos, but leaves the alphabet


# ---------------------------------------------------------------------------
# The stack fixture: list attributes, bare-value outputs, underflow chaos
# ---------------------------------------------------------------------------


def test_stack_top_answers_last_push():
    seq = (Msg("Push", (2,)), Msg("Top"))
    entry = simulate_prefixes(corpus_std("stack.std"), EMPTY_ENV, seq, K2).entry(seq)
    assert not entry.chaos
    assert outs(entry) == ["2"]


def test_stack_pop_to_empty_then_pop_is_chaos():
    b = Bounds(max_input_len=3, eps_budget=2, output_cap=16)
    seq = (Msg("Push", (1,)), Msg("Pop"), Msg("Pop"))
    ts = simulate_prefixes(corpus_std("stack.std"), EMPTY_ENV, seq, b)
    assert not ts.entry(seq[:2]).chaos
    assert ts.entry(seq).chaos


def test_stack_overflow_is_chaos():
    b = Bounds(max_input_len=4, eps_budget=2, output_cap=16)
    seq = tuple(Msg("Push", (i % 4,)) for i in range(4))
    ts = simulate_prefixes(corpus_std("stack.std"), EMPTY_ENV, seq, b)
    assert not ts.entry(seq[:3]).chaos
    assert ts.entry(seq).chaos


# ---------------------------------------------------------------------------
# Chaos is entry-absorbing
# ---------------------------------------------------------------------------


def test_chaos_absorbs_extensions():
    ts = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    bad = (Msg("OH"),)
    assert ts.entry(bad).chaos
    extensions = [
        seq
        for seq in input_closure(ts.inputs, K2.max_input_len)
        if len(seq) > len(bad) and seq[: len(bad)] == bad
    ]
    assert len(extensions) == len(ts.inputs)
    for seq in extensions:
        assert seq not in ts.entries  # implied, not stored
        assert ts.entry(seq) is CHAOS_ENTRY


def test_simulate_prefixes_records_every_prefix():
    seq = (Msg("LT"), Msg("DL", (1,)))
    ts = simulate_prefixes(corpus_std("tel.std"), EMPTY_ENV, seq, K2)
    assert ts.sequences() == [(), seq[:1], seq]


def test_simulate_prefixes_reports_the_length_of_its_input_as_k():
    # The input is longer than the bound passed in; the trace set says so.
    seq = (Msg("LT"), Msg("DL", (1,)), Msg("OH"), Msg("LT"), Msg("DL", (2,)))
    ts = simulate_prefixes(corpus_std("tel.std"), EMPTY_ENV, seq, K2)
    assert ts.bounds == Bounds(max_input_len=5, eps_budget=4, output_cap=16)
    assert max(map(len, ts.entries)) == 5


def test_simulate_rejects_foreign_messages():
    with pytest.raises(ValueError, match="not an input message instance"):
        simulate_prefixes(corpus_std("tel.std"), EMPTY_ENV, (Msg("Zap"),), K2)
    # tel is chaotic at [OH]; a foreign message after it is still rejected.
    with pytest.raises(ValueError, match="Zap is not an input message instance of tel"):
        simulate_prefixes(corpus_std("tel.std"), EMPTY_ENV, (Msg("OH"), Msg("Zap")), K2)


# ---------------------------------------------------------------------------
# Divergence and the output cap
# ---------------------------------------------------------------------------


def test_internal_loop_diverges_and_warns():
    loop = parse_std(LOOP_SRC)
    ts = traces(loop, EMPTY_ENV, Bounds(max_input_len=1, eps_budget=4, output_cap=16))
    e = ts.entry((Msg("go"),))
    assert not e.chaos
    assert outs(e) == [
        "ok",
        "tick|ok",
        "tick|tick|ok",
        "tick|tick|tick|ok",
        "tick|tick|tick|tick|ok",
    ]
    assert [
        "|".join(str(m) for m in seq) for seq in e.divergent
    ] == ["tick|tick|tick|tick"]
    assert ts.has_divergence()
    assert any("internal-step budget exhausted" in w for w in ts.warnings)


def divergent_steps(std, env, bounds):
    """(message, input) of every step of a non-chaotic child in which some
    branch exhausts the internal-step budget, breadth-first in canonical
    order: the steps `machine_traces` must warn about, once each."""
    machine = Machine(std, env, bounds)
    found = []
    layer = [((), set(machine.initial))]
    for _ in range(bounds.max_input_len):
        next_layer = []
        for seq, configs in layer:
            for m in machine.inputs:
                results = [machine.step(c, m) for c in configs]
                if any(r.chaotic for r in results):
                    continue
                if any(r.divergent for r in results):
                    found.append((m, seq))
                next_layer.append((seq + (m,), {s for r in results for _, s in r.reactions}))
        layer = next_layer
    return found


def test_each_divergent_step_warns_once():
    bounds = Bounds(max_input_len=3, eps_budget=3, output_cap=4)
    rng = random.Random(7)
    for _ in range(300):
        std = gen_std(rng)
        ts = traces(std, EMPTY_ENV, bounds)
        assert len(set(ts.warnings)) == len(ts.warnings)
        budget = [w for w in ts.warnings if w.startswith("internal-step budget exhausted")]
        expected = [
            f"internal-step budget exhausted while processing {m} after input "
            f"{format_sequence(seq)}"
            for m, seq in divergent_steps(std, EMPTY_ENV, bounds)
        ]
        # Every warning is counted: shown, or in the suppressed tally.
        capped = sum(e.capped for e in ts.entries.values())
        if ts.warnings and ts.warnings[-1].endswith("more warnings suppressed"):
            suppressed = int(ts.warnings[-1].split()[1])
            assert len(ts.warnings) - 1 + suppressed == len(expected) + capped
            assert budget == expected[: len(budget)]
        else:
            assert len(ts.warnings) == len(expected) + capped
            assert budget == expected


def test_divergence_is_not_chaos():
    loop = parse_std(LOOP_SRC)
    ts = traces(loop, EMPTY_ENV, Bounds(max_input_len=1, eps_budget=2, output_cap=16))
    assert not any(e.chaos for e in ts.entries.values())


def test_output_cap_is_surfaced_never_silent():
    loop = parse_std(LOOP_SRC)
    ts = traces(loop, EMPTY_ENV, Bounds(max_input_len=1, eps_budget=4, output_cap=2))
    e = ts.entry((Msg("go"),))
    assert e.capped
    assert all(len(seq) <= 2 for seq in e.all_outputs())
    assert any("output cap hit" in w for w in ts.warnings)


def test_state_cap_raises_resource_limit():
    big = parse_std(
        """
std big = {
  input go
  output o
  attributes x :: Int 0..7
  states s init
  g: s -> s : go / [o]
}
"""
    )
    with pytest.raises(ResourceLimit) as info:
        traces(big, EMPTY_ENV, Bounds(max_input_len=1, eps_budget=1, state_cap=2))
    assert info.value.bound == "state_cap"


# ---------------------------------------------------------------------------
# Monotonicity and determinism
# ---------------------------------------------------------------------------


def test_corpus_trace_sets_are_monotone():
    for std in (corpus_std("tel.std"), corpus_std("stack.std")):
        assert check_monotone(traces(std, EMPTY_ENV, K2)).ok


def test_traces_monotone_in_k():
    small = traces(corpus_std("tel.std"), EMPTY_ENV, Bounds(max_input_len=1, eps_budget=4, output_cap=16))
    large = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    for seq, entry in small.entries.items():
        assert large.entries[seq] == entry


def test_traces_are_deterministic():
    a = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    b = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    assert a == b
    assert traceset_to_json(a) == traceset_to_json(b)


@pytest.mark.parametrize("n", range(6))
def test_corpus_trace_sets_are_built_in_canonical_order(n):
    ts = traces(build_step(n), default_env(), K4)
    assert list(ts.entries) == sorted(ts.entries, key=seq_key)


def test_chain_at_k6_stores_no_more_than_at_k4():
    # Every step of the chain turns chaotic within a few messages; the
    # extensions of chaos are implied, so raising k adds no entries.
    env = default_env()
    at_k4 = traces(build_step(5), env, K4)
    at_k6 = traces(build_step(5), env, K6)
    assert len(at_k6.entries) == len(at_k4.entries)
    assert check_refinement(build_step(3), build_step(5), env, K6).ok
    verdict = check_refinement(build_step(1), build_step(0), env, K6)
    assert not verdict.ok
    assert tuple(m.ctor for m in verdict.witness.input) == ("call", "abandon")


TRACES_SCRIPT = """
import random
from machine_gen import gen_std
from stdrefine import Bounds, simulate_prefixes, traces
from stdrefine.interp import dump_json, traceset_to_json
from stdrefine.model import EMPTY_ENV
bounds = Bounds(max_input_len=3, eps_budget=2, output_cap=64)
rng = random.Random(7)
for i in range(40):
    std = gen_std(rng, name=f"gen{i}")
    ts = traces(std, EMPTY_ENV, bounds)
    sim = simulate_prefixes(std, EMPTY_ENV, ts.sequences()[-1], bounds)
    print(dump_json(traceset_to_json(ts)), dump_json(traceset_to_json(sim)))
"""


def test_trace_sets_do_not_depend_on_the_hash_seed():
    # A chaotic step stops at its first chaotic branch, and the branches are a
    # set: only non-chaotic steps may add to `reached` and to the warnings.
    src = str(Path(stdrefine.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(p for p in (src, here, os.environ.get("PYTHONPATH")) if p)
    outputs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", TRACES_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_machine_is_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        machine = Machine(corpus_std("tel.std"), EMPTY_ENV, K2)
        machine.step(machine.initial[0], Msg("LT"))
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_resolve_names_leaves_no_cyclic_garbage():
    # Resolving an expression, or failing to, leaves nothing for the cycle
    # collector: not the recursive closure, nor the cells it holds.
    scope = name_scope(corpus_std("tel.std"))
    known = BinOp("and", Lit(True), BinOp("eq", Name("n"), Name("n")))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        resolve_names(known, scope, {"n"})
        with pytest.raises(UnknownName):
            resolve_names(BinOp("eq", Name("n"), Name("nowhere")), scope, {"n"})
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_initial_configs_respect_initial_predicates():
    m = Machine(corpus_std("stack.std"), EMPTY_ENV, K2)
    assert list(m.initial) == [make_config("estack", {"l": ()})]


def _oracle_initial(std, env):
    _, _, initial = _inputs_and_initial(std, env)
    return tuple(sorted(initial, key=config_key))


def test_initial_configurations_agree_with_the_oracle_on_generated_machines():
    rng = random.Random(7)
    for i in range(200):
        std = gen_std(rng, name=f"gen{i}")
        assert Machine(std, EMPTY_ENV).initial == _oracle_initial(std, EMPTY_ENV), std.name


@pytest.mark.parametrize(
    "std, env",
    [(corpus_std("tel.std"), EMPTY_ENV), (corpus_std("stack.std"), EMPTY_ENV), (corpus_std("duo.std"), EMPTY_ENV)]
    + [(build_step(n), default_env()) for n in range(6)],
    ids=["tel", "stack", "duo"] + [f"step{n}" for n in range(6)],
)
def test_initial_configurations_agree_with_the_oracle_on_the_corpus(std, env):
    assert Machine(std, env).initial == _oracle_initial(std, env)


INITIAL_LOOKUP = """
std lookup = {
  uses {
    f(Int 0..2) ->? Bool
  }
  input go
  output done
  attributes x :: Int 0..2
  states s init {f(x)}, t init {!f(x)}
  a: s -> s : go / [done] {x' == x}
  b: t -> t : go / [done] {x' == x}
}
"""


def test_an_undefined_initial_lookup_excludes_the_valuation():
    # f is undefined at 2, so x=2 is initial in neither state, not even
    # under the negation.
    std = parse_std(INITIAL_LOOKUP)
    env = make_environment(tables={"f": {(0,): True, (1,): False}})
    initial = Machine(std, env).initial
    assert initial == (make_config("s", {"x": 0}), make_config("t", {"x": 1}))
    assert initial == _oracle_initial(std, env)


# ---------------------------------------------------------------------------
# The step rows: keyed by what a state reads
# ---------------------------------------------------------------------------

READS_TEMPLATE = """
std reads = {{
  uses {{
    f(Int 0..1) -> Bool
  }}
  input go
  output done | val(Int 0..1)
  attributes x, y :: Int 0..1
  states s init
  t: s -> s : {transition}
}}
"""

# x is read in exactly one place, or nowhere.
READ_ONCE = {
    "output argument": "go / [val(x)] {y' == y}",
    "table-lookup argument": "{f(x)} go / [done] {y' == y}",
    "postcondition": "go / [done] {y' == x}",
}
F_ENV = make_environment(tables={"f": {(1,): True}}, defaults={"f": False})


def _counting_explore(monkeypatch):
    calls = []
    explore = Machine._explore

    def counting(machine, config, message):
        calls.append(config)
        return explore(machine, config, message)

    monkeypatch.setattr(Machine, "_explore", counting)
    return calls


@pytest.mark.parametrize("where", READ_ONCE)
def test_configurations_that_differ_in_a_read_attribute_step_apart(monkeypatch, where):
    machine = Machine(parse_std(READS_TEMPLATE.format(transition=READ_ONCE[where])), F_ENV, K2)
    explored = _counting_explore(monkeypatch)
    x0 = machine.step(make_config("s", {"x": 0, "y": 0}), Msg("go"))
    x1 = machine.step(make_config("s", {"x": 1, "y": 0}), Msg("go"))
    assert x0 != x1
    assert len(explored) == 2


def test_configurations_that_differ_in_an_unread_attribute_share_one_exploration(monkeypatch):
    machine = Machine(parse_std(READS_TEMPLATE.format(transition="go / [done] {y' == y}")), F_ENV, K2)
    explored = _counting_explore(monkeypatch)
    x0 = machine.step(make_config("s", {"x": 0, "y": 0}), Msg("go"))
    x1 = machine.step(make_config("s", {"x": 1, "y": 0}), Msg("go"))
    assert x0 is x1
    assert explored == [make_config("s", {"x": 0, "y": 0})]
    # the successors range over every x: there is no frame rule
    assert {c for _, c in x0.reactions} == {make_config("s", {"x": v, "y": 0}) for v in (0, 1)}


@pytest.mark.parametrize("n, explorations, entries, reached", [(0, 19, 111, 36), (5, 38, 210, 57)])
def test_chain_explorations_at_k4(monkeypatch, n, explorations, entries, reached):
    # No transition leaving `idle` reads sub, ph or org: its 27 initial
    # configurations share one exploration per message class, and the inputs
    # that no transition of a state's eps closure tells apart share one class.
    explored = _counting_explore(monkeypatch)
    ts = traces(build_step(n), default_env(), K4)
    assert len(explored) == explorations
    assert (len(ts.entries), len(ts.reached)) == (entries, reached)


@pytest.mark.parametrize("n, calls", [(0, 110), (5, 121)])
def test_chain_step_calls_at_k4(monkeypatch, n, calls):
    # The builder asks each (read key, input) pair once, through the rows.
    asked = []
    step = Machine.step

    def counting(machine, config, message):
        asked.append((config, message))
        return step(machine, config, message)

    monkeypatch.setattr(Machine, "step", counting)
    traces(build_step(n), default_env(), K4)
    assert len(asked) == calls


def test_a_row_cell_is_the_step_of_every_configuration_with_that_key():
    machine = Machine(build_step(5), default_env(), K4)
    ts = machine_traces(machine)
    for config in sorted(ts.reached, key=config_key):
        row = machine.row(config)
        assert row is machine.row(config)
        for i, m in enumerate(machine.inputs):
            if row[i] is not None:
                assert row[i] is machine.step(config, m)


@pytest.mark.parametrize("n", range(3))
def test_chain_trace_sets_agree_with_the_enumerating_oracle(n):
    std, env, bounds = build_step(n), default_env(), Bounds(max_input_len=3)
    ts = traces(std, env, bounds)
    entries, reached = oracle_traces(std, env, bounds)
    assert list(ts.entries.items()) == list(entries.items())
    assert ts.reached == reached


def test_generated_trace_sets_agree_with_the_enumerating_oracle():
    # An output cap of 4 clips on some of these machines.
    bounds = Bounds(max_input_len=3, eps_budget=2, output_cap=4)
    rng = random.Random(7)
    capped = 0
    for _ in range(300):
        std = gen_std(rng)
        ts = traces(std, EMPTY_ENV, bounds)
        entries, reached = oracle_traces(std, EMPTY_ENV, bounds)
        assert list(ts.entries.items()) == list(entries.items()), print_std(std)
        assert ts.reached == reached, print_std(std)
        capped += any(e.capped for e in entries.values())
    assert capped


CLASS_TEMPLATE = """
std classes = {{
  input go(Int 0..1) | stop(Int 0..1) | halt
  output done | val(Int 0..1)
  states s init, t, u
  {transitions}
}}
"""


def _class_machine(transitions):
    return Machine(parse_std(CLASS_TEMPLATE.format(transitions=transitions)), EMPTY_ENV, K2)


def test_messages_that_differ_in_an_unread_argument_share_one_exploration(monkeypatch):
    machine = _class_machine("a: s -> t : go(v) / [done]")
    explored = _counting_explore(monkeypatch)
    s = make_config("s", {})
    assert machine.step(s, Msg("go", (0,))) is machine.step(s, Msg("go", (1,)))
    assert len(explored) == 1


def test_an_argument_read_one_eps_step_away_keeps_its_messages_apart(monkeypatch):
    # Only the output argument of `a`, which leaves t, reads v; s reaches t over eps.
    machine = _class_machine("e: s -> t : eps / [done]\n  a: t -> s : go(v) / [val(v)]")
    explored = _counting_explore(monkeypatch)
    s = make_config("s", {})
    go0, go1 = (machine.step(s, Msg("go", (v,))) for v in (0, 1))
    assert go0.reactions == {((Msg("done"), Msg("val", (0,))), s)}
    assert go1.reactions == {((Msg("done"), Msg("val", (1,))), s)}
    assert len(explored) == 2


def test_constructors_no_transition_of_the_closure_handles_share_one_exploration(monkeypatch):
    # `h` handles stop, but leaves u, which s does not reach over eps.
    machine = _class_machine(
        "e: s -> t : eps / [done]\n  a: t -> s : go(v) / [done]\n  h: u -> s : stop(w) / [val(w)]"
    )
    explored = _counting_explore(monkeypatch)
    s = make_config("s", {})
    unhandled = [machine.step(s, m) for m in (Msg("halt"), Msg("stop", (0,)), Msg("stop", (1,)))]
    assert all(r is unhandled[0] for r in unhandled) and unhandled[0].chaotic
    assert len(explored) == 1
    u = make_config("u", {})
    assert machine.step(u, Msg("stop", (0,))) != machine.step(u, Msg("stop", (1,)))
    assert len(explored) == 3


@pytest.mark.parametrize("eps", ["e: s -> s : eps / [done]", "e: s -> t : eps\n  f: t -> s : eps"])
def test_eps_cycles_close_and_step_as_the_oracle(eps):
    machine = _class_machine(eps + "\n  a: s -> t : go(v) / [val(v)]\n  b: t -> s : stop(v)")
    for config in all_configs(machine.std):
        for message in machine.inputs:
            sr = machine.step(config, message)
            assert oracle_step(machine.std, config, message, EMPTY_ENV, K2) == (
                sr.reactions,
                sr.divergent,
                sr.chaotic,
                sr.touched,
            )


def test_the_first_message_of_a_class_does_not_change_the_step():
    # A class's step is explored with whichever of its messages comes first:
    # stepping every pair forwards on one machine, and backwards on a fresh
    # one, must give the oracle's answer either way.
    rng = random.Random(7)
    bounds = Bounds(max_input_len=3, eps_budget=2, output_cap=4)
    for i in range(400):
        std = gen_std(rng, name=f"gen{i}")
        forwards, backwards = Machine(std, EMPTY_ENV, bounds), Machine(std, EMPTY_ENV, bounds)
        pairs = [(c, m) for c in all_configs(std) for m in forwards.inputs]
        stepped = [forwards.step(c, m) for c, m in pairs]
        stepped_back = [backwards.step(c, m) for c, m in reversed(pairs)][::-1]
        for (config, message), sr, back in zip(pairs, stepped, stepped_back):
            want = oracle_step(std, config, message, EMPTY_ENV, bounds)
            assert want == (sr.reactions, sr.divergent, sr.chaotic, sr.touched)
            assert want == (back.reactions, back.divergent, back.chaotic, back.touched)


@pytest.mark.parametrize("n", range(6))
def test_each_enabledness_question_goes_to_the_index_once(monkeypatch, n):
    # One memo per machine, keyed by (what the state reads, trigger), with
    # None for eps: no question reaches the uncached `_find_enabled` twice.
    std = build_step(n)
    asked = []
    find = Machine._find_enabled

    def counting(machine, config, trigger):
        asked.append((machine.key(config), trigger))
        return find(machine, config, trigger)

    monkeypatch.setattr(Machine, "_find_enabled", counting)
    traces(std, default_env(), K4)
    assert asked and len(asked) == len(set(asked))


def test_machine_enabled_answers_as_the_index_and_asks_it_once(monkeypatch):
    # Chain step 5 under the default environment: every reachable
    # configuration, every trigger.  A question whose (read key, trigger) was
    # asked before, by another configuration or by the same one, is answered
    # from the memo.
    machine = Machine(build_step(5), default_env(), K4)
    configs = sorted(traces(build_step(5), default_env(), K4).reached, key=config_key)
    questions = [(c, m) for c in configs for m in (None, *machine.inputs)]
    expected = [machine._find_enabled(c, m) for c, m in questions]
    asked = []
    find = Machine._find_enabled

    def counting(machine, config, trigger):
        asked.append((machine.key(config), trigger))
        return find(machine, config, trigger)

    monkeypatch.setattr(Machine, "_find_enabled", counting)
    assert [machine.enabled(c, m) for c, m in questions] == expected
    distinct = {(machine.key(c), m) for c, m in questions}
    assert len(asked) == len(distinct) < len(questions)
    assert set(asked) == distinct
    assert [machine.enabled(c, m) for c, m in questions] == expected
    assert len(asked) == len(distinct)


@pytest.mark.parametrize("n", range(6))
def test_chain_steps_agree_with_oracle_under_default_env(n):
    # Table lookups such as ok(ph) are only reached under an environment.
    std, env = build_step(n), default_env()
    bounds = Bounds(max_input_len=3)
    machine = Machine(std, env, bounds)
    for config in sorted(traces(std, env, bounds).reached, key=config_key):
        for message in machine.inputs:
            sr = machine.step(config, message)
            assert oracle_step(std, config, message, env, bounds) == (
                sr.reactions,
                sr.divergent,
                sr.chaotic,
                sr.touched,
            )


# ---------------------------------------------------------------------------
# Inclusion / equivalence verdicts on trace sets
# ---------------------------------------------------------------------------


def test_inclusion_allows_reduced_nondeterminism():
    tel = corpus_std("tel.std")
    pruned = parse_std(
        "".join(
            line
            for line in print_std(tel).splitlines(keepends=True)
            if not line.lstrip().startswith("u3:")
        )
    )
    abstract = traces(tel, EMPTY_ENV, K2)
    concrete = traces(pruned, EMPTY_ENV, K2)
    assert trace_inclusion(abstract, concrete).ok
    back = trace_inclusion(concrete, abstract)
    assert not back.ok
    assert back.witness is not None
    assert "BY" in str(back.witness.output)


PICK_SRC = """
std pick = {
  input go
  output a | b | c | z
  states s init
%s
}
"""


def test_inclusion_witness_is_the_least_missing_output():
    abstract = parse_std(PICK_SRC % "  t0: s -> s : go / [z]")
    concrete = parse_std(
        PICK_SRC
        % "\n".join(
            f"  t{i}: s -> s : go / [{o}]"
            for i, o in enumerate(("c", "a, a", "z", "b", "c, a"))
        )
    )
    verdict = trace_inclusion(traces(abstract, EMPTY_ENV, K2), traces(concrete, EMPTY_ENV, K2))
    assert not verdict.ok
    assert verdict.witness.input == (Msg("go"),)
    assert verdict.witness.output == (Msg("b"),)


def test_equivalence_is_reflexive_and_detects_difference():
    tel = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    assert trace_equivalence(tel, tel).ok
    pruned = parse_std(
        "".join(
            line
            for line in print_std(corpus_std("tel.std")).splitlines(keepends=True)
            if not line.lstrip().startswith("u3:")
        )
    )
    verdict = trace_equivalence(tel, traces(pruned, EMPTY_ENV, K2))
    assert not verdict.ok and verdict.witness is not None


def test_equivalence_requires_identical_alphabets():
    tel = traces(corpus_std("tel.std"), EMPTY_ENV, K2)
    stack = traces(corpus_std("stack.std"), EMPTY_ENV, K2)
    with pytest.raises(SignatureMismatch):
        trace_equivalence(tel, stack)


def test_inclusion_looks_up_the_concrete_side_only_where_the_abstract_is_not_chaotic(monkeypatch):
    # Chaos licenses every behaviour; on the failing 1 => 0 chain pair the
    # lookups stop at the witness.
    entry = TraceSet.entry
    for a, c, ok in ((0, 1, True), (1, 0, False)):
        abstract = traces(build_step(a), default_env(), K4)
        concrete = traces(build_step(c), default_env(), K4)
        looked = []

        def counting(ts, seq):
            if ts is concrete:
                looked.append(seq)
            return entry(ts, seq)

        monkeypatch.setattr(TraceSet, "entry", counting)
        verdict = trace_inclusion(abstract, concrete)
        assert verdict.ok is ok
        specified = [seq for seq, e in abstract.entries.items() if not e.chaos]
        if ok:
            assert looked == specified
        else:
            assert [m.ctor for m in verdict.witness.input] == ["call", "abandon"]
            assert looked == specified[: specified.index(verdict.witness.input) + 1]


SPEC_SRC = """
std spec = {
  input go
  output o
  states s init
  g: s -> s : go / [o]
}
"""

GAP_SRC = """
std gap = {
  input go
  output o
  states s init, t
  g: t -> t : go / [o]
}
"""


def test_second_set_chaotic_at_a_proper_prefix_fails_at_that_prefix():
    spec = traces(parse_std(SPEC_SRC), EMPTY_ENV, K2)
    gap = traces(parse_std(GAP_SRC), EMPTY_ENV, K2)
    go = Msg("go")
    assert (go, go) in spec.entries
    assert (go, go) not in gap.entries and gap.entry((go, go)) is CHAOS_ENTRY
    for verdict in (trace_inclusion(spec, gap), trace_equivalence(spec, gap)):
        assert not verdict.ok
        assert verdict.witness.input == (go,)
    assert trace_inclusion(gap, spec).ok
    assert trace_equivalence(gap, spec).witness.input == (go,)


# ---------------------------------------------------------------------------
# Where a guard holds
# ---------------------------------------------------------------------------


GUARDED_MACHINES = {
    "tel": lambda: (corpus_std("tel.std"), EMPTY_ENV),
    "stack": lambda: (corpus_std("stack.std"), EMPTY_ENV),
    "duo": lambda: (corpus_std("duo.std"), EMPTY_ENV),
    **{f"step{n}": (lambda n=n: (build_step(n), default_env())) for n in range(6)},
}


@pytest.mark.parametrize("name", list(GUARDED_MACHINES))
def test_guarded_agrees_with_the_oracle_on_the_corpus(name):
    # Triggers outermost, then the valuations in the order given.
    std, env = GUARDED_MACHINES[name]()
    machine = Machine(std, env)
    backwards = machine.valuations[::-1]
    for t in machine.std.transitions:
        every = oracle_guarded(std, t, env)
        assert list(machine.guarded(t)) == every, t.label
        triggers = list(dict.fromkeys(trigger for _, trigger, _ in every))
        expected = sorted(every, key=lambda g: (triggers.index(g[1]), backwards.index(g[0])))
        assert list(machine.guarded(t, backwards)) == expected, t.label


def test_guarded_agrees_with_the_oracle_on_generated_machines():
    rng = random.Random(7)
    for i in range(600):
        std = gen_std(rng, name=f"gen{i}")
        machine = Machine(std, EMPTY_ENV)
        for t in machine.std.transitions:
            assert list(machine.guarded(t)) == oracle_guarded(std, t, EMPTY_ENV), (i, t.label)
