"""Bounded operational semantics: stepping, trace sets, chaos, divergence."""

from __future__ import annotations

import pytest

from stdrefine import (
    Bounds,
    SignatureMismatch,
    Msg,
    ResourceLimit,
    check_monotone,
    make_config,
    parse_std,
    print_std,
    simulate,
    simulate_prefixes,
    stack_std,
    tel_std,
    trace_equivalence,
    trace_inclusion,
    traces,
)
from stdrefine.callproc import build_step, default_env
from stdrefine.interp import CHAOS_ENTRY, Machine, outputs_key, seq_key, traceset_to_json
from stdrefine.model import EMPTY_ENV

K2 = Bounds(max_input_len=2, eps_budget=4, output_cap=16)
K4 = Bounds(max_input_len=4, eps_budget=4, output_cap=16)


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
    tel = tel_std()
    for n in range(1, 10):
        entry = simulate(tel, EMPTY_ENV, (Msg("LT"), Msg("DL", (n,))), K2)
        assert not entry.chaos
        assert outs(entry) == ["DT|BY", "DT|RG"]
        assert entry.divergent == frozenset()


def test_tel_unspecified_input_is_chaos():
    # Going on hook while already on hook is not described: anything goes.
    entry = simulate(tel_std(), EMPTY_ENV, (Msg("OH"),), K2)
    assert entry.chaos


def test_tel_trace_count_is_alphabet_closure():
    ts = traces(tel_std(), EMPTY_ENV, K2)
    n = len(ts.inputs)
    assert n == 11  # LT, OH, DL(1..9)
    assert len(ts.entries) == 1 + n + n * n
    assert ts.entry(()) is not None and not ts.entry(()).chaos


# ---------------------------------------------------------------------------
# The stack fixture: list attributes, bare-value outputs, underflow chaos
# ---------------------------------------------------------------------------


def test_stack_top_answers_last_push():
    entry = simulate(stack_std(), EMPTY_ENV, (Msg("Push", (2,)), Msg("Top")), K2)
    assert not entry.chaos
    assert outs(entry) == ["2"]


def test_stack_pop_to_empty_then_pop_is_chaos():
    b = Bounds(max_input_len=3, eps_budget=2, output_cap=16)
    seq = (Msg("Push", (1,)), Msg("Pop"), Msg("Pop"))
    assert not simulate(stack_std(), EMPTY_ENV, seq[:2], b).chaos
    assert simulate(stack_std(), EMPTY_ENV, seq, b).chaos


def test_stack_overflow_is_chaos():
    b = Bounds(max_input_len=4, eps_budget=2, output_cap=16)
    seq = tuple(Msg("Push", (i % 4,)) for i in range(4))
    assert not simulate(stack_std(), EMPTY_ENV, seq[:3], b).chaos
    assert simulate(stack_std(), EMPTY_ENV, seq, b).chaos


# ---------------------------------------------------------------------------
# Chaos is entry-absorbing
# ---------------------------------------------------------------------------


def test_chaos_absorbs_extensions():
    ts = traces(tel_std(), EMPTY_ENV, K2)
    bad = (Msg("OH"),)
    assert ts.entry(bad).chaos
    for seq in ts.sequences():
        if len(seq) > len(bad) and seq[: len(bad)] == bad:
            assert ts.entry(seq) is CHAOS_ENTRY


def test_simulate_prefixes_records_every_prefix():
    seq = (Msg("LT"), Msg("DL", (1,)))
    ts = simulate_prefixes(tel_std(), EMPTY_ENV, seq, K2)
    assert ts.sequences() == [(), seq[:1], seq]
    assert ts.entry(seq) == simulate(tel_std(), EMPTY_ENV, seq, K2)


def test_simulate_rejects_foreign_messages():
    with pytest.raises(ValueError, match="not an input message instance"):
        simulate(tel_std(), EMPTY_ENV, (Msg("Zap"),), K2)


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
    for std in (tel_std(), stack_std()):
        assert check_monotone(traces(std, EMPTY_ENV, K2)).ok


def test_traces_monotone_in_k():
    small = traces(tel_std(), EMPTY_ENV, Bounds(max_input_len=1, eps_budget=4, output_cap=16))
    large = traces(tel_std(), EMPTY_ENV, K2)
    for seq, entry in small.entries.items():
        assert large.entries[seq] == entry


def test_traces_are_deterministic():
    a = traces(tel_std(), EMPTY_ENV, K2)
    b = traces(tel_std(), EMPTY_ENV, K2)
    assert a == b
    assert traceset_to_json(a) == traceset_to_json(b)


@pytest.mark.parametrize("n", range(6))
def test_corpus_trace_sets_are_built_in_canonical_order(n):
    ts = traces(build_step(n), default_env(), K4)
    assert list(ts.entries) == sorted(ts.entries, key=seq_key)


def test_initial_configs_respect_initial_predicates():
    m = Machine(stack_std(), EMPTY_ENV, K2)
    assert list(m.initial_configs()) == [make_config("estack", {"l": ()})]


# ---------------------------------------------------------------------------
# Inclusion / equivalence verdicts on trace sets
# ---------------------------------------------------------------------------


def test_inclusion_allows_reduced_nondeterminism():
    tel = tel_std()
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
    tel = traces(tel_std(), EMPTY_ENV, K2)
    assert trace_equivalence(tel, tel).ok
    pruned = parse_std(
        "".join(
            line
            for line in print_std(tel_std()).splitlines(keepends=True)
            if not line.lstrip().startswith("u3:")
        )
    )
    verdict = trace_equivalence(tel, traces(pruned, EMPTY_ENV, K2))
    assert not verdict.ok and verdict.witness is not None


def test_equivalence_requires_identical_alphabets():
    tel = traces(tel_std(), EMPTY_ENV, K2)
    stack = traces(stack_std(), EMPTY_ENV, K2)
    with pytest.raises(SignatureMismatch):
        trace_equivalence(tel, stack)
