"""The shipped call-processing case study: corpus, chain, environments."""

from __future__ import annotations

import itertools
import random

import pytest

from stdrefine import (
    STEP_FEATURES,
    Bounds,
    RuleError,
    apply_feature,
    base_std,
    build_step,
    check_refinement,
    corpus_path,
    corpus_text,
    default_env,
    feature_patch,
    parse_env,
    parse_messages,
    simulate_prefixes,
    trace_equivalence,
    traces,
    validate_std,
)
from stdrefine.interp import Machine
from stdrefine.model import enumerate_sort, make_environment

from fixtures import conflict_patches, corpus_env, corpus_std

B = Bounds(max_input_len=3, eps_budget=4, output_cap=16)
K2 = Bounds(max_input_len=2, eps_budget=4, output_cap=16)

ENV_HEADER = """domain DN = {d1, d2, d3}
default Busy = false
default ok = false
default ok-s = false
default fail-p = false
default fail-s = false
default DNR = false
default VP = false
default OCS = false
default TCS = false
default CNDB = false
default ACR = false
"""


def env_with(*rows: str):
    """A minimal call environment with the given extra table rows."""
    return parse_env(ENV_HEADER + "\n".join(rows) + "\n")


def outs(entry):
    return sorted("|".join(str(m) for m in seq) for seq in entry.outputs)


# ---------------------------------------------------------------------------
# Corpus integrity
# ---------------------------------------------------------------------------


def test_corpus_files_exist_and_parse():
    for fname in ("callproc.std", "tel.std", "stack.std", "duo.std"):
        assert corpus_path(fname).is_file()
        assert corpus_text(fname)


def test_corpus_machines_validate():
    for std in (base_std(), corpus_std("tel.std"), corpus_std("stack.std"), corpus_std("duo.std")):
        assert validate_std(std) == []
    for n in range(6):
        assert validate_std(build_step(n)) == []


def test_base_machine_shape():
    std = base_std()
    assert std.name == "callproc"
    assert set(std.states) == {"idle", "connect", "busy", "alerting"}
    assert len(std.transitions) == 3
    assert dict(std.domains)["DN"] == ("d1", "d2", "d3")


def test_step_features_inventory():
    assert STEP_FEATURES == {
        1: ("abandon", 0),
        2: ("split-connect", 1),
        3: ("forwarding", 2),
        4: ("blocking", 2),
        5: ("blocking", 3),
    }


def test_chain_growth():
    sizes = {n: len(build_step(n).transitions) for n in range(6)}
    assert sizes == {0: 3, 1: 6, 2: 11, 3: 18, 4: 15, 5: 22}
    for n in (3, 4, 5):
        assert "abandoned" in build_step(n).states
    assert "time-out" in build_step(3).states
    assert "blocked" in build_step(4).states


def test_shipped_envs_are_valid():
    # Binding raises when an environment does not fit a diagram.
    for env in (default_env(), corpus_env("quiet.env")):
        for n in range(6):
            Machine(build_step(n), env)


# ---------------------------------------------------------------------------
# Refinement along the development chain (small bound for speed; the
# acceptance gate re-runs these at the published bound)
# ---------------------------------------------------------------------------

CHAIN_PAIRS = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (0, 5)]


@pytest.mark.parametrize("i,j", CHAIN_PAIRS)
def test_chain_refinement_pairs(i, j):
    v = check_refinement(build_step(i), build_step(j), default_env(), K2)
    assert v.ok, v.describe()


def test_reversed_chain_pair_fails_with_witness():
    v = check_refinement(build_step(1), build_step(0), default_env(), K2)
    assert not v.ok
    assert v.witness is not None
    assert any(m.ctor == "abandon" for m in v.witness.input)


def _default_env_text(*edits: tuple[str, str]) -> str:
    text = corpus_text("default.env")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize(
    "env_text",
    [
        # a number in good standing with a follow-me entry
        _default_env_text(("FM(d2) = d3", "FM(d2) = d3\nFM(d1) = d2")),
        # d2 and d3 forward to each other, and neither answers
        _default_env_text(
            ("ok(d3) = true", "ok(d3) = false"), ("FM(d2) = d3", "FM(d2) = d3\nFM(d3) = d2")
        ),
    ],
    ids=["follow-me-in-good-standing", "forwarding-loop"],
)
def test_chain_refines_under_overlapping_or_looping_tables(env_text):
    # The rules' side conditions bind the environment themselves, so the
    # chain needs neither disjoint feature tables nor acyclic forwarding:
    # every step applies and refines its predecessor, and forwarding
    # redirects once, so a loop does not diverge.
    env = parse_env(env_text)
    steps = {0: base_std()}
    for n, (patch, prev) in sorted(STEP_FEATURES.items()):
        steps[n] = apply_feature(steps[prev], feature_patch(patch), env)
    for i, j in CHAIN_PAIRS:
        v = check_refinement(steps[i], steps[j], env, K2)
        assert v.ok, (i, j, v.describe())
    for n in (3, 5):
        assert not any(e.divergent for e in traces(steps[n], env, K2).entries.values())


def _random_env(rng: random.Random):
    """A callproc environment: each declared cell takes a value drawn
    uniformly from its result sort, and each cell of a partial symbol is
    left out with probability 0.5."""
    std = base_std()
    domains = std.domain_map()
    tables = {}
    for sym, decl in std.uses:
        rows = tables[sym] = {}
        for args in itertools.product(*(enumerate_sort(s, domains) for s in decl.params)):
            value = rng.choice(enumerate_sort(decl.result, domains))
            if decl.total or rng.random() < 0.5:
                rows[args] = value
    return make_environment(domains, tables)


def test_every_chain_step_that_applies_refines_its_predecessor_under_random_tables():
    # Side conditions are decided under one bound environment, so whether a
    # step applies depends on the tables; where it does, it must refine the
    # step it was applied to.  This drives every rule of the four features.
    rng = random.Random(1)
    applied, rejected = 0, 0
    for _ in range(30):
        env = _random_env(rng)
        steps = {0: base_std()}
        for n, (patch, prev) in sorted(STEP_FEATURES.items()):
            if prev not in steps:
                continue
            try:
                steps[n] = apply_feature(steps[prev], feature_patch(patch), env)
            except RuleError:
                rejected += 1
                continue
            applied += 1
            v = check_refinement(steps[prev], steps[n], env, K2)
            assert v.ok, (n, env, v.describe())
    # Forwarding (step 3) is rejected under 13 tables; step 5, built on it,
    # is then not tried.
    assert (applied, rejected) == (124, 13)


def test_forwarding_needs_no_directory_entry_for_a_subscriber_in_good_standing():
    # d2's record is ok and FM(d2) = d3: steps 1 and 2 still build, but the
    # follow-me transition overlaps the plain lookup, so forwarding is rejected.
    env = parse_env(_default_env_text(("FM(d2) = d3", "FM(d2) = d3\nok-s(d2) = true")))
    step = base_std()
    for n in (1, 2):
        step = apply_feature(step, feature_patch(STEP_FEATURES[n][0]), env)
    with pytest.raises(RuleError) as raised:
        apply_feature(step, feature_patch("forwarding"), env)
    assert str(raised.value) == (
        "rule add-transitions: feature 'forwarding', application #2 (add-transitions): "
        "new internal transition overlaps existing internal transition 't_oks' "
        "[witness: state find-subscriber, valuation {org=d1, ph=d2, sub=d2}]"
    )


def test_quiet_env_keeps_features_dormant():
    a = traces(build_step(2), corpus_env("quiet.env"), K2)
    b = traces(build_step(5), corpus_env("quiet.env"), K2)
    assert trace_equivalence(a, b).ok


# ---------------------------------------------------------------------------
# Behavior under the default environment
# ---------------------------------------------------------------------------


def test_default_call_to_busy_subscriber():
    seq = parse_messages("call(d2, d1), abandon")
    e = simulate_prefixes(build_step(2), default_env(), seq, B).entry(seq)
    assert outs(e) == ["busy-tone"]


def test_default_call_to_free_subscriber_rings():
    seq = parse_messages("call(d1, d3), abandon")
    e = simulate_prefixes(build_step(2), default_env(), seq, B).entry(seq)
    assert outs(e) == ["ring"]


def test_default_unresolved_subscriber_is_chaos_without_forwarding():
    # d2 neither answers nor fails; before forwarding exists the diagrams
    # simply do not say what happens next.
    seq = parse_messages("call(d1, d2), abandon")
    for n in (0, 1, 2, 4):
        assert simulate_prefixes(build_step(n), default_env(), seq, B).entry(seq).chaos
    for n in (3, 5):
        e = simulate_prefixes(build_step(n), default_env(), seq, B).entry(seq)
        assert not e.chaos and outs(e) == ["ring"]


def test_outputs_appear_while_the_next_message_is_pending():
    # Internal steps only run while some input is waiting, so a lone call
    # shows no outputs yet; the follow-up message flushes the routing chain.
    seq = parse_messages("call(d1, d2)")
    first = simulate_prefixes(build_step(3), default_env(), seq, B).entry(seq)
    assert outs(first) == [""]
    seq = parse_messages("call(d1, d2), abandon")
    both = simulate_prefixes(build_step(3), default_env(), seq, B).entry(seq)
    assert outs(both) == ["ring"]


# ---------------------------------------------------------------------------
# Forwarding directories under purpose-built environments
# ---------------------------------------------------------------------------


def test_delegation_resolves_via_second_subscriber():
    env = env_with("Del(d2) = d3", "ok-s(d3) = true", "ok(d3) = true")
    seq = parse_messages("call(d1, d2), abandon")
    e = simulate_prefixes(build_step(3), env, seq, B).entry(seq)
    assert not e.chaos and outs(e) == ["ring"]


def test_delegate_on_busy_hops_to_third_party():
    env = env_with(
        "FM(d2) = d3",
        "Busy(d3) = true",
        "DelB(d2) = d1",
        "ok-s(d1) = true",
        "ok(d1) = true",
    )
    seq = parse_messages("call(d2, d2), abandon")
    e = simulate_prefixes(build_step(3), env, seq, B).entry(seq)
    assert not e.chaos and outs(e) == ["ring"]
    assert e.divergent == frozenset()


def test_no_answer_delegation_uses_quick_alert_timer():
    env = env_with("FM(d2) = d3", "DelNA(d2) = d1", "ok-s(d1) = true", "ok(d1) = true")
    s3 = build_step(3)
    seq = parse_messages("call(d1, d2), time-out-alarm")
    armed = simulate_prefixes(s3, env, seq, B).entry(seq)
    assert not armed.chaos and outs(armed) == ["set-quick-alert-timer"]
    seq = parse_messages("call(d1, d2), time-out-alarm, abandon")
    done = simulate_prefixes(s3, env, seq, B).entry(seq)
    assert not done.chaos and outs(done) == ["set-quick-alert-timer|ring"]


def test_directory_without_reachable_resolution_stays_unspecified():
    env = env_with("DelNA(d2) = d3")  # never reaches the no-answer state
    seq = parse_messages("call(d1, d2), abandon")
    e = simulate_prefixes(build_step(3), env, seq, B).entry(seq)
    assert e.chaos


# ---------------------------------------------------------------------------
# Blocking predicates
# ---------------------------------------------------------------------------


def test_do_not_ring_blocks_the_subscriber():
    env = env_with("DNR(d2) = true")
    seq = parse_messages("call(d1, d2), abandon")
    e = simulate_prefixes(build_step(4), env, seq, B).entry(seq)
    assert not e.chaos and outs(e) == ["blocked-signal"]


def test_blocked_call_can_be_abandoned():
    env = env_with("DNR(d2) = true")
    ts = traces(build_step(4), env, K2)
    assert any(c.control == "blocked" for c in ts.reached)
    assert any(c.control == "abandoned" for c in ts.reached)


# ---------------------------------------------------------------------------
# Conflict fixture
# ---------------------------------------------------------------------------


def test_conflict_fixture_patches_load():
    left, right = conflict_patches()
    assert left.name == "conflict-left" and right.name == "conflict-right"
    assert left.subject == right.subject == "duo"
