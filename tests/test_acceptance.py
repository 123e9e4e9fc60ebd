"""Acceptance gate: one test per shipped criterion, each with a time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Every test times its own body against the stated budget and
fails if the work is wrong *or* too slow.
"""

from __future__ import annotations

import functools
import json
import random
import time

from machine_gen import gen_application, gen_std
from oracles import all_configs, oracle_enabled, oracle_step

from stdrefine import (
    Bounds,
    Msg,
    RuleError,
    apply_feature,
    apply_rule,
    build_step,
    check_monotone,
    check_refinement,
    corpus_text,
    default_env,
    desugar,
    detect_conflict,
    feature_patch,
    make_environment,
    parse_env,
    parse_feature,
    parse_std,
    print_env,
    print_feature,
    print_std,
    std_from_json,
    std_to_json,
    trace_equivalence,
    trace_inclusion,
    traces,
    validate_std,
)
from stdrefine.interp import Machine
from stdrefine.model import message_instances

K4 = Bounds(max_input_len=4, eps_budget=4, output_cap=16)
GEN_BOUNDS = Bounds(max_input_len=3, eps_budget=4, output_cap=64)
EMPTY_ENV = make_environment({}, {}, {})

STD_FILES = ("callproc.std", "tel.std", "stack.std", "duo.std")
FEAT_FILES = (
    "abandon.feat",
    "split-connect.feat",
    "forwarding.feat",
    "blocking.feat",
    "conflict-left.feat",
    "conflict-right.feat",
)
ENV_FILES = ("default.env", "quiet.env")


def criterion(number: int, budget: float, summary: str):
    """Wrap a test so it prints one PASS/FAIL line and enforces its budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: criterion {number} — {summary}")
                raise
            elapsed = time.monotonic() - start
            if elapsed >= budget:
                print(f"FAIL: criterion {number} — {summary} "
                      f"(over budget: {elapsed:.2f}s >= {budget:.0f}s)")
                raise AssertionError(
                    f"criterion {number} exceeded its {budget:.0f}s budget "
                    f"({elapsed:.2f}s)"
                )
            print(f"PASS: criterion {number} — {summary} ({elapsed:.2f}s)")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=1)
def generated_corpus():
    """200 deterministic small machines shared by criteria 5-7."""
    rng = random.Random(20260816)
    return tuple(gen_std(rng, name=f"gen{i}") for i in range(200))


@criterion(1, 1.0, "telephone fixture: [LT, DL(n)] yields exactly {[DT,RG],[DT,BY]}")
def test_criterion_01_telephone_output_set():
    tel = parse_std(corpus_text("tel.std"))
    ts = traces(tel, EMPTY_ENV, Bounds(max_input_len=2, eps_budget=4, output_cap=16))
    expected = frozenset(
        {
            (Msg("DT", ()), Msg("RG", ())),
            (Msg("DT", ()), Msg("BY", ())),
        }
    )
    for n in range(1, 10):
        entry = ts.entry((Msg("LT", ()), Msg("DL", (n,))))
        assert not entry.chaos
        assert entry.outputs == expected, (n, entry.outputs)


@criterion(2, 60.0, "refinement chain: all seven step pairs verify at k=4")
def test_criterion_02_refinement_chain():
    env = default_env()
    for abstract, concrete in ((0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (0, 5)):
        verdict = check_refinement(build_step(abstract), build_step(concrete), env, K4)
        assert verdict.ok, (abstract, concrete, verdict.describe())


@criterion(3, 60.0, "forwarding and blocking are compatible and order-independent at k=4")
def test_criterion_03_feature_compatibility():
    env = default_env()
    base = build_step(2)
    fwd = feature_patch("forwarding")
    blk = feature_patch("blocking")

    report = detect_conflict(base, fwd, blk, env, K4)
    assert report.verdict == "compatible", report.evidence

    # Each order of the two features refines step 2, and the orders agree.
    base_traces = traces(base, env, K4)
    folded = []
    for first, second in ((fwd, blk), (blk, fwd)):
        both = apply_feature(apply_feature(base, first, env, K4), second, env, K4)
        folded.append(traces(both, env, K4))
        verdict = trace_inclusion(base_traces, folded[-1])
        assert verdict.ok, (first.name, verdict.describe())
    verdict = trace_equivalence(*folded)
    assert verdict.ok, verdict.describe()


@criterion(4, 5.0, "shipped fixture conflicts with a disjointness witness in both orders")
def test_criterion_04_constructed_conflict():
    duo = parse_std(corpus_text("duo.std"))
    left = parse_feature(corpus_text("conflict-left.feat"))
    right = parse_feature(corpus_text("conflict-right.feat"))

    report = detect_conflict(duo, left, right, EMPTY_ENV, K4)
    assert report.verdict == "conflicting"
    assert report.is_conflict
    assert len(report.evidence) == 2
    orders = {line.split(":")[0] for line in report.evidence}
    assert orders == {
        "order conflict-left then conflict-right",
        "order conflict-right then conflict-left",
    }
    for line in report.evidence:
        assert "add-transitions" in line  # the disjointness side condition
        assert "witness" in line


@criterion(5, 300.0, "every successful rule application is a bounded refinement at k=3")
def test_criterion_05_rule_soundness_suite():
    corpus = generated_corpus()
    assert len(corpus) >= 200
    rng = random.Random(5)
    attempted = succeeded = 0
    for std in corpus:
        for _ in range(3):
            application = gen_application(rng, std)
            attempted += 1
            try:
                result = apply_rule(std, application, EMPTY_ENV)
            except RuleError:
                continue
            succeeded += 1
            assert validate_std(result) == []
            verdict = check_refinement(std, result, EMPTY_ENV, GEN_BOUNDS)
            assert verdict.ok, (std.name, application, verdict.describe())
    # The suite is only meaningful if plenty of applications actually landed.
    assert succeeded >= 200, (attempted, succeeded)


@criterion(6, 300.0, "trace sets of every generated machine are prefix-monotone")
def test_criterion_06_monotonicity_suite():
    for std in generated_corpus():
        verdict = check_monotone(traces(std, EMPTY_ENV, GEN_BOUNDS))
        assert verdict.ok, (std.name, verdict.describe())


@criterion(7, 60.0, "interpreter agrees with the brute-force oracle on 1000+ triples")
def test_criterion_07_oracle_equivalence():
    rng = random.Random(7)
    triples = 0
    for std in generated_corpus():
        machine = Machine(std, EMPTY_ENV, GEN_BOUNDS)
        configs = all_configs(std)
        msgs = list(message_instances(std.signature.inputs, std.domain_map()))
        for _ in range(6):
            config = rng.choice(configs)
            message = rng.choice(msgs)
            triples += 1

            got = {
                (e.transition.label, e.reactions)
                for e in machine._find_enabled(config, message)
            }
            assert got == {
                (label, reactions)
                for label, _, reactions in oracle_enabled(std, config, message, EMPTY_ENV)
            }

            sr = machine.step(config, message)
            assert oracle_step(std, config, message, EMPTY_ENV, GEN_BOUNDS) == (
                sr.reactions,
                sr.divergent,
                sr.chaotic,
                sr.touched,
            )
    assert triples >= 1000, triples


@criterion(8, 5.0, "reversed chain check fails with a replayable abandon counterexample")
def test_criterion_08_negative_refinement():
    env = default_env()
    verdict = check_refinement(build_step(1), build_step(0), env, K4)
    assert not verdict.ok
    witness = verdict.witness
    assert witness is not None
    assert tuple(m.ctor for m in witness.input) == ("call", "abandon")

    # Replay: the base machine is chaotic at the witness input, the extended
    # machine is not, so the inclusion genuinely fails there.
    base_entry = traces(build_step(0), env, K4).entry(witness.input)
    ext_entry = traces(build_step(1), env, K4).entry(witness.input)
    assert base_entry.chaos and not ext_entry.chaos


@criterion(9, 5.0, "full-corpus round-trips: text, JSON, and desugaring")
def test_criterion_09_round_trips():
    machines = []
    for name in STD_FILES:
        std = parse_std(corpus_text(name))
        machines.append(std)
        canonical = print_std(std)
        assert parse_std(canonical) == std
        assert print_std(parse_std(canonical)) == canonical
    machines.extend(build_step(i) for i in range(6))

    for name in FEAT_FILES:
        patch = parse_feature(corpus_text(name))
        canonical = print_feature(patch)
        assert parse_feature(canonical) == patch
        assert print_feature(parse_feature(canonical)) == canonical

    for name in ENV_FILES:
        text = corpus_text(name)
        env = parse_env(text)
        assert parse_env(print_env(env)) == env

    for std in machines:
        doc = json.loads(json.dumps(std_to_json(std)))
        assert std_from_json(doc) == std
        once = desugar(std)
        assert desugar(once) == once


@criterion(10, 30.0, "with every feature table empty, step 5 equals step 2 at k=4")
def test_criterion_10_dormant_features():
    quiet = parse_env(corpus_text("quiet.env"))
    verdict = trace_equivalence(
        traces(build_step(5), quiet, K4),
        traces(build_step(2), quiet, K4),
    )
    assert verdict.ok, verdict.describe()
