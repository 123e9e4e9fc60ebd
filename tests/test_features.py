"""Feature patches: application and conflict detection."""

from __future__ import annotations

import ast
import inspect
import typing

import pytest

from stdrefine import (
    Bounds,
    FeatureApplyError,
    FeaturePatch,
    RuleError,
    Std,
    apply_feature,
    apply_rule,
    base_std,
    build_step,
    check_refinement,
    conflict_matrix,
    default_env,
    detect_conflict,
    feature_patch,
    parse_feature,
    parse_std,
    trace_equivalence,
    traces,
)
from stdrefine import features
from stdrefine.features import conflict_to_json
from stdrefine.model import EMPTY_ENV, AttrRef, Lit, replace
from stdrefine.refine import RuleApplication

from fixtures import conflict_patches, corpus_std

B = Bounds(max_input_len=3, eps_budget=3, output_cap=16)
SMALL = Bounds(max_input_len=2, eps_budget=4, output_cap=16)


# ---------------------------------------------------------------------------
# Applying patches
# ---------------------------------------------------------------------------


def test_apply_feature_reproduces_chain_step():
    out = apply_feature(base_std(), feature_patch("abandon"), default_env(), B)
    assert out == build_step(1)


def test_apply_feature_reports_failing_application_index():
    patch = parse_feature(
        """
feature broken on duo {
  add-states { waiting }
  remove-transitions { nosuch }
}
""",
        base=corpus_std("duo.std"),
    )
    with pytest.raises(FeatureApplyError) as info:
        apply_feature(corpus_std("duo.std"), patch, EMPTY_ENV, B)
    assert info.value.feature == "broken"
    assert info.value.index == 1
    assert "application #2" in str(info.value)


MINI = parse_std("""
std m = {
  input go
  output a
  attributes x :: Int 0..2
  states s init
  t: s -> s : go / [a]
}
""")


def test_a_later_rule_sort_checks_the_transitions_it_adds():
    # The first rule validated the machine; the second adds a transition
    # whose guard is an Int, and is rejected as the whole-diagram check
    # rejects it.
    patch = parse_feature(
        """
feature f on m {
  add-states { w }
  add-transitions {
    u: w -> w : {x + 1} go / [a]
  }
}
""",
        base=MINI,
    )
    with pytest.raises(FeatureApplyError) as info:
        apply_feature(MINI, patch, EMPTY_ENV)
    assert str(info.value) == (
        "rule add-transitions: feature 'f', application #2 (add-transitions): "
        "the transformed machine is invalid: transition u: guard must be Bool"
    )


def test_an_ill_sorted_input_fails_the_first_rule_with_every_problem():
    t = MINI.transitions[0]
    ill = replace(MINI, transitions=(replace(t, guard=AttrRef("x"), post=Lit(2)),))
    patch = parse_feature("feature g on m { add-states { w } add-states { v } }", base=MINI)
    with pytest.raises(FeatureApplyError) as info:
        apply_feature(ill, patch, EMPTY_ENV)
    assert str(info.value) == (
        "rule add-states: feature 'g', application #1 (add-states): the transformed "
        "machine is invalid: transition t: guard must be Bool; "
        "transition t: postcondition must be Bool"
    )


def test_a_report_rejects_an_ill_sorted_rule_as_a_lone_application_does():
    # The first feature's rules sort-check MINI's transitions; the second
    # feature's later rule adds an ill-sorted one and is rejected with the
    # text a rule applied on its own gives.
    good = parse_feature("feature good on m { add-states { v } }", base=MINI)
    bad = parse_feature(
        """
feature bad on m {
  add-states { w }
  add-transitions {
    u: w -> w : {x + 1} go / [a]
  }
}
""",
        base=MINI,
    )
    with pytest.raises(RuleError) as alone:
        apply_rule(apply_rule(MINI, bad.applications[0], EMPTY_ENV), bad.applications[1], EMPTY_ENV)
    report = detect_conflict(MINI, good, bad, EMPTY_ENV, SMALL)
    assert report.verdict == "inapplicable"
    assert report.evidence == (
        f"feature 'bad' does not apply to m: rule add-transitions: feature 'bad', "
        f"application #2 (add-transitions): {alone.value.reason}",
    )
    assert alone.value.reason == (
        "the transformed machine is invalid: transition u: guard must be Bool")


# ---------------------------------------------------------------------------
# Conflict detection: the three verdicts
# ---------------------------------------------------------------------------


def test_compatible_features_merge_and_refine_both_singles():
    step2 = build_step(2)
    env = default_env()
    fwd = feature_patch("forwarding")
    blk = feature_patch("blocking")
    report = detect_conflict(step2, fwd, blk, env, SMALL)
    assert report.verdict == "compatible"
    assert not report.is_conflict
    assert report.merged is not None
    assert report.evidence[-1] == "both orders agree (bounded-trace-equivalent)"
    # the merged machine refines each single-feature machine (the common
    # refinement that defines compatibility)
    for patch in (fwd, blk):
        single = apply_feature(step2, patch, env, SMALL)
        assert check_refinement(single, report.merged, env, SMALL).ok


def test_conflicting_fixture_has_evidence_for_both_orders():
    left, right = conflict_patches()
    report = detect_conflict(corpus_std("duo.std"), left, right, EMPTY_ENV, B)
    assert report.verdict == "conflicting"
    assert report.is_conflict
    assert report.merged is None
    assert len(report.evidence) >= 2
    text = "\n".join(report.evidence)
    assert "conflict-left then conflict-right" in text
    assert "conflict-right then conflict-left" in text


def test_two_patches_that_share_a_name_are_told_apart():
    # Each single-feature machine stays with its own patch, so the renamed
    # pair is decided as the corpus pair is.
    left, right = conflict_patches()
    corpus = detect_conflict(corpus_std("duo.std"), left, right, EMPTY_ENV, B)
    renamed = detect_conflict(
        corpus_std("duo.std"), replace(left, name="same"), replace(right, name="same"), EMPTY_ENV, B
    )
    assert renamed.verdict == corpus.verdict == "conflicting"
    assert renamed.evidence == tuple(
        e.replace("conflict-left", "same").replace("conflict-right", "same")
        for e in corpus.evidence
    )
    assert "existing transition 'g_left'" in renamed.evidence[0]


def test_name_collision_is_not_independent():
    duo = corpus_std("duo.std")
    p1 = parse_feature("feature one on duo { add-states { blocked } }", base=duo)
    p2 = parse_feature("feature two on duo { add-states { blocked } }", base=duo)
    report = detect_conflict(duo, p1, p2, EMPTY_ENV, B)
    assert report.verdict == "not-independent"
    assert any("blocked" in e for e in report.evidence)


SPLIT_BASE = """
std base = {
  input go | stop
  output a
  states s init, u
  t: s -> u : go / [a]
  back: u -> s : stop
}
"""


def test_a_label_made_by_split_state_is_contended_for():
    # Splitting u into p copies `back` out of p as `back__p`; the other
    # feature adds a transition of that very label.
    base = parse_std(SPLIT_BASE)
    one = parse_feature("feature one on base { split u into { p } { redirect t -> p } }", base=base)
    two = parse_feature(
        "feature two on base { add-transitions { back__p: s -> s : stop } }", base=base
    )
    report = detect_conflict(base, one, two, EMPTY_ENV, B)
    assert report.verdict == "not-independent"
    assert report.evidence == ("both features introduce a transition labeled 'back__p'",)


def test_a_state_added_and_removed_again_is_not_introduced():
    base = parse_std(SPLIT_BASE)
    gone = parse_feature(
        "feature gone on base { add-states { w } remove-states { w } }", base=base
    )
    kept = parse_feature("feature kept on base { add-states { w } }", base=base)
    report = detect_conflict(base, gone, kept, EMPTY_ENV, B)
    assert report.verdict == "compatible", report.describe()
    assert report.merged.states == ("s", "u", "w")


def test_conflict_detection_reads_machines_not_rule_kinds():
    # What a feature introduces is read from its machine, and trace sets are
    # kept by role, not by object identity.
    tree = ast.parse(inspect.getsource(features))
    imported = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    rule_kinds = {cls.__name__ for cls in typing.get_args(RuleApplication)}
    assert imported & rule_kinds == set()
    assert not any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
        for node in ast.walk(tree)
    )


def test_patch_failing_alone_is_inapplicable():
    duo = corpus_std("duo.std")
    fine = parse_feature("feature fine on duo { add-states { waiting } }", base=duo)
    broken = parse_feature(
        "feature broken on duo { remove-transitions { nosuch } }", base=duo
    )
    report = detect_conflict(duo, fine, broken, EMPTY_ENV, B)
    assert report.verdict == "inapplicable"
    assert report.is_conflict
    assert report.evidence == (
        "feature 'broken' does not apply to duo: rule remove-transitions: feature 'broken', "
        "application #1 (remove-transitions): no transition labeled 'nosuch'",
    )


PICK_SRC = """
std pick = {
  input go
  output a | b | c
  states s init
%s
}
"""


def _pick(prefix: str, *outputs: str) -> Std:
    """A one-state machine answering go with any one of `outputs`, by
    transitions labeled `prefix` and a number."""
    return parse_std(
        PICK_SRC % "\n".join(
            f"  {prefix}{i}: s -> s : go / [{o}]" for i, o in enumerate(outputs)
        )
    )


def _decide_stubbed(monkeypatch, s1: Std, s2: Std, c12: Std, c21: Std):
    """The report on features f1 and f2 over `_pick("t")`, with
    `apply_feature` stubbed: f1 and f2 alone give `s1` and `s2`, and the
    orders f1 then f2 and f2 then f1 give `c12` and `c21`.  Each machine has
    labels of its own, so that the features do not contend for a name."""
    base = _pick("t")
    results = {(base, "f1"): s1, (base, "f2"): s2, (s1, "f2"): c12, (s2, "f1"): c21}
    monkeypatch.setattr(
        features, "apply_feature", lambda std, patch, env, bounds: results[(std, patch.name)]
    )
    f1, f2 = FeaturePatch("f1", "pick", ()), FeaturePatch("f2", "pick", ())
    return detect_conflict(base, f1, f2, EMPTY_ENV, SMALL)


def test_rejected_order_does_not_leak_traces_into_accepted_order(monkeypatch):
    """The first order's combined machine fails refinement and is dropped;
    the second order's passes, so its verdict must be reached on its own
    trace set."""
    s1, s2 = _pick("p", "a", "b"), _pick("q", "a", "b", "c")
    rejected, accepted = _pick("r", "c"), _pick("u", "a")  # refines neither / both singles
    report = _decide_stubbed(monkeypatch, s1, s2, rejected, accepted)
    assert report.verdict == "compatible", report.describe()
    assert report.merged == accepted
    assert "order f1 then f2: combined machine does not refine" in report.evidence[0]


def test_an_order_must_refine_the_second_single_machine_too(monkeypatch):
    # f1 then f2 refines f1's machine (b is among a, b) but not f2's (only
    # a); f2 then f1 refines neither.
    s1, s2 = _pick("p", "a", "b"), _pick("q", "a")
    report = _decide_stubbed(monkeypatch, s1, s2, _pick("r", "b"), _pick("u", "c"))
    assert report.verdict == "conflicting", report.describe()
    assert report.merged is None
    assert report.evidence[0] == (
        "order f1 then f2: combined machine does not refine the machine with only one "
        "feature; refinement: FAIL (bounds: k=2 eps-budget=4 output-cap=16 state-cap=none)\n"
        "  input:  [go]\n"
        "  output: [b]\n"
        "  concrete output is not among the abstract outputs"
    )


def test_two_passing_orders_that_disagree_conflict(monkeypatch):
    # Each order refines both singles (a, b), but one answers a and the
    # other b.
    s1, s2 = _pick("p", "a", "b"), _pick("q", "a", "b")
    report = _decide_stubbed(monkeypatch, s1, s2, _pick("r", "a"), _pick("u", "b"))
    assert report.verdict == "conflicting", report.describe()
    assert report.merged is None
    assert report.evidence[:2] == (
        "order f1 then f2: applies and refines both single-feature machines",
        "order f2 then f1: applies and refines both single-feature machines",
    )
    assert report.evidence[-1].startswith(
        "the two orders disagree observably; trace-equivalence: FAIL"
    )


def _count_traces(monkeypatch) -> list:
    """The arguments of each `traces` call that conflict detection makes
    from now on."""
    calls = []
    monkeypatch.setattr(features, "traces", lambda *args: calls.append(args) or traces(*args))
    return calls


@pytest.mark.parametrize("reordered, made", [(False, 4), (True, 3)])
def test_stubbed_orders_share_a_trace_set_only_when_equal_up_to_order(
    monkeypatch, reordered, made
):
    # Both orders pass.  f2 then f1 gives f1 then f2's machine with its
    # transitions reversed, which is traced once, or a machine with labels of
    # its own, which is traced apart: two singles plus one or two combined.
    calls = _count_traces(monkeypatch)
    s1, s2, c12 = _pick("p", "a", "b"), _pick("q", "a", "b"), _pick("r", "a", "b")
    c21 = replace(c12, transitions=c12.transitions[::-1]) if reordered else _pick("u", "a", "b")
    report = _decide_stubbed(monkeypatch, s1, s2, c12, c21)
    assert report.verdict == "compatible", report.describe()
    assert report.merged == c12
    assert len(calls) == made


def _traces_made(monkeypatch, base: Std, f1: FeaturePatch, f2: FeaturePatch, env) -> int:
    calls = _count_traces(monkeypatch)
    detect_conflict(base, f1, f2, env, SMALL)
    return len(calls)


def test_a_report_traces_each_compared_machine_once(monkeypatch):
    # Both orders apply: two singles and one combined machine, which the
    # orders share, as they give the same machine up to declaration order.
    fwd, blk = feature_patch("forwarding"), feature_patch("blocking")
    assert _traces_made(monkeypatch, build_step(2), fwd, blk, default_env()) == 3


def test_a_report_traces_nothing_when_no_order_applies(monkeypatch):
    left, right = conflict_patches()
    assert _traces_made(monkeypatch, corpus_std("duo.std"), left, right, EMPTY_ENV) == 0


def test_compatible_orders_are_trace_equivalent():
    step2 = build_step(2)
    env = default_env()
    fwd = feature_patch("forwarding")
    blk = feature_patch("blocking")
    ab = apply_feature(apply_feature(step2, fwd, env, SMALL), blk, env, SMALL)
    ba = apply_feature(apply_feature(step2, blk, env, SMALL), fwd, env, SMALL)
    assert trace_equivalence(traces(ab, env, SMALL), traces(ba, env, SMALL)).ok


# ---------------------------------------------------------------------------
# Matrix and serialization
# ---------------------------------------------------------------------------


def test_conflict_matrix_covers_every_unordered_pair():
    duo = corpus_std("duo.std")
    left, right = conflict_patches()
    neutral = parse_feature("feature neutral on duo { add-states { spare } }", base=duo)
    rows = conflict_matrix(duo, (left, right, neutral), EMPTY_ENV, B)
    assert [pair for pair, _ in rows] == [(0, 1), (0, 2), (1, 2)]
    verdicts = {pair: rep.verdict for pair, rep in rows}
    assert verdicts[(0, 1)] == "conflicting"
    assert verdicts[(0, 2)] == "compatible"
    assert verdicts[(1, 2)] == "compatible"


def test_conflict_report_json_shape():
    left, right = conflict_patches()
    report = detect_conflict(corpus_std("duo.std"), left, right, EMPTY_ENV, B)
    doc = conflict_to_json(report)
    assert doc["format"] == "conflict/1"
    assert doc["verdict"] == "conflicting"
    assert doc["features"] == ["conflict-left", "conflict-right"]
    assert doc["merged"] is None


def test_conflict_report_describe_mentions_verdict_and_bounds():
    left, right = conflict_patches()
    report = detect_conflict(corpus_std("duo.std"), left, right, EMPTY_ENV, B)
    text = report.describe()
    assert "conflicting" in text
    assert "k=3" in text
