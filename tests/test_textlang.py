"""Concrete syntax: parsing, printing, JSON import/export, error spans."""

from __future__ import annotations

import json
import random
from importlib import resources

import jsonschema
import pytest

from stdrefine import (
    Msg,
    ParseFailure,
    RuleError,
    apply_feature,
    base_std,
    corpus_text,
    default_env,
    parse_env,
    parse_feature,
    parse_messages,
    parse_std,
    print_env,
    print_feature,
    print_std,
    std_from_json,
    std_to_json,
)
from fixtures import corpus_std
from machine_gen import gen_application, gen_std
from stdrefine.textlang import tokenize
from stdrefine.callproc import _PATCH_NAMES  # the shipped .feat inventory
from stdrefine.features import FeaturePatch
from stdrefine.model import (
    EMPTY_ENV,
    AttrRef,
    BinOp,
    EnumLit,
    Lit,
    ParamRef,
    PrimedRef,
    SymApp,
    name_scope,
    replace,
    resolve_transition,
)
from stdrefine.refine import AddStates, AddTransitions

STD_FILES = ("callproc.std", "tel.std", "stack.std", "duo.std")
ENV_FILES = ("default.env", "quiet.env")
FEAT_FILES = tuple(f"{name}.feat" for name in _PATCH_NAMES)


# ---------------------------------------------------------------------------
# Round-trips over the shipped corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fname", STD_FILES)
def test_std_parse_print_identity(fname):
    std = parse_std(corpus_text(fname))
    assert parse_std(print_std(std)) == std


@pytest.mark.parametrize("fname", STD_FILES)
def test_std_printing_is_stable(fname):
    std = parse_std(corpus_text(fname))
    text = print_std(std)
    assert print_std(parse_std(text)) == text


@pytest.mark.parametrize("fname", STD_FILES)
def test_std_json_import_export_identity(fname):
    std = parse_std(corpus_text(fname))
    doc = std_to_json(std)
    assert doc["format"] == "std/1"
    assert std_from_json(doc) == std
    # and through an actual serialization
    assert std_from_json(json.loads(json.dumps(doc))) == std


@pytest.mark.parametrize("fname", ENV_FILES)
def test_env_parse_print_identity(fname):
    env = parse_env(corpus_text(fname))
    assert parse_env(print_env(env)) == env


@pytest.mark.parametrize("fname", FEAT_FILES)
def test_feature_parse_print_identity(fname):
    text = corpus_text(fname)
    base = corpus_std("duo.std") if fname.startswith("conflict-") else base_std()
    patch = parse_feature(text, base=base)
    assert parse_feature(print_feature(patch), base=base) == patch


def test_feature_print_covers_split_and_removals():
    # Exercise every application form through the printer, not just the
    # corpus ones: split with strengthening, removals, initial removal.
    src = """
std two = {
  input go | halt
  output o
  attributes x :: Int 0..1
  states a init, b init, c
  t1: a -> c : go / [o]
  t2: b -> c : halt {x' == x}
  t3: c -> a : go {x' == x}
}
"""
    base = parse_std(src)
    patch_text = """
feature surgery on two {
  split c into { c_lo, c_hi } {
    redirect t1 -> c_lo with {x' == 0}
    redirect t2 -> c_hi
  }
  remove-initial-states { b }
  remove-transitions { t3__c_hi }
  remove-states { b, c_hi }
}
"""
    patch = parse_feature(patch_text, base=base)
    printed = print_feature(patch)
    assert parse_feature(printed, base=base) == patch
    # the patch is actually applicable and ends where it should
    out = apply_feature(base, patch, EMPTY_ENV)
    assert sorted(out.states) == ["a", "c_lo"]
    assert [t.label for t in out.transitions] == ["t1", "t3__c_lo"]


# ---------------------------------------------------------------------------
# Parse errors
# ---------------------------------------------------------------------------


def _spans_lie_within(text: str, exc: ParseFailure) -> bool:
    lines = text.splitlines() or [""]
    for err in exc.errors:
        s = err.span
        if not (1 <= s.line <= len(lines) + 1):
            return False
        if s.col < 1:
            return False
    return True


@pytest.mark.parametrize(
    "src",
    [
        "std x = {",
        "std x = { input go output o states }",
        "std x = { input go output o states a init t: a -> nowhere : go }",
        "std x = { input go | go output o states a init }",
        "std x = { input go output o attributes x :: Int 5..2 states a init }",
        "std x = { input go output o states a init t: a -> a : {x' == 0} go }",
    ],
)
def test_parse_errors_carry_in_range_spans(src):
    with pytest.raises(ParseFailure) as info:
        parse_std(src)
    assert _spans_lie_within(src, info.value)
    assert str(info.value)  # message renders


def test_parse_error_mentions_line_and_col():
    with pytest.raises(ParseFailure) as info:
        parse_std("std x = {\n  oops\n}")
    assert "line 2" in str(info.value)


def test_end_of_input_after_a_trailing_comment_is_placed_after_the_comment():
    text = "std x = {  # a comment"
    with pytest.raises(ParseFailure) as info:
        parse_std(text)
    assert str(info.value) == (
        f"line 1, col {len(text) + 1}: expected 'input', found end of input"
    )
    eof = tokenize("a # b")[-1]
    assert (eof.line, eof.col) == (1, 6)


def test_env_parse_rejects_bad_rows():
    with pytest.raises(ParseFailure):
        parse_env("domain DN = {d1}\nBusy(d1) =")


def test_a_feature_written_for_another_machine_fails_at_its_subject():
    # conflict-left is written against duo; its payload is never resolved
    # against callproc, whose scope has no `go`.
    with pytest.raises(ParseFailure) as info:
        parse_feature(corpus_text("conflict-left.feat"), base=base_std())
    assert str(info.value) == (
        "line 3, col 26: feature 'conflict-left' is written against 'duo', not 'callproc'"
    )
    assert parse_feature(corpus_text("conflict-left.feat")).subject == "duo"


LISTS_SRC = """
std lists = {
  domain Hue = {red, green}
  uses {
    F(Int 0..2) ->? Int 0..2
    K() -> Int 0..2
  }
  input put(Int 0..2)
  output o(Int 0..2)
  attributes n :: Int 0..2
  attributes xs :: [Int 0..2]^2
  attributes h :: Hue
  states s0 init {xs == []}
  t0: s0 -> s0 : put(v) {n' == n && xs' == xs && h' == h}
}
"""

# The parameter v and the deferred names n, xs, red and K sit under every
# compound expression kind.
LISTS_PATCH = """
feature f on lists {
  add-states { p, q } with {
    z1: p -> q : {!(v == n) && -(v + n) < K && defined(F(v + n))
                  && head(cons(v, xs)) == n && len(tail([v, n])) == 1 && h == red}
      put(v) / [o(F(v + n))] {n' == -(v - n) && xs' == cons(v, tail([n, v])) && h' == red}
  }
}
"""


def test_feature_payload_names_resolve_at_application():
    # Unknown states inside a patch parse fine (patches are standalone
    # scripts) but are rejected the moment the patch is applied.
    patch = parse_feature(
        "feature f on tel { add-transitions { z1: onhook -> nowhere : LT } }",
        base=corpus_std("tel.std"),
    )
    with pytest.raises(RuleError, match="nowhere"):
        apply_feature(corpus_std("tel.std"), patch, EMPTY_ENV)
    # A patch parsed without its subject resolves, when applied, to what the
    # same patch parsed against its subject says.
    lists = parse_std(LISTS_SRC)
    deferred = parse_feature(LISTS_PATCH)
    resolved = parse_feature(LISTS_PATCH, base=lists)
    assert deferred != resolved
    assert apply_feature(lists, deferred, EMPTY_ENV) == apply_feature(lists, resolved, EMPTY_ENV)


def test_redirect_postcondition_may_name_a_transition_the_patch_adds():
    # t1 exists only once the add-transitions before the split has run, so
    # its parameter v is known at application, not against the subject.
    m = parse_std(
        "std m = { input go(Int 0..2) | stop  output o  attributes n :: Int 0..2"
        "  states a init, b  t0: a -> a : stop }"
    )
    text = (
        "feature f on m { add-transitions { t1: a -> b : go(v) {n' == v} }"
        "  split b into { b1, b2 } { redirect t1 -> b1 with {n' == v} } }"
    )
    with_base = apply_feature(m, parse_feature(text, base=m), EMPTY_ENV)
    assert with_base == apply_feature(m, parse_feature(text), EMPTY_ENV)
    assert with_base.transition("t1").post == BinOp("eq", PrimedRef("n"), ParamRef("v"))


# ---------------------------------------------------------------------------
# What a bare identifier means, in every position it can take
# ---------------------------------------------------------------------------


def _subject(param: str, init: str = "true", guard: str = "true", out: str = "true",
             post: str = "true") -> str:
    return (
        "std m = {\n"
        "  domain Hue = {red, green}\n"
        "  uses { K() -> Int 0..2 }\n"
        "  input go(Int 0..2) | stop\n"
        "  output o(Bool)\n"
        "  attributes n :: Int 0..2\n"
        f"  states a init {{{init}}}, b\n"
        f"  t: a -> b : {{{guard}}} go({param}) / [o({out})] {{{post}}}\n"
        "}\n"
    )


PATCH_BASE = (
    "std m = { domain Hue = {red, green}  uses { K() -> Int 0..2 }"
    "  input go(Int 0..2) | stop  output o(Bool)  attributes n :: Int 0..2"
    "  states a init, b  t0: a -> a : stop }"
)


def _payload(param: str, cond: str) -> str:
    return f"feature f on m {{\n  add-transitions {{ t1: a -> b : {{{cond}}} go({param}) }}\n}}\n"


def _redirect(param: str, cond: str) -> str:
    return (
        "feature f on m {\n"
        f"  add-transitions {{ t1: a -> b : go({param}) }}\n"
        f"  split b into {{ b1, b2 }} {{ redirect t1 -> b1 with {{{cond}}} }}\n"
        "}\n"
    )


def _std_position(where: str):
    def text(param: str, cond: str) -> str:
        return _subject(param, **{where: cond})

    def read(text: str):
        std = parse_std(text)
        t = std.transition("t")
        return {
            "init": dict(std.initial)["a"],
            "guard": t.guard,
            "out": t.outputs[0][1][0],
            "post": t.post,
        }[where]

    return text, read


def _patch_position(text, with_base: bool, part: str):
    def read(text: str):
        base = parse_std(PATCH_BASE)
        patch = parse_feature(text, base=base if with_base else None)
        return getattr(apply_feature(base, patch, parse_env("K = 1")).transition("t1"), part)

    return text, read


POSITIONS = {
    "init predicate": _std_position("init"),
    "guard": _std_position("guard"),
    "output argument": _std_position("out"),
    "postcondition": _std_position("post"),
    "payload with base": _patch_position(_payload, True, "guard"),
    "payload without base": _patch_position(_payload, False, "guard"),
    "redirect postcondition with base": _patch_position(_redirect, True, "post"),
    "redirect postcondition without base": _patch_position(_redirect, False, "post"),
}

K_SYM = SymApp("K", ())
SHADOWS = "parameter 'n' shadows an attribute"
UNKNOWN = "unknown identifier 'zz'"
# kind: (identifier, trigger parameter, meaning in a transition, meaning in
# an initial predicate, which has no parameters)
KINDS = {
    "parameter over attribute": ("n", "n", SHADOWS, SHADOWS),
    "parameter over symbol": ("K", "K", ParamRef("K"), K_SYM),
    "attribute": ("n", "v", AttrRef("n"), AttrRef("n")),
    "enum member": ("red", "v", EnumLit("red", "Hue"), EnumLit("red", "Hue")),
    "nullary symbol": ("K", "v", K_SYM, K_SYM),
    "call of a symbol that is also a parameter": ("K()", "K", K_SYM, K_SYM),
    "unknown": ("zz", "v", UNKNOWN, UNKNOWN),
}


def _error(position: str, problem: str, text: str):
    """The exception type, message and span (None for a RuleError) that
    `problem` gets in `position`."""
    if problem == SHADOWS:
        if "base" not in position:
            return ParseFailure, f"line 1, col 1: transition t: {SHADOWS}", (1, 1)
        return RuleError, (
            "rule add-transitions: feature 'f', application #1 (add-transitions): "
            f"the transformed machine is invalid: transition t1: {SHADOWS}"
        ), None
    if position.startswith("redirect"):
        return RuleError, (
            "rule split-state: feature 'f', application #2 (split-state): "
            f"{UNKNOWN} [witness: redirect of 't1']"
        ), None
    if position == "payload without base":
        return RuleError, (
            "rule add-transitions: feature 'f', application #1 (add-transitions): "
            f"{UNKNOWN} [witness: transition t1]"
        ), None
    # Wherever parsing has the machine to resolve against, at the first
    # occurrence of the identifier.
    line = next(i for i, row in enumerate(text.splitlines(), 1) if "zz" in row)
    col = text.splitlines()[line - 1].index("zz") + 1
    return ParseFailure, f"line {line}, col {col}: {UNKNOWN}", (line, col)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("position", POSITIONS)
def test_identifier_precedence(position, kind):
    ident, param, in_transition, in_init = KINDS[kind]
    want = in_init if position == "init predicate" else in_transition
    make, read = POSITIONS[position]
    text = make(param, f"{ident} == {ident}")
    if not isinstance(want, str):
        assert read(text) == BinOp("eq", want, want)
        return
    exc_type, message, span = _error(position, want, text)
    with pytest.raises(exc_type) as info:
        read(text)
    assert str(info.value) == message
    if span is not None:
        (err,) = info.value.errors
        assert (err.span.line, err.span.col) == span


# ---------------------------------------------------------------------------
# One text, one patch: a payload means the same with or without its subject
# ---------------------------------------------------------------------------

# An output alphabet of bare values beside the constructor `v`, which is also
# the name of the trigger parameter in the payloads below.
ONE_PATCH_BASE = """
std m = {
  input go(Int 0..3)
  output Int 0..3 | v
  attributes n :: Int 0..3
  states s init {n == 0}
}
"""


@pytest.mark.parametrize(
    "transition, output",
    [
        # The attribute's value, not a constructor `n`.
        ("t1: s -> s : go(v) / [n]", (None, (AttrRef("n"),))),
        # A compound output term, not a constructor followed by a stray '+'.
        ("t1: s -> s : {n < 3} go(v) / [n + 1]", (None, (BinOp("add", AttrRef("n"), Lit(1)),))),
        # The constructor `v` wins over the parameter `v`.
        ("t1: s -> s : go(v) / [v]", ("v", ())),
    ],
    ids=["attribute", "compound", "constructor-over-parameter"],
)
def test_a_payload_means_one_thing_with_or_without_its_subject(transition, output):
    m = parse_std(ONE_PATCH_BASE)
    text = f"feature f on m {{ add-transitions {{ {transition} }} }}"
    with_base = apply_feature(m, parse_feature(text, base=m), EMPTY_ENV)
    assert with_base.transition("t1").outputs == (output,)
    assert apply_feature(m, parse_feature(text), EMPTY_ENV) == with_base


def test_a_syntax_error_in_a_transition_comes_before_its_name_errors():
    text = ONE_PATCH_BASE.replace("}\n}", "}\n  t1: s -> s : {zz == 1} go(v) / [n] {n' == }\n}")
    with pytest.raises(ParseFailure) as info:
        parse_std(text)
    assert str(info.value) == "line 7, col 45: expected an expression, found '}'"


def _resolved(patch: FeaturePatch, base) -> FeaturePatch:
    """`patch` with each payload transition resolved against `base`."""
    scope = name_scope(base)

    def resolve(app):
        if not isinstance(app, (AddStates, AddTransitions)):
            return app
        return replace(app, transitions=tuple(resolve_transition(t, scope) for t in app.transitions))

    return replace(patch, applications=tuple(map(resolve, patch.applications)))


def _applied(base, patch, env):
    try:
        return apply_feature(base, patch, env)
    except RuleError as exc:
        return str(exc)


def _assert_one_patch(text: str, base, env) -> None:
    with_base, bare = parse_feature(text, base=base), parse_feature(text)
    assert with_base == _resolved(bare, base)
    assert _applied(base, with_base, env) == _applied(base, bare, env)


@pytest.mark.parametrize("fname", FEAT_FILES)
def test_corpus_patches_mean_one_thing(fname):
    duo = fname.startswith("conflict-")
    base, env = (corpus_std("duo.std"), EMPTY_ENV) if duo else (base_std(), default_env())
    _assert_one_patch(corpus_text(fname), base, env)


def test_generated_proposals_mean_one_thing():
    # Each proposal of the first 200 generated machines, as a one-rule patch.
    rng = random.Random(7)
    for i in range(200):
        std = gen_std(rng, name=f"gen{i}")
        for _ in range(3):
            app = gen_application(rng, std)
            _assert_one_patch(print_feature(FeaturePatch("p", std.name, (app,))), std, EMPTY_ENV)


# ---------------------------------------------------------------------------
# Message-sequence parsing (simulate's --input argument)
# ---------------------------------------------------------------------------


def test_parse_messages_forms():
    msgs = parse_messages("LT, DL(3), Push([1, 2]), flag(true), pick(d1)")
    assert msgs == (
        Msg("LT"),
        Msg("DL", (3,)),
        Msg("Push", ((1, 2),)),
        Msg("flag", (True,)),
        Msg("pick", ("d1",)),
    )


def test_parse_messages_bare_value():
    assert parse_messages("3") == (Msg(None, (3,)),)


def test_parse_messages_empty_is_empty_sequence():
    assert parse_messages("") == ()


def test_parse_messages_rejects_garbage():
    with pytest.raises(ParseFailure):
        parse_messages("DL(")


@pytest.mark.parametrize("text", ["go(\u00b2)", "DL(\u0663)"])
def test_parse_messages_reads_only_ascii_digits(text):
    # A superscript two and an Arabic-Indic three are digits to Python, but
    # not numbers here: they are rejected where they stand.
    with pytest.raises(ParseFailure) as info:
        parse_messages(text)
    assert str(info.value) == f"line 1, col 4: unexpected character {text[3]!r}"


def test_tokenize_takes_the_longest_punctuation():
    assert [t.text for t in tokenize("a->?b->c::d..e==f|")] == [
        "a", "->?", "b", "->", "c", "::", "d", "..", "e", "==", "f", "|", "",
    ]
    assert [t.text for t in tokenize("->")] == ["->", ""]


# ---------------------------------------------------------------------------
# Printing what parses back
# ---------------------------------------------------------------------------

ROUND_TRIP_SRC = """
std m = {
  uses { n() -> Int 0..3 }
  input go(Int 0..3)
  output o
  attributes x, n :: Int 0..3
  states a init
  t1: a -> a : {(x == 1) == true} go(v)
  t2: a -> a : {n() == 1} go(v)
}
"""


def test_comparison_operands_are_bracketed():
    # Comparisons do not chain, so a comparison that is an operand of another
    # keeps its brackets on either side.
    m = parse_std(ROUND_TRIP_SRC)
    assert "{(x == 1) == true}" in print_std(m)
    assert parse_std(print_std(m)) == m


def test_nullary_symbol_prints_as_a_call():
    # Printed bare, `n` would read back as the attribute `n`.
    m = parse_std(ROUND_TRIP_SRC)
    text = print_std(m)
    assert "{n() == 1}" in text
    assert parse_std(text) == m
    assert m.transition("t2").guard == BinOp("eq", SymApp("n", ()), Lit(1))


def test_std_json_validates_against_schema():
    # An enum member, a list and a nullary call, besides the corpus.
    m = parse_std(
        "std m = { domain Hue = {red, green}  uses { K() -> Int 0..2 }  input go"
        "  output o  attributes h :: Hue  attributes xs :: [Int 0..2]^2"
        "  states a init {h == red && xs == [K()]}  t: a -> a : go }"
    )
    schema = json.loads((resources.files("stdrefine") / "schemas" / "std.schema.json").read_text())
    for std in (m, *(parse_std(corpus_text(f)) for f in STD_FILES)):
        jsonschema.validate(std_to_json(std), schema)



# A std/1 document gets the checks a parsed machine gets, so a machine that
# `std_from_json` accepts prints as text that `parse_std` reads back.
CHECKED_SRC = (
    "std m = { domain C = {red, green}  input go  output o"
    "  attributes x :: Int 0..1  attributes c :: C"
    "  states a init  t: a -> a : {x == 0 && c == red} go }"
)


def _checked_document() -> tuple[dict, dict]:
    """The std/1 document of `CHECKED_SRC`, and the `x == 0 && c == red`
    node of its guard."""
    doc = std_to_json(parse_std(CHECKED_SRC))
    return doc, doc["transitions"][0]["guard"]


@pytest.mark.parametrize(
    "value, shown",
    [(-1, "-1"), ("hello", "'hello'"), (1.5, "1.5"), ([1, 2], r"\(1, 2\)"), (None, "None")],
    ids=["negative", "text", "fraction", "list", "null"],
)
def test_std_json_rejects_a_literal_that_is_not_a_boolean_or_natural_number(value, shown):
    doc, guard = _checked_document()
    guard["left"]["right"]["value"] = value
    with pytest.raises(ValueError, match=f"guard: literal {shown} is not true, false or a natural"):
        std_from_json(doc)
    schema = json.loads((resources.files("stdrefine") / "schemas" / "std.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_std_json_rejects_a_value_outside_its_domain():
    doc, guard = _checked_document()
    guard["right"]["right"]["value"] = "blue"
    with pytest.raises(ValueError, match="guard: 'blue' is not a member of domain C"):
        std_from_json(doc)


def test_std_json_rejects_an_undeclared_domain():
    doc, _ = _checked_document()
    nope = {"node": "enum", "value": "x", "domain": "NOPE"}
    doc["transitions"][0]["guard"] = {"node": "bin", "op": "eq", "left": nope, "right": nope}
    with pytest.raises(ValueError, match="guard: unknown domain 'NOPE'"):
        std_from_json(doc)
