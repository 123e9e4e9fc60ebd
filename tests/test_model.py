"""Core data model: sorts, evaluation, desugaring, validation, enabledness."""

from __future__ import annotations

import itertools
import pickle
import random
import typing

import pytest

from fixtures import conflict_patches
from machine_gen import gen_std
from oracles import (
    all_configs,
    make_config,
    oracle_enabled,
    oracle_nodes,
    oracle_reachable,
    oracle_reads,
    oracle_rebuild,
)

from stdrefine import (
    Bounds,
    EnvSymDecl,
    Entry,
    Msg,
    MsgCtor,
    ResourceLimit,
    Signature,
    Std,
    Transition,
    Undefined,
    build_step,
    corpus_text,
    default_env,
    desugar,
    feature_patch,
    make_environment,
    parse_std,
    traces,
    validate_std,
)
from stdrefine.interp import Machine, machine_traces, reachable_configurations
from stdrefine.model import (
    EMPTY_ENV,
    TRUE,
    AttrRef,
    BinOp,
    BoolSort,
    Cons,
    Defined,
    ElseGuard,
    EnumLit,
    EnumSort,
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
    Record,
    SortContext,
    SymApp,
    Tail,
    bind_environment,
    conj,
    enumerate_sort,
    eval_expr,
    format_value,
    guard_holds,
    message_instances,
    msg_key,
    replace,
)
from stdrefine import interp, model
from stdrefine.textlang import std_from_json, std_to_json

DOMS = {"Hue": ("red", "green")}


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def _record_classes(base=Record) -> list[type]:
    found = []
    for cls in base.__subclasses__():
        found += [cls, *_record_classes(cls)]
    return found


#: Every record class of the package (importing `stdrefine` imports them all).
RECORDS = sorted(_record_classes(), key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def _sample(cls: type) -> Record:
    """A record of `cls` whose fields are the integers 0, 1, ..."""
    return cls(*range(len(cls._fields)))


def test_every_value_class_of_the_package_is_a_record():
    modules = {cls.__module__ for cls in RECORDS}
    assert modules == {f"stdrefine.{m}" for m in ("model", "interp", "refine", "textlang", "features")}
    assert len(RECORDS) == 48


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_equals_a_record_of_its_class_with_equal_fields(cls):
    rec = _sample(cls)
    twin = _sample(cls)
    assert rec == twin and not rec != twin and hash(rec) == hash(twin)
    assert rec != tuple(range(len(cls._fields))) and bool(rec)
    for name in cls._fields:
        assert rec != replace(rec, **{name: 100})
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_records_of_different_classes_with_equal_fields_are_unequal():
    pairs = [
        (Not(AttrRef("x")), Neg(AttrRef("x"))),
        (AttrRef("x"), PrimedRef("x")),
        (AttrRef("x"), Name("x")),
        (PrimedRef("x"), Name("x")),
    ]
    pairs += [
        (_sample(c1), _sample(c2))
        for c1, c2 in itertools.combinations(RECORDS, 2)
        if len(c1._fields) == len(c2._fields)
    ]
    for a, b in pairs:
        assert a != b and b != a, (a, b)
        assert not a == b and not b == a, (a, b)
        assert len({a, b}) == 2, (a, b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_refuses_attribute_assignment(cls):
    rec = _sample(cls)
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == _sample(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_replace_changes_only_the_named_fields(cls):
    rec = _sample(cls)
    for i, name in enumerate(cls._fields):
        changed = replace(rec, **{name: 100 + i})
        assert type(changed) is cls
        assert [getattr(changed, n) for n in cls._fields] == [
            100 + i if n == name else j for j, n in enumerate(cls._fields)
        ]
    assert replace(rec) == rec
    with pytest.raises(TypeError, match="not_a_field"):
        replace(rec, not_a_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_repr_has_the_dataclass_format(cls):
    fields = ", ".join(f"{name}={i}" for i, name in enumerate(cls._fields))
    assert repr(_sample(cls)) == f"{cls.__qualname__}({fields})"


def test_record_reprs_read_as_before():
    assert repr(Msg("go")) == "Msg(ctor='go', args=())"
    assert repr(Not(AttrRef("x"))) == "Not(arg=AttrRef(name='x'))"
    assert repr(ElseGuard()) == "ElseGuard()"
    assert repr(Bounds()) == "Bounds(max_input_len=4, eps_budget=4, output_cap=16, state_cap=None)"
    assert repr(Transition("t", "s", "s", None, (), TRUE, (), TRUE)) == (
        "Transition(label='t', source='s', target='s', trigger=None, params=(), "
        "guard=Lit(value=True), outputs=(), post=Lit(value=True), priority=None)"
    )


def test_bounds_reject_negative_values():
    for bad in ((-1,), (4, -1), (4, 4, -1), (4, 4, 16, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            Bounds(*bad)
    with pytest.raises(ValueError, match="non-negative"):
        replace(Bounds(), eps_budget=-1)


def test_keyword_construction_fills_defaults():
    assert Entry(chaos=True) == Entry(True, frozenset(), frozenset(), False)
    assert Msg("go") == Msg("go", ()) == Msg(ctor="go") == Msg(args=(), ctor="go")
    assert Bounds(eps_budget=1) == Bounds(4, 1, 16, None)
    assert SortContext({}, {}, {}).params == {}
    with pytest.raises(TypeError, match="missing field 'ctor'"):
        Msg()
    with pytest.raises(TypeError, match="unexpected field"):
        Msg("go", colour="red")
    with pytest.raises(TypeError, match="unexpected field"):
        Msg("go", ctor="stop")
    with pytest.raises(TypeError, match="takes 2 fields"):
        Msg("go", (), 3)


# ---------------------------------------------------------------------------
# Sorts and values
# ---------------------------------------------------------------------------


def test_enumerate_bool_sort():
    assert enumerate_sort(BoolSort(), {}) == [False, True]


def test_enumerate_int_sort_is_inclusive():
    assert enumerate_sort(IntSort(1, 3), {}) == [1, 2, 3]


def test_enumerate_enum_sort_follows_domain_order():
    assert enumerate_sort(EnumSort("Hue"), DOMS) == ["red", "green"]


def test_enumerate_enum_sort_unknown_domain():
    with pytest.raises(KeyError):
        enumerate_sort(EnumSort("Nope"), DOMS)


def test_enumerate_list_sort_counts_all_lengths():
    values = enumerate_sort(ListSort(IntSort(0, 1), 2), {})
    assert len(values) == 1 + 2 + 4  # lengths 0, 1, 2
    assert () in values and (0, 1) in values
    assert all(isinstance(v, tuple) and len(v) <= 2 for v in values)


def test_machine_valuations_are_cartesian_in_declaration_order():
    # b is declared first, so it varies slowest; each valuation lists the
    # attributes by name, as a configuration does.
    std = _tiny(attributes=(("b", IntSort(0, 2)), ("a", BoolSort())))
    assert Machine(std, EMPTY_ENV).valuations == tuple(
        (("a", a), ("b", b)) for b in range(3) for a in (False, True)
    )


def test_format_value_booleans_and_lists():
    assert format_value(True) == "true"
    assert format_value((1, 2)) == "[1, 2]"
    assert format_value("red") == "red"


def test_message_instances_expand_params_deterministically():
    ctors = (MsgCtor("DL", (IntSort(1, 3),)), MsgCtor("LT"))
    msgs = message_instances(ctors, {})
    assert msgs == sorted(msgs, key=msg_key)
    assert Msg("DL", (2,)) in msgs
    assert Msg("LT") in msgs
    assert len(msgs) == 4


def test_msg_str_forms():
    assert str(Msg("DL", (2,))) == "DL(2)"
    assert str(Msg("LT")) == "LT"
    assert str(Msg(None, (3,))) == "3"  # bare value message


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def _ev(expr, valuation=None, tables=None, primed=None, params=None):
    return eval_expr(expr, valuation or {}, tables or {}, primed=primed, params=params)


def test_eval_arithmetic_and_comparisons():
    assert _ev(BinOp("add", Lit(1), Lit(2))) == 3
    assert _ev(BinOp("sub", Lit(1), Lit(2))) == -1
    assert _ev(BinOp("mul", Lit(3), Lit(2))) == 6
    assert _ev(Neg(Lit(2))) == -2
    assert _ev(BinOp("lt", Lit(1), Lit(2))) is True
    assert _ev(BinOp("ge", Lit(1), Lit(2))) is False
    assert _ev(BinOp("ne", Lit(1), Lit(2))) is True


def test_eval_boolean_connectives():
    assert _ev(BinOp("and", Lit(True), Lit(False))) is False
    assert _ev(BinOp("or", Lit(True), Lit(False))) is True
    assert _ev(Not(Lit(True))) is False


def test_eval_enum_equality():
    e = BinOp("eq", EnumLit("red", "Hue"), EnumLit("red", "Hue"))
    assert _ev(e) is True


def test_eval_attribute_param_and_primed_refs():
    expr = BinOp("eq", PrimedRef("x"), BinOp("add", AttrRef("x"), ParamRef("d")))
    assert _ev(expr, valuation={"x": 1}, primed={"x": 3}, params={"d": 2}) is True
    assert _ev(expr, valuation={"x": 1}, primed={"x": 4}, params={"d": 2}) is False


def test_eval_list_operations():
    lst = ListLit((Lit(1), Lit(2)))
    assert _ev(Head(lst)) == 1
    assert _ev(Tail(lst)) == (2,)
    assert _ev(Len(lst)) == 2
    assert _ev(Cons(Lit(0), lst)) == (0, 1, 2)


def test_eval_head_and_tail_of_empty_are_undefined():
    empty = ListLit(())
    assert _ev(Head(empty)) is Undefined
    assert _ev(Tail(empty)) is Undefined
    assert _ev(Defined(Head(empty))) is False


def test_eval_partial_table_lookup():
    tables = {"Del": {("d1",): "d2"}}
    hit = SymApp("Del", (EnumLit("d1", "DN"),))
    miss = SymApp("Del", (EnumLit("d3", "DN"),))
    assert _ev(hit, tables=tables) == "d2"
    assert _ev(miss, tables=tables) is Undefined
    assert _ev(Defined(hit), tables=tables) is True
    assert _ev(Defined(miss), tables=tables) is False


def test_undefined_propagates_through_operators():
    tables = {"Del": {}}
    miss = SymApp("Del", (EnumLit("d1", "DN"),))
    assert _ev(BinOp("eq", miss, EnumLit("d1", "DN")), tables=tables) is Undefined
    assert _ev(Not(BinOp("eq", miss, EnumLit("d1", "DN")), ), tables=tables) is Undefined
    assert _ev(BinOp("and", Lit(True), BinOp("eq", miss, miss)), tables=tables) is Undefined


# ---------------------------------------------------------------------------
# Sub-expressions: `reads` and `map_children` against plain recursion
# ---------------------------------------------------------------------------


def _transition_expressions(transitions):
    for t in transitions:
        yield from (t.guard, *(a for _, args in t.outputs for a in args), t.post)


def _patch_expressions(patch):
    for app in patch.applications:
        yield from _transition_expressions(getattr(app, "transitions", ()))
        yield from (g for _, _, g in getattr(app, "redirects", ()) if g is not None)


def _shipped_and_generated_expressions():
    """Every top-level expression of the 4 shipped machines, chain steps
    0-5, the 6 shipped feature payloads and 600 generated machines."""
    machines = [parse_std(corpus_text(f"{n}.std")) for n in ("callproc", "tel", "stack", "duo")]
    machines += [build_step(i) for i in range(6)]
    rng = random.Random(7)
    machines += [gen_std(rng, name=f"gen{i}") for i in range(600)]
    patches = [feature_patch(n) for n in ("abandon", "split-connect", "forwarding", "blocking")]
    patches += conflict_patches()
    exprs = [e for std in machines for e in (*(p for _, p in std.initial),
                                             *_transition_expressions(std.transitions))]
    exprs += [e for patch in patches for e in _patch_expressions(patch)]
    assert {type(e) for e in exprs} <= set(typing.get_args(model.Expr))
    return exprs


def _renamed_leaf(e):
    """Names of references and identifiers suffixed; other leaves as they are."""
    if type(e) in (AttrRef, ParamRef, PrimedRef, Name):
        return type(e)(e.name + "~")
    return e


def test_reads_and_map_children_agree_with_plain_recursion():
    exprs = _shipped_and_generated_expressions()
    nodes = [n for e in exprs for n in oracle_nodes(e)]
    kinds = {type(n) for n in nodes}
    assert kinds >= {BinOp, Not, SymApp, ListLit, Cons, AttrRef, ParamRef, PrimedRef}

    def renamed(e):
        return _renamed_leaf(model.map_children(e, renamed))

    assert model.reads(*exprs) == oracle_reads(*exprs)
    for n in nodes:
        assert model.reads(n) == oracle_reads(n), n
        assert model.map_children(n, lambda c: c) is n, n
        assert renamed(n) == oracle_rebuild(n, _renamed_leaf), n


def test_map_children_applies_f_to_each_direct_child_in_source_order():
    seen = []
    expr = BinOp("and", SymApp("f", (Lit(1), Lit(2))), Cons(Lit(3), ListLit((Lit(4),))))

    def f(c):
        seen.append(c)
        return c

    assert model.map_children(expr, f) is expr
    assert model.map_children(expr.left, f) is expr.left
    assert model.map_children(expr.right, f) is expr.right
    assert seen == [expr.left, expr.right, Lit(1), Lit(2), Lit(3), ListLit((Lit(4),))]
    doubled = model.map_children(expr.left, lambda c: Lit(c.value * 2))
    assert doubled == SymApp("f", (Lit(2), Lit(4)))


def test_eval_rejects_an_unknown_operator_only_on_defined_operands():
    with pytest.raises(ValueError, match="unknown operator 'xor'"):
        _ev(BinOp("xor", Lit(True), Lit(False)))
    miss = SymApp("F", (Lit(1),))
    assert _ev(BinOp("xor", miss, Lit(False)), tables={"F": {}}) is Undefined


# Truth values as expressions: Undefined comes from a partial table lookup.
F_TABLES = {"F": {(0,): True}}
TRUTH = {True: Lit(True), False: Lit(False), Undefined: SymApp("F", (Lit(1),))}


def _strict_and(p, q):
    return Undefined if Undefined in (p, q) else p and q


def _strict_or(p, q):
    return Undefined if Undefined in (p, q) else p or q


def _strict_not(p):
    return Undefined if p is Undefined else not p


def _and(a, b):
    return BinOp("and", a, b)


# (expression over the atoms P and Q, its strict value given P, Q and whether
# x' == 1); the primed conjunct is evaluated with x' = 0 and with x' = 1.
STRICT_FORMS = [
    ("P && Q", lambda P, Q: _and(P, Q), lambda p, q, x1: _strict_and(p, q)),
    ("Q && P", lambda P, Q: _and(Q, P), lambda p, q, x1: _strict_and(q, p)),
    ("(P && Q) && P", lambda P, Q: _and(_and(P, Q), P),
     lambda p, q, x1: _strict_and(_strict_and(p, q), p)),
    ("P || Q", lambda P, Q: BinOp("or", P, Q), lambda p, q, x1: _strict_or(p, q)),
    ("!(P && Q)", lambda P, Q: Not(_and(P, Q)), lambda p, q, x1: _strict_not(_strict_and(p, q))),
    ("P && x' == 1 && Q", lambda P, Q: conj(P, BinOp("eq", PrimedRef("x"), Lit(1)), Q),
     lambda p, q, x1: _strict_and(_strict_and(p, x1), q)),
]


@pytest.mark.parametrize("form, build, spec", STRICT_FORMS, ids=[f[0] for f in STRICT_FORMS])
def test_holding_agrees_with_strict_evaluation(form, build, spec):
    for p, q, x in itertools.product(TRUTH, TRUTH, (0, 1)):
        expr = build(TRUTH[p], TRUTH[q])
        value = eval_expr(expr, {}, F_TABLES, primed={"x": x})
        assert value is spec(p, q, x == 1), (form, p, q, x)
        assert guard_holds(expr, {}, F_TABLES, primed={"x": x}) is (value is True), (form, p, q, x)


def test_a_guard_stops_at_its_first_conjunct_that_is_not_true(monkeypatch):
    calls = []
    evaluate = model.eval_expr

    def counting(expr, *args, **kwargs):
        calls.append(expr)
        return evaluate(expr, *args, **kwargs)

    monkeypatch.setattr(model, "eval_expr", counting)
    rest = Not(BinOp("eq", SymApp("F", (AttrRef("x"),)), BinOp("add", AttrRef("x"), Lit(1))))
    assert not guard_holds(conj(BinOp("eq", AttrRef("x"), Lit(1)), rest), {"x": 0}, F_TABLES)
    assert calls == [BinOp("eq", AttrRef("x"), Lit(1)), AttrRef("x"), Lit(1)]


# At x=0, t1's guard has an Undefined lookup after a False conjunct, and t2's
# has the same conjunction under `!`: strictly, !(false && Undefined) is
# Undefined, so t2 is not enabled there.
STRICT_SRC = """
std strict = {
  uses {
    F(Int 0..1) ->? Bool
  }
  input go
  output a | b
  attributes x :: Int 0..1
  states s init
  t1: s -> s : {x == 1 && F(x)} go / [a] {x' == x}
  t2: s -> s : {!(x == 1 && F(x))} go / [b] {x' == x}
}
"""


def test_enabled_is_strict_under_not():
    std = parse_std(STRICT_SRC)
    env = make_environment(tables={"F": {(1,): True}})
    machine = Machine(std, env)
    labels = {}
    for x in (0, 1):
        cfg = make_config("s", {"x": x})
        got = machine._find_enabled(cfg, Msg("go"))
        assert {(e.transition.label, e.reactions) for e in got} == {
            (label, reactions) for label, _, reactions in oracle_enabled(std, cfg, Msg("go"), env)
        }
        labels[x] = [e.transition.label for e in got]
    assert labels == {0: [], 1: ["t1"]}


def test_conj_flattens_trivial_parts():
    assert conj() == TRUE
    assert conj(TRUE, Lit(False)) == Lit(False)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _tiny(transitions=(), **overrides) -> Std:
    base = dict(
        name="tiny",
        domains=(),
        uses=(),
        signature=Signature((MsgCtor("go"),), (MsgCtor("out"),)),
        attributes=(("x", IntSort(0, 1)),),
        states=("a", "b"),
        initial=(("a", TRUE),),
        transitions=tuple(transitions),
    )
    base.update(overrides)
    return Std(**base)


def _t(**kw) -> Transition:
    base = dict(
        label="t1",
        source="a",
        target="b",
        trigger="go",
        params=(),
        guard=TRUE,
        outputs=(),
        post=TRUE,
    )
    base.update(kw)
    return Transition(**base)


def test_validate_accepts_minimal_machine():
    assert validate_std(_tiny((_t(),))) == []


def test_validate_rejects_primed_reference_in_guard():
    bad = _tiny((_t(guard=BinOp("eq", PrimedRef("x"), Lit(0))),))
    assert any("primed" in p for p in validate_std(bad))


def test_validate_rejects_unknown_states_and_ctors():
    problems = validate_std(
        _tiny((_t(source="zz"), _t(label="t2", trigger="nope")))
    )
    assert any("unknown source state" in p for p in problems)
    assert any("unknown input constructor" in p for p in problems)


def test_validate_rejects_duplicate_labels_and_states():
    problems = validate_std(
        _tiny((_t(), _t(target="a")), states=("a", "b", "a"))
    )
    assert any("duplicate label" in p for p in problems)
    assert any("duplicate control state" in p for p in problems)


def test_validate_rejects_params_on_internal_trigger():
    bad = _tiny((_t(trigger=None, params=("p",)),))
    assert any("internal trigger binds no parameters" in p for p in validate_std(bad))


def test_validate_rejects_ill_sorted_guard():
    bad = _tiny((_t(guard=Lit(3)),))
    assert any("guard must be Bool" in p for p in validate_std(bad))


def test_validate_rejects_empty_signature_sides():
    bad = _tiny((), signature=Signature((), ()))
    problems = validate_std(bad)
    assert any("input message set is empty" in p for p in problems)
    assert any("output message set is empty" in p for p in problems)


def test_validate_requires_initial_state():
    assert any("no initial control state" in p for p in validate_std(_tiny((), initial=())))


@pytest.mark.parametrize(
    "overrides, expected",
    [
        pytest.param({"domains": (("D", ("p",)), ("D", ("q",)))},
                     ["domain D: declared twice"], id="domain-twice"),
        pytest.param({"initial": (("a", BinOp("eq", AttrRef("x"), Lit(0))),
                                  ("a", BinOp("eq", AttrRef("x"), Lit(1))))},
                     ["initial a: state marked initial twice"], id="initial-twice"),
    ],
)
def test_validate_rejects_what_text_cannot_say(overrides, expected):
    # Each would lose a declaration on the way through std/1 or text: the
    # domain map keeps the last declaration, and the printer the last marking.
    std = _tiny((), **overrides)
    assert validate_std(std) == expected
    with pytest.raises(ValueError, match=expected[0]):
        std_from_json(std_to_json(std))


def test_validation_is_deterministic():
    bad = _tiny((_t(source="zz"), _t(label="t2", trigger="nope")))
    assert validate_std(bad) == validate_std(bad)


# Exact diagnostics: one expression at a time, in one of the four places an
# expression stands, in a machine that declares one attribute of each sort,
# a trigger parameter `p`, a partial environment function `f` and an output
# constructor `val` with one Int argument.

_X, _B, _C, _L, _P = AttrRef("x"), AttrRef("b"), AttrRef("c"), AttrRef("l"), ParamRef("p")
_INT01 = IntSort(0, 1)


def _typed(transitions=None, initial=TRUE) -> Std:
    return _tiny(
        (_t(trigger="put", params=("p",)),) if transitions is None else transitions,
        domains=(("Hue", ("red", "green")),),
        uses=(("f", EnvSymDecl((_INT01,), _INT01, False)),),
        signature=Signature(
            (MsgCtor("go"), MsgCtor("put", (_INT01,))),
            (MsgCtor("out"), MsgCtor("val", (_INT01,))),
        ),
        attributes=(
            ("x", _INT01), ("b", BoolSort()), ("c", EnumSort("Hue")), ("l", ListSort(_INT01, 2)),
        ),
        initial=(("a", initial),),
    )


def _guard(e) -> Std:
    return _typed((_t(trigger="put", params=("p",), guard=e),))


def _post(e) -> Std:
    return _typed((_t(trigger="put", params=("p",), post=e),))


def _init(e) -> Std:
    return _typed(initial=e)


def _output(*args, ctor="val") -> Std:
    return _typed((_t(trigger="put", params=("p",), outputs=((ctor, args),)),))


def _eq(a, b):
    return BinOp("eq", a, b)


_T, _I = "transition t1: ", "initial a: "
_G, _O, _Q = "transition t1 guard: ", "transition t1 output 0: ", "transition t1 post: "

# A well-sorted minimal instance of every member of `model.Expr`, in the
# place it may stand.
_MEMBERS = [
    ("Lit", _guard(TRUE), []),
    ("EnumLit", _guard(_eq(_C, EnumLit("red", "Hue"))), []),
    ("AttrRef", _guard(_B), []),
    ("PrimedRef", _post(_eq(PrimedRef("x"), _X)), []),
    ("ParamRef", _output(_P), []),
    ("SymApp", _output(SymApp("f", (_X,))), []),
    ("Defined", _guard(Defined(SymApp("f", (_P,)))), []),
    ("Not", _guard(Not(_B)), []),
    ("Neg", _guard(_eq(Neg(_X), Lit(0))), []),
    ("BinOp", _guard(BinOp("and", _B, BinOp("lt", _X, _P))), []),
    ("ListLit", _post(_eq(PrimedRef("l"), ListLit((_X, Lit(1))))), []),
    ("Cons", _guard(_eq(Cons(_P, ListLit(())), _L)), []),
    ("Head", _output(Head(_L)), []),
    ("Tail", _guard(_eq(Tail(_L), ListLit(()))), []),
    ("Len", _output(Len(_L)), []),
    ("ElseGuard", _guard(ElseGuard()), []),
    ("Name", _guard(model.Name("b")), [_G + "unresolved identifier 'b'"]),
]

# Each diagnostic text `infer_kind` and the expression positions of
# `validate_std` emit, each with the full list it comes in.
_DIAGNOSTICS = [
    ("and-left", _guard(BinOp("and", Lit(1), _B)), [_G + "left operand of 'and' must be Bool"]),
    ("or-right", _guard(BinOp("or", _B, _X)), [_G + "right operand of 'or' must be Bool"]),
    ("eq", _guard(_eq(_X, _B)), [_G + "'==' compares values of the same sort"]),
    ("eq-enum", _guard(_eq(_C, _X)), [_G + "'==' compares values of the same sort"]),
    ("eq-list", _guard(_eq(_L, ListLit((_B,)))), [_G + "'==' compares values of the same sort"]),
    ("eq-int-bounds", _guard(_eq(_X, Lit(7))), []),
    ("eq-empty-lists", _guard(_eq(ListLit(()), ListLit((ListLit(()),)))), []),
    ("ne-empty-nonlist", _guard(BinOp("ne", ListLit(()), _X)),
     [_G + "'==' compares values of the same sort"]),
    ("lt", _guard(BinOp("lt", _B, _X)), [_G + "'lt' compares Int values"]),
    ("ge-both", _guard(BinOp("ge", _B, _C)), [_G + "'ge' compares Int values"] * 2),
    ("add", _guard(_eq(BinOp("add", _B, _X), _X)), [_G + "arithmetic applies to Int"]),
    ("operator", _guard(BinOp("xor", _B, _B)), [_G + "unknown operator 'xor'"]),
    ("attribute", _guard(AttrRef("zz")), [_G + "unknown attribute 'zz'"]),
    ("primed-attribute", _post(PrimedRef("zz")), [_Q + "unknown attribute 'zz'"]),
    ("parameter", _guard(ParamRef("q")), [_G + "unknown parameter 'q'"]),
    ("symbol", _guard(_eq(SymApp("g", (AttrRef("zz"),)), _X)),
     [_G + "unknown environment symbol 'g'", _G + "unknown attribute 'zz'"]),
    ("symbol-arity", _guard(_eq(SymApp("f", ()), _X)), [_G + "f expects 1 argument(s), got 0"]),
    ("symbol-argument", _output(SymApp("f", (_B,))),
     [_O + "argument of f has the wrong sort (expected Int 0..1)"]),
    ("not", _guard(Not(_X)), [_G + "'!' applies to Bool"]),
    ("neg", _guard(Neg(_B)), [_G + "unary '-' applies to Int", _T + "guard must be Bool"]),
    ("list-elements", _post(_eq(PrimedRef("l"), ListLit((_X, _B)))),
     [_Q + "list elements must share one sort"]),
    ("cons-tail", _guard(_eq(Cons(_X, _X), _L)), [_G + "second argument of cons must be a list"]),
    ("cons-head", _output(Len(Cons(_B, _L))), [_O + "cons head must match the list element sort"]),
    ("head", _output(Head(_X)), [_O + "head applies to a list"]),
    ("head-empty", _output(Head(ListLit(()))), []),
    ("tail", _guard(_eq(Tail(_X), _X)), [_G + "tail applies to a list"]),
    # A list misuse leaves no sort behind for the enclosing operator to report.
    ("tail-no-cascade", _guard(_eq(Tail(_X), _L)), [_G + "tail applies to a list"]),
    ("cons-no-cascade", _guard(_eq(Cons(AttrRef("zz"), _X), _L)),
     [_G + "unknown attribute 'zz'", _G + "second argument of cons must be a list"]),
    ("len", _output(Len(_B)), [_O + "len applies to a list"]),
    ("init-bool", _init(_X), [_I + "initialization predicate must be Bool"]),
    ("guard-bool", _guard(Lit(3)), [_T + "guard must be Bool"]),
    ("post-bool", _post(_L), [_T + "postcondition must be Bool"]),
    ("output-sort", _output(_C), [_O + "argument has the wrong sort (expected Int 0..1)"]),
    ("output-arity", _output(ctor="val"), [_O + "val expects 1 argument(s)"]),
    ("output-extra-arguments", _output(_X, PrimedRef("x"), AttrRef("zz")),
     [_O + "val expects 1 argument(s)",
      _O + "primed reference x' is only allowed in postconditions",
      _O + "unknown attribute 'zz'"]),
    ("output-ctor", _output(ctor="zz"), [_O + "no output constructor for zz"]),
    ("else-twice", _typed((_t(guard=ElseGuard()), _t(label="t2", guard=ElseGuard()))),
     ["group (a, go): 2 'else' guards in one group (at most one is allowed)"]),
    # Where `x'` and `else` may not stand: each occurrence is reported once.
    ("primed-guard", _guard(_eq(PrimedRef("x"), Lit(1))),
     [_G + "primed reference x' is only allowed in postconditions"]),
    ("primed-init", _init(_eq(PrimedRef("x"), Lit(1))),
     [_I + "primed reference x' is only allowed in postconditions"]),
    ("primed-output", _output(PrimedRef("x")),
     [_O + "primed reference x' is only allowed in postconditions"]),
    ("primed-twice", _guard(_eq(PrimedRef("x"), BinOp("add", PrimedRef("x"), Lit(1)))),
     [_G + "primed reference x' is only allowed in postconditions"] * 2),
    ("primed-extra-argument", _guard(_eq(SymApp("f", (_X, PrimedRef("x"))), _X)),
     [_G + "f expects 1 argument(s), got 2",
      _G + "primed reference x' is only allowed in postconditions"]),
    ("else-guard", _guard(BinOp("and", _B, ElseGuard())),
     [_G + "'else' may only appear as the entire guard of a transition"]),
    ("else-init", _init(ElseGuard()),
     [_I + "'else' may only appear as the entire guard of a transition"]),
    ("else-output", _output(Neg(ElseGuard())),
     [_O + "'else' may only appear as the entire guard of a transition",
      _O + "unary '-' applies to Int"]),
    ("else-post", _post(ElseGuard()),
     [_Q + "'else' may only appear as the entire guard of a transition"]),
    ("else-post-and-more", _post(BinOp("and", ElseGuard(), _X)),
     [_Q + "'else' may only appear as the entire guard of a transition",
      _Q + "right operand of 'and' must be Bool"]),
    # Literals are true, false or natural numbers; an enumeration literal
    # names a declared domain and one of its members.
    ("literal-negative", _guard(_eq(_X, Lit(-1))),
     [_G + "literal -1 is not true, false or a natural number"]),
    ("literal-text", _output(Lit("hello")),
     [_O + "literal 'hello' is not true, false or a natural number"]),
    ("enum-member", _guard(_eq(_C, EnumLit("blue", "Hue"))),
     [_G + "'blue' is not a member of domain Hue"]),
    ("enum-domain", _guard(_eq(EnumLit("x", "NOPE"), EnumLit("x", "NOPE"))),
     [_G + "unknown domain 'NOPE'"] * 2),
]


@pytest.mark.parametrize(
    "std, expected", [pytest.param(s, e, id=i) for i, s, e in _MEMBERS + _DIAGNOSTICS]
)
def test_validate_reports_exactly(std, expected):
    assert validate_std(std) == expected


@pytest.mark.parametrize(
    "uses, expected",
    [
        pytest.param((("f", EnvSymDecl((IntSort(3, 1),), BoolSort(), True)),),
                     ["environment symbol f: empty integer range 3..1"], id="parameter-range"),
        pytest.param((("f", EnvSymDecl((), ListSort(EnumSort("NOPE"), -1), False)),),
                     ["environment symbol f: negative list bound",
                      "environment symbol f: unknown domain 'NOPE'"], id="result-sort"),
        pytest.param((("f", EnvSymDecl((), BoolSort(), True)),) * 2,
                     ["environment symbol f: declared twice"], id="declared-twice"),
    ],
)
def test_validate_checks_uses_declarations(uses, expected):
    # Each of these prints as text that `parse_std` rejects.
    assert validate_std(_tiny(uses=uses)) == expected


def test_the_exact_diagnostics_cover_every_expression_node():
    # A node kind without a case here could fall through `infer_kind` to its
    # TypeError.
    assert [i for i, _, _ in _MEMBERS] == [k.__name__ for k in typing.get_args(model.Expr)]


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

PRIO_SRC = """
std prio = {
  input go
  output a | b | c
  attributes x :: Int 0..2
  states s init {x == 0}
  t1: s -> s : {x < 2} go / [a] {x' == x} @1
  t2: s -> s : {x < 1} go / [b] {x' == x} @2
  t3: s -> s : {true} go / [c] {x' == x} @3
}
"""

ELSE_SRC = """
std fallback = {
  input go
  output a | c
  attributes x :: Int 0..2
  states s init {x == 0}
  t1: s -> s : {x < 2} go / [a] {x' == x}
  t3: s -> s : {else} go / [c] {x' == x}
}
"""


def test_desugar_priorities_conjoin_higher_priority_negations():
    std = desugar(parse_std(PRIO_SRC))
    assert all(t.priority is None for t in std.transitions)
    by_label = {t.label: t for t in std.transitions}
    # Highest priority keeps its guard; lower ones get the negations stacked.
    assert by_label["t1"].guard == parse_std(PRIO_SRC).transitions[0].guard
    for valuation in ({"x": x} for x in range(3)):
        holds = [
            eval_expr(by_label[l].guard, valuation, {}) is True for l in ("t1", "t2", "t3")
        ]
        assert sum(holds) <= 1, f"overlap at {valuation}"


def test_desugar_else_is_negation_of_group():
    std = desugar(parse_std(ELSE_SRC))
    by_label = {t.label: t for t in std.transitions}
    for valuation in ({"x": x} for x in range(3)):
        t1 = eval_expr(by_label["t1"].guard, valuation, {}) is True
        t3 = eval_expr(by_label["t3"].guard, valuation, {}) is True
        assert t3 == (not t1)


@pytest.mark.parametrize("first", ["@1", ""], ids=["equal", "unnumbered"])
def test_transitions_of_equal_or_no_priority_are_not_ordered(first):
    # A guard excludes only the guards of its group with a smaller number, so
    # t1 and t2 overlap: both fire at [go].
    std = parse_std(
        "std m = { input go output a | b states s init "
        f" t1: s -> s : go / [a] {first}  t2: s -> s : go / [b] @1 }}"
    )
    entry = traces(std, EMPTY_ENV, Bounds(max_input_len=1)).entry((Msg("go"),))
    assert entry == Entry(False, frozenset({(Msg("a"),), (Msg("b"),)}))


def test_desugar_is_idempotent():
    for src in (PRIO_SRC, ELSE_SRC):
        once = desugar(parse_std(src))
        assert desugar(once) == once


def test_desugar_preserves_well_sortedness_and_order():
    std = parse_std(PRIO_SRC)
    out = desugar(std)
    assert validate_std(out) == []
    assert [t.label for t in out.transitions] == [t.label for t in std.transitions]


def test_desugar_rejects_two_else_guards_in_one_group():
    bad = _tiny(
        (_t(guard=ElseGuard()), _t(label="t2", guard=ElseGuard())),
    )
    with pytest.raises(ValueError, match="'else'"):
        desugar(bad)


def test_else_only_group_desugars_to_true():
    std = desugar(_tiny((_t(guard=ElseGuard()),)))
    assert std.transitions[0].guard == TRUE


# ---------------------------------------------------------------------------
# Enabled transitions
# ---------------------------------------------------------------------------


def test_enabled_binds_trigger_parameters():
    sig = Signature((MsgCtor("put", (IntSort(0, 2),)),), (MsgCtor("echo", (IntSort(0, 2),)),))
    std = _tiny(
        (
            _t(
                trigger="put",
                params=("v",),
                guard=BinOp("gt", ParamRef("v"), Lit(0)),
                outputs=(("echo", (ParamRef("v"),)),),
                post=BinOp("eq", PrimedRef("x"), Lit(0)),
            ),
        ),
        signature=sig,
    )
    machine = Machine(std, EMPTY_ENV)
    cfg = make_config("a", {"x": 0})
    assert machine._find_enabled(cfg, Msg("put", (0,))) == []
    [en] = machine._find_enabled(cfg, Msg("put", (2,)))
    [(outs, succ)] = list(en.reactions)
    assert outs == (Msg("echo", (2,)),)
    assert succ == make_config("b", {"x": 0})


def test_unsatisfiable_postcondition_contributes_nothing():
    std = _tiny((_t(post=Lit(False)),))
    cfg = make_config("a", {"x": 0})
    assert Machine(std, EMPTY_ENV)._find_enabled(cfg, Msg("go")) == []


def test_undefined_output_contributes_nothing():
    sig = Signature((MsgCtor("go"),), (MsgCtor("echo", (EnumSort("DN"),)),))
    std = _tiny(
        (
            _t(outputs=(("echo", (SymApp("Del", (EnumLit("d1", "DN"),)),)),),),
        ),
        signature=sig,
        domains=(("DN", ("d1", "d2")),),
        uses=(
            ("Del", EnvSymDecl(params=(EnumSort("DN"),), result=EnumSort("DN"), total=False)),
        ),
    )
    env = make_environment(domains={"DN": ("d1", "d2")}, tables={"Del": {}})
    cfg = make_config("a", {"x": 0})
    assert Machine(std, env)._find_enabled(cfg, Msg("go")) == []
    env_hit = make_environment(domains={"DN": ("d1", "d2")}, tables={"Del": {("d1",): "d2"}})
    [en] = Machine(std, env_hit)._find_enabled(cfg, Msg("go"))
    assert next(iter(en.reactions))[0] == (Msg("echo", ("d2",)),)


def test_relational_post_yields_one_reaction_per_valuation():
    std = _tiny((_t(post=TRUE),))  # x' unconstrained over Int 0..1
    [en] = Machine(std, EMPTY_ENV)._find_enabled(make_config("a", {"x": 0}), Msg("go"))
    succs = {succ for _, succ in en.reactions}
    assert succs == {make_config("b", {"x": 0}), make_config("b", {"x": 1})}


def _pin(attr, expr):
    return BinOp("eq", PrimedRef(attr), expr)


def _keep(attr):
    return _pin(attr, AttrRef(attr))


# Postconditions around the pinned-attribute solver of `Machine._find_enabled`,
# with x, y :: Int 0..2, b :: Bool, the partial table F = {0: 1}, and the
# pre-state a[x=2, y=1, b=false]; the last item is the expected number of
# reactions.
PINNED_POSTS = [
    pytest.param(conj(BinOp("eq", BinOp("sub", AttrRef("x"), Lit(1)), PrimedRef("x")),
                      _keep("y"), _keep("b")), 1, id="reversed"),
    pytest.param(conj(_pin("x", Lit(1)), _pin("x", BinOp("sub", AttrRef("x"), Lit(1))),
                      _keep("y")), 2, id="pinned-twice-consistent"),
    pytest.param(conj(_pin("x", Lit(1)), _pin("x", Lit(0)), _keep("y"), _keep("b")), 0,
                 id="pinned-twice-inconsistent"),
    pytest.param(conj(_pin("x", SymApp("F", (AttrRef("x"),))), _keep("y"), _keep("b")), 0,
                 id="undefined-pin"),
    pytest.param(conj(_pin("x", SymApp("F", (Lit(0),))), _keep("y"), _keep("b")), 1,
                 id="defined-pin"),
    pytest.param(conj(_pin("x", BinOp("add", AttrRef("x"), Lit(1))), _keep("y"), _keep("b")), 0,
                 id="out-of-range"),
    pytest.param(conj(_keep("x"), _keep("y"), _pin("b", Not(AttrRef("b")))), 1, id="bool"),
    pytest.param(conj(_pin("x", Lit(0)), BinOp("gt", PrimedRef("y"), AttrRef("y"))), 2,
                 id="relational-beside-pin"),
    pytest.param(conj(BinOp("or", _pin("x", Lit(0)), _pin("x", Lit(2))), _keep("y"), _keep("b")),
                 2, id="top-level-or"),
    pytest.param(conj(_pin("x", PrimedRef("y")), _keep("b")), 3, id="primed-right-side"),
]


@pytest.mark.parametrize("post,expected", PINNED_POSTS)
def test_pinned_postconditions_agree_with_oracle(post, expected):
    attrs = (("x", IntSort(0, 2)), ("y", IntSort(0, 2)), ("b", BoolSort()))
    decl = EnvSymDecl(params=(IntSort(0, 2),), result=IntSort(0, 2), total=False)
    std = _tiny((_t(post=post),), attributes=attrs, uses=(("F", decl),))
    env = make_environment(domains={}, tables={"F": {(0,): 1}})
    cfg = make_config("a", {"x": 2, "y": 1, "b": False})
    got = {
        (e.transition.label, e.reactions)
        for e in Machine(std, env)._find_enabled(cfg, Msg("go"))
    }
    assert got == {
        (label, reactions) for label, _, reactions in oracle_enabled(std, cfg, Msg("go"), env)
    }
    assert sum(len(reactions) for _, reactions in got) == expected


# With x, y :: Int 0..2 and b :: Bool, the first two postconditions are
# exactly their pins, one conjunct per attribute, so every candidate of the
# narrowed pools satisfies them; the last two are not.
SOLVED_POSTS = [
    (conj(_pin("x", SymApp("F", (AttrRef("x"),))), _keep("y"), _keep("b")), True),
    (conj(_pin("x", BinOp("add", AttrRef("x"), Lit(1))), _keep("y"), _keep("b")), True),
    (conj(_pin("x", Lit(1)), _pin("x", AttrRef("y")), _keep("b")), False),
    (conj(_pin("x", Lit(0)), BinOp("ge", PrimedRef("y"), AttrRef("y"))), False),
]


def test_a_postcondition_that_is_exactly_its_pins_is_not_tested_again(monkeypatch):
    attrs = (("x", IntSort(0, 2)), ("y", IntSort(0, 2)), ("b", BoolSort()))
    decl = EnvSymDecl(params=(IntSort(0, 2),), result=IntSort(0, 2), total=False)
    transitions = tuple(_t(label=f"t{i}", post=post) for i, (post, _) in enumerate(SOLVED_POSTS))
    std = _tiny(transitions, attributes=attrs, uses=(("F", decl),))
    env = make_environment(domains={}, tables={"F": {(0,): 1}})
    machine = Machine(std, env)
    tested = []
    holds = interp.guard_holds

    def spy(expr, *args):
        tested.append(expr)
        return holds(expr, *args)

    monkeypatch.setattr(interp, "guard_holds", spy)
    fired = set()
    for config in all_configs(std):
        for trigger in (None, Msg("go")):
            got = {(e.transition.label, e.reactions)
                   for e in machine._find_enabled(config, trigger)}
            assert got == {(label, reactions)
                           for label, _, reactions in oracle_enabled(std, config, trigger, env)}
            fired |= {label for label, _ in got}
    assert fired == {t.label for t in transitions}
    assert [t.post in tested for t in transitions] == [not solved for _, solved in SOLVED_POSTS]


@pytest.mark.parametrize("n", [2, 5])
def test_enabled_transitions_with_environment_tables_agree_with_oracle(n):
    # Guards, outputs and pins over the default environment's tables, at every
    # configuration the chain step reaches and under every trigger; the list
    # keeps declaration order.
    std, env = build_step(n), default_env()
    machine = Machine(std, env, Bounds(max_input_len=3))
    ts = machine_traces(machine)
    order = [t.label for t in machine.std.transitions]
    for config in ts.reached:
        for trigger in [None, *ts.inputs]:
            got = machine._find_enabled(config, trigger)
            assert {(e.transition.label, e.reactions) for e in got} == {
                (label, reactions) for label, _, reactions in oracle_enabled(std, config, trigger, env)
            }
            labels = [e.transition.label for e in got]
            assert labels == sorted(labels, key=order.index)


def _saturated(std, env, eps_budget=1, state_cap=None):
    return reachable_configurations(
        Machine(std, env, Bounds(eps_budget=eps_budget, state_cap=state_cap))
    )


def test_reachable_configurations_agree_with_oracle_on_generated_machines():
    # Saturated reachability is the oracle's at an unbounded depth, whatever
    # the internal-step budget (at least 1), and contains what traces reach.
    rng = random.Random(7)
    for _ in range(100):
        std = gen_std(rng)
        saturated = _saturated(std, EMPTY_ENV)
        for eps_budget in (1, 2):
            oracle = oracle_reachable(std, EMPTY_ENV, 10**6, eps_budget)
            assert saturated == oracle
            assert _saturated(std, EMPTY_ENV, eps_budget) == oracle
        assert traces(std, EMPTY_ENV, Bounds(max_input_len=3, eps_budget=3)).reached <= saturated


@pytest.mark.parametrize("n", range(6))
def test_reachable_configurations_agree_with_oracle_on_the_chain(n):
    std, env = build_step(n), default_env()
    saturated = _saturated(std, env)
    for eps_budget in (1, 2):
        oracle = oracle_reachable(std, env, 10**6, eps_budget)
        assert saturated == oracle
        assert _saturated(std, env, eps_budget) == oracle


def test_reachable_configurations_stop_at_the_state_cap():
    std, env = build_step(5), default_env()
    size = len(_saturated(std, env))
    assert _saturated(std, env, state_cap=size) == _saturated(std, env)
    with pytest.raises(ResourceLimit, match="state_cap") as info:
        _saturated(std, env, state_cap=size - 1)
    assert info.value.bound == "state_cap" and info.value.limit == size - 1


def test_reachable_configurations_need_an_internal_step_budget():
    # A budget of 0 never touches an internal successor.
    with pytest.raises(ValueError, match="internal-step budget"):
        _saturated(build_step(5), default_env(), eps_budget=0)


def test_bind_environment_reports_missing_totals():
    decl = EnvSymDecl(params=(EnumSort("DN"),), result=BoolSort(), total=True)
    std = _tiny((), domains=(("DN", ("d1", "d2")),), uses=(("Busy", decl),))
    env = make_environment(domains={"DN": ("d1", "d2")}, tables={"Busy": {("d1",): True}})
    tables, problems = bind_environment(std, env)
    assert any("Busy" in p for p in problems)
    full = make_environment(
        domains={"DN": ("d1", "d2")},
        tables={"Busy": {("d1",): True}},
        defaults={"Busy": False},
    )
    tables, problems = bind_environment(std, full)
    assert problems == []
    assert tables["Busy"][("d2",)] is False
