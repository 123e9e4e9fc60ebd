"""The textual surface language: diagrams, environments, feature patches.

Three file kinds share one lexer:

* ``.std`` — a machine: domains, used environment symbols, the message
  signature, attributes, states (with initial markings) and transitions.
* ``.env`` — an environment: domain declarations plus function/predicate
  tables (``SYM(args) = value`` rows and ``default SYM = value`` fills).
* ``.feat`` — a feature patch: ``feature NAME on SUBJECT { ... }`` wrapping a
  sequence of rule applications.

Identifiers may contain hyphens (``busy-tone``, ``time-out-alarm``): a hyphen
continues an identifier when it is directly attached on the left and a letter
or underscore follows, so ``a-b`` is one name while ``a - b`` and ``a-1``
are subtractions.  ``#`` starts a comment running to the end of the line.

A transition is read first, then resolved.  The expression parser reads no
scope: a bare identifier is a `Name`, a call ``S(...)`` a `SymApp` and ``x'``
a `PrimedRef`, each remembered with its token, and an output term is read as
a plain expression.  `model.resolve_transition` then checks the trigger and
has `model.resolve_names` give each `Name` its meaning: a trigger parameter,
else an attribute, else an enumeration member, else a nullary environment
symbol.  An output term that is a bare name or a call naming an output
constructor is that constructor, whatever else the name means.  So a syntax
error in a transition is reported before its name errors, and a name error at
the token of the offending name.  `parse_std` resolves each transition and
initial predicate against the machine being read, and `parse_feature` each
payload transition when it is given the subject machine.  `apply_rule`
resolves the same way whatever it gets unresolved (a payload parsed without
its subject, every redirect postcondition), so one text means one patch.

`print_std` emits a canonical form that `parse_std` maps back to the same
machine, `export_dot` renders the state graph, and `std_to_json` /
`std_from_json` give a lossless structured encoding.

Expression syntax is stated once, in the tables under "Expressions": the
binary operator levels, the prefix operators, the built-in functions and the
std/1 tags of expression and sort nodes.  The parser, the printer and the
std/1 codec are all read off them, so what one accepts the others produce.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from .model import (
    AttrRef,
    BinOp,
    BoolSort,
    Cons,
    Defined,
    ElseGuard,
    EnumLit,
    EnumSort,
    EnvSymDecl,
    Expr,
    Head,
    IntSort,
    Len,
    Lit,
    ListLit,
    ListSort,
    MsgCtor,
    Msg,
    Name,
    Neg,
    Not,
    ParamRef,
    PrimedRef,
    Record,
    Scope,
    Signature,
    Sort,
    Std,
    SymApp,
    Tail,
    TRUE,
    Transition,
    UnknownName,
    Value,
    format_value,
    make_environment,
    name_scope,
    replace,
    resolve_names,
    resolve_transition,
    validate_std,
)
from .model import Environment
from .refine import (
    AddStates,
    AddTransitions,
    RemoveInitialStates,
    RemoveStates,
    RemoveTransitions,
    RuleApplication,
    SplitState,
)
from .features import FeaturePatch

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class SourceSpan(Record):
    line: int
    col: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}"


class ParseError(Record):
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ParseFailure(Exception):
    """Raised when parsing fails; `errors` holds the diagnostics."""

    def __init__(self, errors) -> None:
        self.errors = tuple(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class Token(Record):
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)


_PUNCT = frozenset(
    ("->?", "->", "::", "..", "==", "!=", "<=", ">=", "&&", "||", *"{}()[],:=|/@'!<>+-*^")
)
_DIGITS = frozenset("0123456789")

RESERVED = frozenset(
    {
        "std", "input", "output", "attributes", "states", "init", "eps", "else",
        "true", "false", "domain", "uses", "feature", "on", "split", "into",
        "redirect", "with", "default",
    }
)

def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            col += i - start
            continue
        if c in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            toks.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n:
                if _ident_char(text[i]):
                    i += 1
                elif (
                    text[i] == "-"
                    and i + 1 < n
                    and (text[i + 1].isalpha() or text[i + 1] == "_")
                ):
                    i += 2
                else:
                    break
            toks.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        # The longest punctuation token that starts here.
        for width in (3, 2, 1):
            piece = text[i:i + width]
            if piece in _PUNCT:
                break
        else:
            raise ParseFailure([ParseError(f"unexpected character {c!r}", SourceSpan(line, col))])
        toks.append(Token("punct", piece, line, col))
        i += len(piece)
        col += len(piece)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser core
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = tokenize(text)
        self.i = 0
        # By `id`, the token each naming expression was read at (a transition:
        # its trigger), for `_resolve` to report a name error at.
        self.tokens: dict[int, Token] = {}
        # An environment's member values, checked once all its domains are read.
        self.names: list[Token] = []

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.i + k]

    def at(self, text: str) -> bool:
        t = self.toks[self.i]
        return t.text == text and t.kind != "eof"

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def take(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, message: str, tok: Optional[Token] = None):
        t = tok if tok is not None else self.peek()
        raise ParseFailure([ParseError(message, t.span)])

    def _describe(self, t: Token) -> str:
        return "end of input" if t.kind == "eof" else repr(t.text)

    def expect(self, text: str, what: Optional[str] = None) -> Token:
        if not self.at(text):
            want = what or repr(text)
            self.fail(f"expected {want}, found {self._describe(self.peek())}")
        return self.take()

    def expect_int(self) -> int:
        if not self.at_kind("int"):
            self.fail(f"expected a number, found {self._describe(self.peek())}")
        return int(self.take().text)

    def expect_name(self, what: str = "a name") -> Token:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}, found {self._describe(t)}")
        if t.text in RESERVED:
            self.fail(f"{t.text!r} is a reserved word and cannot be used as {what}")
        return self.take()

    def expect_eof(self) -> None:
        if not self.at_kind("eof"):
            self.fail(f"expected end of input, found {self._describe(self.peek())}")

    def commas(self, item: Callable[[], T]) -> list[T]:
        """`item (, item)*`: one item or more."""
        items = [item()]
        while self.at(","):
            self.take()
            items.append(item())
        return items

    def enclosed(self, open_: str, close: str, item: Callable[[], T]) -> list[T]:
        """`open_`, then `item (, item)*` or nothing, then `close`."""
        self.expect(open_)
        items = [] if self.at(close) else self.commas(item)
        self.expect(close)
        return items


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# The expression syntax, in one place: `_parse_expr`, `print_expr` and the
# std/1 codec below all read these tables.

# Binary operators by precedence level, loosest first: spelling -> `BinOp.op`.
# Each level associates to the left, except that comparisons do not chain.
_BINARY_LEVELS = (
    {"||": "or"},
    {"&&": "and"},
    {"==": "eq", "!=": "ne", "<=": "le", ">=": "ge", "<": "lt", ">": "gt"},
    {"+": "add", "-": "sub"},
    {"*": "mul"},
)
_COMPARISON = 2  # the comparison level, which does not chain
# Prefix operators, one level tighter than every binary one.
_UNARY = len(_BINARY_LEVELS)
_UNARY_OPS = {"!": Not, "-": Neg}
# Built-in functions: each takes one argument per field of its node.
_BUILTINS = {"defined": Defined, "head": Head, "tail": Tail, "len": Len, "cons": Cons}

# std/1 tags.  Every other key of a node's JSON object is one of its fields.
_EXPR_TAGS = {
    Lit: "lit", EnumLit: "enum", AttrRef: "attr", PrimedRef: "primed", ParamRef: "param",
    Name: "name", SymApp: "sym", Defined: "defined", Not: "not", Neg: "neg", BinOp: "bin",
    ListLit: "list", Cons: "cons", Head: "head", Tail: "tail", Len: "len", ElseGuard: "else",
}
_SORT_TAGS = {BoolSort: "bool", IntSort: "int", EnumSort: "enum", ListSort: "list"}

def _parse_expr(p: _Parser, level: int = 0) -> Expr:
    """An expression whose operators bind at `level` or tighter, its names
    left for `_resolve` or `apply_rule` to resolve."""
    if level == _UNARY:
        unary = _UNARY_OPS.get(p.peek().text)
        if unary is None:
            return _parse_atom(p)
        p.take()
        return unary(_parse_expr(p, _UNARY))
    ops = _BINARY_LEVELS[level]
    left = _parse_expr(p, level + 1)
    while p.peek().text in ops:
        op = ops[p.take().text]
        left = BinOp(op, left, _parse_expr(p, level + 1))
        if level == _COMPARISON:
            break
    return left


def _parse_atom(p: _Parser) -> Expr:
    t = p.peek()
    if t.kind == "int":
        p.take()
        return Lit(int(t.text))
    if p.at("true"):
        p.take()
        return Lit(True)
    if p.at("false"):
        p.take()
        return Lit(False)
    if p.at("("):
        p.take()
        e = _parse_expr(p)
        p.expect(")")
        return e
    if p.at("["):
        return ListLit(tuple(p.enclosed("[", "]", lambda: _parse_expr(p))))
    if t.kind != "ident":
        p.fail(f"expected an expression, found {p._describe(t)}")
    if t.text in RESERVED and t.text not in ("true", "false"):
        p.fail(f"{t.text!r} cannot appear in an expression")
    name_tok = p.take()
    name = name_tok.text
    if p.at("'"):
        p.take()
        node: Expr = PrimedRef(name)
    elif p.at("("):
        args_t = tuple(p.enclosed("(", ")", lambda: _parse_expr(p)))
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            arity = len(builtin._fields)
            if len(args_t) != arity:
                p.fail(f"{name} takes {arity} argument(s), got {len(args_t)}", name_tok)
            return builtin(*args_t)
        node = SymApp(name, args_t)
    else:
        node = Name(name)
    p.tokens[id(node)] = name_tok
    return node


def _resolve(p: _Parser, node: Transition | Expr, scope: Scope):
    """`node`, a transition or an initial predicate, with its names given
    their meaning in `scope`; a name without one is reported at its token."""
    try:
        if type(node) is Transition:
            return resolve_transition(node, scope)
        return resolve_names(node, scope, frozenset())
    except UnknownName as exc:
        p.fail(str(exc), p.tokens[id(exc.node)])


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


def _parse_signed_int(p: _Parser) -> int:
    if p.at("-"):
        p.take()
        return -p.expect_int()
    return p.expect_int()


#: The bounds of a bare ``Int`` and the length of a bare ``[SORT]``.
_DEFAULT_INT = (0, 3)
_DEFAULT_LIST_LEN = 3


def _parse_sort(p: _Parser, domains: frozenset[str]) -> Sort:
    if p.at("Bool"):
        p.take()
        return BoolSort()
    if p.at("Int"):
        p.take()
        if p.at_kind("int") or p.at("-"):
            lo = _parse_signed_int(p)
            p.expect("..")
            hi = _parse_signed_int(p)
        else:
            lo, hi = _DEFAULT_INT
        if lo > hi:
            p.fail(f"empty integer range {lo}..{hi}")
        return IntSort(lo, hi)
    if p.at("["):
        p.take()
        elem = _parse_sort(p, domains)
        p.expect("]")
        length = _DEFAULT_LIST_LEN
        if p.at("^"):
            p.take()
            length = p.expect_int()
        return ListSort(elem, length)
    t = p.peek()
    if t.kind == "ident" and t.text in domains:
        p.take()
        return EnumSort(t.text)
    p.fail(
        f"expected a sort (Bool, Int lo..hi, [SORT]^N or a domain name), found {p._describe(t)}"
    )


# ---------------------------------------------------------------------------
# Transitions (shared between .std bodies and .feat payloads)
# ---------------------------------------------------------------------------


def _parse_transition(p: _Parser) -> Transition:
    """One transition, its names and output terms left unresolved."""
    label: Optional[str] = None
    if p.peek().kind == "ident" and p.peek(1).text == ":":
        label = p.expect_name("a transition label").text
        p.expect(":")
    source = p.expect_name("a source state").text
    p.expect("->")
    target = p.expect_name("a target state").text
    p.expect(":")
    guard: Expr = TRUE
    trigger: Optional[str] = None
    params: tuple[str, ...] = ()
    if p.at("{"):
        p.take()
        if p.at("else"):
            p.take()
            guard = ElseGuard()
        else:
            guard = _parse_expr(p)
        p.expect("}")
    trigger_tok = p.peek()
    if p.at("eps"):
        p.take()
    else:
        trigger = p.expect_name("an input message name").text
        if p.at("("):
            params = tuple(p.enclosed("(", ")", lambda: p.expect_name("a parameter name").text))
    outputs: list[tuple[Optional[str], tuple[Expr, ...]]] = []
    if p.at("/"):
        p.take()
        outputs = p.enclosed("[", "]", lambda: (None, (_parse_expr(p),)))
    post: Expr = TRUE
    if p.at("{"):
        p.take()
        post = _parse_expr(p)
        p.expect("}")
    priority: Optional[int] = None
    if p.at("@"):
        p.take()
        priority = p.expect_int()
    t = Transition(
        label=label,
        source=source,
        target=target,
        trigger=trigger,
        params=params,
        guard=guard,
        outputs=tuple(outputs),
        post=post,
        priority=priority,
    )
    p.tokens[id(t)] = trigger_tok
    return t


# ---------------------------------------------------------------------------
# .std files
# ---------------------------------------------------------------------------


def parse_std(text: str) -> Std:
    """Parse a machine and validate it; raises ParseFailure with located
    diagnostics on any syntax or well-formedness problem.  A bare ``Int`` is
    ``Int 0..3`` and a bare ``[SORT]`` is ``[SORT]^3``."""
    p = _Parser(text)
    std_tok = p.peek()
    p.expect("std", "'std'")
    name = p.expect_name("the machine name").text
    p.expect("=")
    p.expect("{")

    domains: dict[str, tuple[str, ...]] = {}
    while p.at("domain"):
        _parse_domain(p, domains)
    domain_set = frozenset(domains)

    def sort() -> Sort:
        return _parse_sort(p, domain_set)

    uses: list[tuple[str, EnvSymDecl]] = []
    if p.at("uses"):
        p.take()
        p.expect("{")
        seen_syms: set[str] = set()
        while not p.at("}"):
            sym = p.expect_name("an environment symbol name")
            if sym.text in seen_syms:
                p.fail(f"environment symbol {sym.text!r} declared twice", sym)
            seen_syms.add(sym.text)
            psorts = p.enclosed("(", ")", sort)
            total = True
            if p.at("->?"):
                p.take()
                total = False
            else:
                p.expect("->", "'->' or '->?'")
            uses.append((sym.text, EnvSymDecl(tuple(psorts), sort(), total)))
        p.expect("}")

    def parse_alternatives(keyword: str) -> tuple[MsgCtor, ...]:
        p.expect(keyword)
        alts: list[MsgCtor] = []
        while True:
            t = p.peek()
            bare_sort = (
                t.text in ("Bool", "Int", "[")
                or (t.kind == "ident" and t.text in domain_set)
            )
            if bare_sort:
                alts.append(MsgCtor(None, (sort(),)))
            else:
                cname = p.expect_name("a message constructor").text
                psorts: list[Sort] = []
                if p.at("("):
                    p.take()
                    psorts = p.commas(sort)
                    p.expect(")")
                alts.append(MsgCtor(cname, tuple(psorts)))
            if p.at("|"):
                p.take()
                continue
            break
        return tuple(alts)

    inputs = parse_alternatives("input")
    outputs = parse_alternatives("output")

    attributes: list[tuple[str, Sort]] = []
    while p.at("attributes"):
        p.take()
        while True:
            names = p.commas(lambda: p.expect_name("an attribute name").text)
            p.expect("::")
            attr_sort = sort()
            attributes.extend((n, attr_sort) for n in names)
            if p.at("states") or p.at("attributes") or p.at("}"):
                break

    header = Std(
        name=name,
        domains=tuple(domains.items()),
        uses=tuple(uses),
        signature=Signature(inputs, outputs),
        attributes=tuple(attributes),
        states=(),
        initial=(),
        transitions=(),
    )
    scope = name_scope(header)

    p.expect("states")
    initial: list[tuple[str, Expr]] = []

    def state() -> str:
        sname = p.expect_name("a state name").text
        if p.at("init"):
            p.take()
            pred: Expr = TRUE
            if p.at("{"):
                p.take()
                pred = _resolve(p, _parse_expr(p), scope)
                p.expect("}")
            initial.append((sname, pred))
        return sname

    states = p.commas(state)

    transitions: list[Transition] = []
    while not p.at("}"):
        if p.at_kind("eof"):
            p.fail("expected a transition or '}'")
        transitions.append(_resolve(p, _parse_transition(p), scope))
    p.expect("}")
    p.expect_eof()

    std = replace(
        header, states=tuple(states), initial=tuple(initial), transitions=tuple(transitions)
    )
    problems = validate_std(std)
    if problems:
        raise ParseFailure([ParseError(m, std_tok.span) for m in problems])
    return std


def _parse_domain(p: _Parser, domains: dict[str, tuple[str, ...]]) -> None:
    """Add ``domain NAME = {MEMBER, ...}`` to `domains`, which must not
    declare NAME yet."""
    p.expect("domain")
    dn = p.expect_name("a domain name")
    if dn.text in domains:
        p.fail(f"domain {dn.text!r} declared twice", dn)
    p.expect("=")
    p.expect("{")
    domains[dn.text] = tuple(p.commas(lambda: p.expect_name("a domain member").text))
    p.expect("}")


# ---------------------------------------------------------------------------
# .env files
# ---------------------------------------------------------------------------


def parse_env(text: str) -> Environment:
    """Parse an environment file: domain declarations, table rows
    ``SYM(v1, …) = value``, and ``default SYM = value`` fills."""
    p = _Parser(text)
    domains: dict[str, tuple[str, ...]] = {}
    tables: dict[str, dict[tuple[Value, ...], Value]] = {}
    defaults: dict[str, Value] = {}

    while not p.at_kind("eof"):
        if p.at("domain"):
            _parse_domain(p, domains)
            continue
        if p.at("default"):
            p.take()
            sym = p.expect_name("an environment symbol")
            if sym.text in defaults:
                p.fail(f"default for {sym.text!r} given twice", sym)
            p.expect("=")
            defaults[sym.text] = _parse_ground_value(p)
            continue
        sym = p.expect_name("an environment symbol")
        args: tuple[Value, ...] = ()
        if p.at("("):
            args = tuple(p.enclosed("(", ")", lambda: _parse_ground_value(p)))
        p.expect("=")
        value = _parse_ground_value(p)
        rows = tables.setdefault(sym.text, {})
        if args in rows:
            p.fail(f"duplicate row for {sym.text}{args!r}", sym)
        rows[args] = value

    all_members = {m for ms in domains.values() for m in ms}
    for tok in p.names:
        if tok.text not in all_members:
            p.fail(
                f"{tok.text!r} is not a member of any domain declared in this environment", tok
            )
    return make_environment(domains, tables, defaults)


def _parse_ground_value(p: _Parser) -> Value:
    """A value literal; a member name's token also goes to `p.names`."""
    t = p.peek()
    if p.at("true"):
        p.take()
        return True
    if p.at("false"):
        p.take()
        return False
    if t.kind == "int" or p.at("-"):
        return _parse_signed_int(p)
    if p.at("["):
        return tuple(p.enclosed("[", "]", lambda: _parse_ground_value(p)))
    tok = p.expect_name("a value")
    p.names.append(tok)
    return tok.text


def parse_messages(text: str) -> tuple[Msg, ...]:
    """Parse a comma-separated message list such as ``LT, DL(7), call(d1, d2)``.

    Arguments are ground values (integers, ``true``/``false``, domain members,
    or ``[...]`` lists); a bare value stands for a message of an unnamed
    signature alternative.  Empty text is the empty sequence.  Whether each
    message actually belongs to a machine's alphabet is checked at use."""
    p = _Parser(text)
    if p.at_kind("eof"):
        return ()

    def message() -> Msg:
        t = p.peek()
        if t.kind == "int" or p.at("-") or p.at("true") or p.at("false") or p.at("["):
            return Msg(None, (_parse_ground_value(p),))
        name = p.expect_name("a message constructor")
        args: list[Value] = []
        if p.at("("):
            args = p.enclosed("(", ")", lambda: _parse_ground_value(p))
        return Msg(name.text, tuple(args))

    msgs = p.commas(message)
    p.expect_eof()
    return tuple(msgs)


# ---------------------------------------------------------------------------
# .feat files
# ---------------------------------------------------------------------------


def parse_feature(text: str, base: Optional[Std] = None) -> FeaturePatch:
    """Parse a feature patch.  When `base` (the subject machine) is given, a
    patch written against another machine is an error at its subject, and
    each payload transition is resolved against `base` once it is read;
    without it, payload transitions are left as read.  Redirect
    postconditions are left as read either way, since the redirected
    transition may be one the patch adds.  `apply_rule` resolves what is
    left against the machine it rewrites, the same way."""
    p = _Parser(text)
    p.expect("feature")
    fname = p.expect_name("the feature name").text
    p.expect("on")
    subject = p.expect_name("the subject machine name")
    if base is not None and subject.text != base.name:
        p.fail(f"feature {fname!r} is written against {subject.text!r}, not {base.name!r}", subject)
    p.expect("{")
    scope = name_scope(base) if base is not None else None

    def name_list(what: str = "a state name") -> tuple[str, ...]:
        p.expect("{")
        names = p.commas(lambda: p.expect_name(what).text)
        p.expect("}")
        return tuple(names)

    def transitions() -> tuple[Transition, ...]:
        p.expect("{")
        ts = []
        while not p.at("}"):
            t = _parse_transition(p)
            ts.append(t if scope is None else _resolve(p, t, scope))
        p.expect("}")
        return tuple(ts)

    apps: list[RuleApplication] = []
    while not p.at("}"):
        if p.at("add-states"):
            p.take()
            names = name_list()
            payload: tuple[Transition, ...] = ()
            if p.at("with"):
                p.take()
                payload = transitions()
            apps.append(AddStates(names, payload))
        elif p.at("remove-states"):
            p.take()
            apps.append(RemoveStates(name_list()))
        elif p.at("split"):
            p.take()
            sname = p.expect_name("the state to split").text
            p.expect("into")
            parts = name_list()
            p.expect("{")
            redirects: list[tuple[str, str, Optional[Expr]]] = []
            while p.at("redirect"):
                p.take()
                label = p.expect_name("a transition label").text
                p.expect("->")
                part = p.expect_name("a part name").text
                post: Optional[Expr] = None
                if p.at("with"):
                    p.take()
                    p.expect("{")
                    post = _parse_expr(p)
                    p.expect("}")
                redirects.append((label, part, post))
            p.expect("}")
            apps.append(SplitState(sname, parts, tuple(redirects)))
        elif p.at("add-transitions"):
            p.take()
            apps.append(AddTransitions(transitions()))
        elif p.at("remove-transitions"):
            p.take()
            apps.append(RemoveTransitions(name_list("a transition label")))
        elif p.at("remove-initial-states"):
            p.take()
            apps.append(RemoveInitialStates(name_list()))
        else:
            p.fail(
                "expected a rule application (add-states, remove-states, split, "
                f"add-transitions, remove-transitions, remove-initial-states), "
                f"found {p._describe(p.peek())}"
            )
    p.expect("}")
    p.expect_eof()
    if not apps:
        p.fail("a feature patch needs at least one rule application")
    return FeaturePatch(name=fname, subject=subject.text, applications=tuple(apps))


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

_OP_TEXT = {op: text for level in _BINARY_LEVELS for text, op in level.items()}
_PREC = {op: prec for prec, level in enumerate(_BINARY_LEVELS) for op in level.values()}
_UNARY_TEXT = {node: text for text, node in _UNARY_OPS.items()}
_BUILTIN_NAMES = {node: name for name, node in _BUILTINS.items()}


def print_expr(e: Expr) -> str:
    kind = type(e)
    if kind is BinOp:
        prec = _PREC[e.op]
        return f"{_operand(e.left, prec, False)} {_OP_TEXT[e.op]} {_operand(e.right, prec, True)}"
    if kind in _UNARY_TEXT:
        return _UNARY_TEXT[kind] + _operand(e.arg, _UNARY, False)
    if kind in _BUILTIN_NAMES:
        return _call(_BUILTIN_NAMES[kind], [getattr(e, f) for f in kind._fields])
    if kind is SymApp:
        return _call(e.name, e.args)
    if kind is Lit:
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if kind is EnumLit:
        return e.value
    if kind in (AttrRef, ParamRef, Name):
        return e.name
    if kind is PrimedRef:
        return f"{e.name}'"
    if kind is ListLit:
        return "[" + ", ".join(map(print_expr, e.items)) + "]"
    if kind is ElseGuard:
        return "else"
    raise TypeError(f"not an expression: {e!r}")


def _call(name: str, args) -> str:
    return f"{name}({', '.join(map(print_expr, args))})"


def _operand(e: Expr, parent: int, right: bool) -> str:
    """`e` as an operand of an operator at precedence `parent`: bracketed if
    it binds more loosely, or as tightly on the right or in a comparison."""
    text = print_expr(e)
    kind = type(e)
    prec = _PREC[e.op] if kind is BinOp else _UNARY if kind in _UNARY_TEXT else _UNARY + 1
    if prec < parent or (prec == parent and (right or parent == _COMPARISON)):
        return f"({text})"
    return text


def print_transition(t: Transition) -> str:
    parts = []
    if t.label is not None:
        parts.append(f"{t.label}: ")
    parts.append(f"{t.source} -> {t.target} : ")
    if isinstance(t.guard, ElseGuard):
        parts.append("{else} ")
    elif t.guard != TRUE:
        parts.append("{" + print_expr(t.guard) + "} ")
    if t.trigger is None:
        parts.append("eps")
    else:
        parts.append(t.trigger)
        if t.params:
            parts.append("(" + ", ".join(t.params) + ")")
    if t.outputs:
        terms = (
            print_expr(args[0]) if cname is None else _call(cname, args) if args else cname
            for cname, args in t.outputs
        )
        parts.append(" / [" + ", ".join(terms) + "]")
    if t.post != TRUE:
        parts.append(" {" + print_expr(t.post) + "}")
    if t.priority is not None:
        parts.append(f" @{t.priority}")
    return "".join(parts)


def print_std(std: Std) -> str:
    """Canonical text for a machine; `parse_std(print_std(m))` reproduces `m`
    exactly."""
    lines: list[str] = [f"std {std.name} = {{"]
    for dn, members in std.domains:
        lines.append(f"  domain {dn} = {{{', '.join(members)}}}")
    if std.uses:
        if std.domains:
            lines.append("")
        lines.append("  uses {")
        for sym, decl in std.uses:
            arrow = "->" if decl.total else "->?"
            args = ", ".join(map(str, decl.params))
            lines.append(f"    {sym}({args}) {arrow} {decl.result}")
        lines.append("  }")
    lines.append("")
    lines.append("  input " + " | ".join(map(str, std.signature.inputs)))
    lines.append("  output " + " | ".join(map(str, std.signature.outputs)))
    if std.attributes:
        lines.append("")
        groups: list[tuple[list[str], Sort]] = []
        for name, sort in std.attributes:
            if groups and groups[-1][1] == sort:
                groups[-1][0].append(name)
            else:
                groups.append(([name], sort))
        for names, sort in groups:
            lines.append(f"  attributes {', '.join(names)} :: {sort}")
    lines.append("")
    init_map = dict(std.initial)
    state_texts = []
    for s in std.states:
        if s in init_map:
            pred = init_map[s]
            if pred == TRUE:
                state_texts.append(f"{s} init")
            else:
                state_texts.append(f"{s} init {{{print_expr(pred)}}}")
        else:
            state_texts.append(s)
    lines.append("  states " + ", ".join(state_texts))
    if std.transitions:
        lines.append("")
        for t in std.transitions:
            lines.append("  " + print_transition(t))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_env(env: Environment) -> str:
    """Canonical text for an environment; `parse_env(print_env(e))`
    reproduces `e` exactly."""
    lines: list[str] = []
    for dn, members in env.domains:
        lines.append(f"domain {dn} = {{{', '.join(members)}}}")
    for sym, value in env.defaults:
        lines.append(f"default {sym} = {format_value(value)}")
    for sym, rows in env.tables:
        for args, value in rows:
            head = sym if not args else f"{sym}({', '.join(format_value(a) for a in args)})"
            lines.append(f"{head} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def print_feature(patch: FeaturePatch) -> str:
    """Canonical text for a feature patch; `parse_feature(print_feature(p),
    base)` reproduces `p` when parsed against the same subject machine (or
    none, if `p` itself was parsed without one)."""
    lines: list[str] = [f"feature {patch.name} on {patch.subject} {{"]

    def name_list(names) -> str:
        return "{ " + ", ".join(names) + " }"

    for app in patch.applications:
        if isinstance(app, AddStates):
            head = f"  add-states {name_list(app.names)}"
            if app.transitions:
                lines.append(head + " with {")
                for t in app.transitions:
                    lines.append("    " + print_transition(t))
                lines.append("  }")
            else:
                lines.append(head)
        elif isinstance(app, RemoveStates):
            lines.append(f"  remove-states {name_list(app.names)}")
        elif isinstance(app, SplitState):
            lines.append(f"  split {app.name} into {name_list(app.parts)} {{")
            for label, part, post in app.redirects:
                line = f"    redirect {label} -> {part}"
                if post is not None:
                    line += " with {" + print_expr(post) + "}"
                lines.append(line)
            lines.append("  }")
        elif isinstance(app, AddTransitions):
            lines.append("  add-transitions {")
            for t in app.transitions:
                lines.append("    " + print_transition(t))
            lines.append("  }")
        elif isinstance(app, RemoveTransitions):
            lines.append(f"  remove-transitions {name_list(app.labels)}")
        elif isinstance(app, RemoveInitialStates):
            lines.append(f"  remove-initial-states {name_list(app.names)}")
        else:
            raise TypeError(f"not a rule application: {app!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(std: Std) -> str:
    """Graphviz rendering: one node per control state, entry arrows for
    initial markings, one edge per transition labeled with its full text."""
    lines = [f'digraph "{_dot_escape(std.name)}" {{', "  rankdir=LR;", '  node [shape=circle];']
    for i, (s, pred) in enumerate(std.initial):
        lines.append(f'  "__init{i}" [shape=point, label=""];')
        attrs = ""
        if pred != TRUE:
            attrs = f' [label="{_dot_escape("{" + print_expr(pred) + "}")}"]'
        lines.append(f'  "__init{i}" -> "{_dot_escape(s)}"{attrs};')
    for s in std.states:
        lines.append(f'  "{_dot_escape(s)}";')
    for t in std.transitions:
        text = print_transition(t)
        # The arrow itself carries source/target; keep the label compact.
        head = f"{t.label}: " if t.label is not None else ""
        body = text.split(" : ", 1)[1] if " : " in text else text
        lines.append(
            f'  "{_dot_escape(t.source)}" -> "{_dot_escape(t.target)}" '
            f'[label="{_dot_escape(head + body)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON (std/1) export / import
# ---------------------------------------------------------------------------


_EXPR_KINDS = {tag: kind for kind, tag in _EXPR_TAGS.items()}
_SORT_KINDS = {tag: kind for kind, tag in _SORT_TAGS.items()}


def _to_json(node, key: str, tags: dict) -> dict:
    """`node` as a std/1 object: its tag under `key`, then its fields in
    order, with tuples as lists."""
    kind = type(node)
    doc = {key: tags[kind]}
    for name in kind._fields:
        value = getattr(node, name)
        if type(value) in tags:
            value = _to_json(value, key, tags)
        elif type(value) is tuple:
            value = [_to_json(v, key, tags) if type(v) in tags else v for v in value]
        doc[name] = value
    return doc


def _from_json(doc: dict, key: str, kinds: dict, what: str):
    """The node that `_to_json` encoded as `doc`."""
    kind = kinds.get(doc[key])
    if kind is None:
        raise ValueError(f"unknown {what} {doc[key]!r}")
    args = []
    for name in kind._fields:
        value = doc[name]
        if type(value) is dict:
            value = _from_json(value, key, kinds, what)
        elif type(value) is list:
            value = tuple(_from_json(v, key, kinds, what) if type(v) is dict else v for v in value)
        args.append(value)
    return kind(*args)


def sort_to_json(s: Sort) -> dict:
    if type(s) not in _SORT_TAGS:
        raise TypeError(f"not a sort: {s!r}")
    return _to_json(s, "kind", _SORT_TAGS)


def sort_from_json(d: dict) -> Sort:
    return _from_json(d, "kind", _SORT_KINDS, "sort kind")


def expr_to_json(e: Expr) -> dict:
    if type(e) not in _EXPR_TAGS:
        raise TypeError(f"not an expression: {e!r}")
    return _to_json(e, "node", _EXPR_TAGS)


def expr_from_json(d: dict) -> Expr:
    return _from_json(d, "node", _EXPR_KINDS, "expression node")


def _ctor_to_json(c: MsgCtor) -> dict:
    return {"name": c.name, "params": [sort_to_json(s) for s in c.params]}


def _ctor_from_json(d: dict) -> MsgCtor:
    return MsgCtor(d["name"], tuple(sort_from_json(s) for s in d["params"]))


def _transition_to_json(t: Transition) -> dict:
    return {
        "label": t.label,
        "source": t.source,
        "target": t.target,
        "trigger": t.trigger,
        "params": list(t.params),
        "guard": expr_to_json(t.guard),
        "outputs": [
            {"ctor": cname, "args": [expr_to_json(a) for a in args]}
            for cname, args in t.outputs
        ],
        "post": expr_to_json(t.post),
        "priority": t.priority,
    }


def _transition_from_json(d: dict) -> Transition:
    return Transition(
        label=d["label"],
        source=d["source"],
        target=d["target"],
        trigger=d["trigger"],
        params=tuple(d["params"]),
        guard=expr_from_json(d["guard"]),
        outputs=tuple(
            (o["ctor"], tuple(expr_from_json(a) for a in o["args"])) for o in d["outputs"]
        ),
        post=expr_from_json(d["post"]),
        priority=d["priority"],
    )


def std_to_json(std: Std) -> dict:
    return {
        "format": "std/1",
        "name": std.name,
        "domains": [{"name": n, "members": list(ms)} for n, ms in std.domains],
        "uses": [
            {
                "name": n,
                "params": [sort_to_json(s) for s in decl.params],
                "result": sort_to_json(decl.result),
                "total": decl.total,
            }
            for n, decl in std.uses
        ],
        "signature": {
            "inputs": [_ctor_to_json(c) for c in std.signature.inputs],
            "outputs": [_ctor_to_json(c) for c in std.signature.outputs],
        },
        "attributes": [{"name": n, "sort": sort_to_json(s)} for n, s in std.attributes],
        "states": list(std.states),
        "initial": [{"state": s, "pred": expr_to_json(e)} for s, e in std.initial],
        "transitions": [_transition_to_json(t) for t in std.transitions],
    }


def std_from_json(d: dict) -> Std:
    if d.get("format") != "std/1":
        raise ValueError(f"not a std/1 document (format: {d.get('format')!r})")
    std = Std(
        name=d["name"],
        domains=tuple((x["name"], tuple(x["members"])) for x in d["domains"]),
        uses=tuple(
            (
                x["name"],
                EnvSymDecl(
                    tuple(sort_from_json(s) for s in x["params"]),
                    sort_from_json(x["result"]),
                    x["total"],
                ),
            )
            for x in d["uses"]
        ),
        signature=Signature(
            tuple(_ctor_from_json(c) for c in d["signature"]["inputs"]),
            tuple(_ctor_from_json(c) for c in d["signature"]["outputs"]),
        ),
        attributes=tuple((x["name"], sort_from_json(x["sort"])) for x in d["attributes"]),
        states=tuple(d["states"]),
        initial=tuple((x["state"], expr_from_json(x["pred"])) for x in d["initial"]),
        transitions=tuple(_transition_from_json(t) for t in d["transitions"]),
    )
    problems = validate_std(std)
    if problems:
        raise ValueError("invalid machine: " + "; ".join(problems))
    return std
