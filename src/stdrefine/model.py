"""Core model for state transition diagrams (STDs) over finite data domains.

An ``Std`` couples a message signature (input and output constructors) with a
set of control states, typed attributes, and guarded transitions.  A machine
configuration is a control state plus a total attribute valuation; transitions
relate configurations via a guard over the pre-state, a trigger (an input
constructor binding fresh parameters, or the internal trigger ``eps``), a
sequence of output expressions, and a relational postcondition over primed
and unprimed attributes.

Everything here is finite and enumerable by construction: integer sorts carry
explicit bounds, list sorts carry a maximum length, and enumeration sorts
refer to named finite domains.  That keeps guard disjointness, postcondition
satisfiability, and successor enumeration decidable by brute force.

Expression values are strict.  Applying a partial environment function
outside its table yields the special `Undefined` marker, which propagates
through every operator except ``defined(...)``: `eval_expr` evaluates both
operands of ``&&`` and ``||``, so ``!(false && u)`` and ``true || u`` are
Undefined when u is.  Whether an expression *holds* (evaluates to True; an
Undefined guard is simply not satisfied) is decided by `guard_holds`, conjunct
by conjunct along its top-level ``&&`` chain, stopping at the first conjunct
that is not True.  Strictness makes that exact: such a chain is True iff
every conjunct is.

A bare identifier means, in this order of precedence, a trigger parameter, an
attribute, an enumeration member or a nullary environment symbol.  The parser
emits it as a `Name`, and `resolve_names` (for a whole transition,
`resolve_transition`, which also decides which output terms are constructors),
over the `name_scope` of the machine it belongs to, gives it one of them.
"""

from __future__ import annotations

import itertools
import operator
from operator import is_, itemgetter
from types import MappingProxyType
from typing import Callable, Collection, Iterable, NamedTuple, Optional, TypeVar, Union

try:
    # CPython's C field getter, which `collections.namedtuple` uses: a field
    # read through it takes about 0.6 of the time `property(itemgetter(i))` does.
    from _collections import _tuplegetter
except ImportError:
    def _tuplegetter(index: int, doc: Optional[str]):
        return property(itemgetter(index), doc=doc)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class Record(tuple):
    """An immutable value: the tuple of its class, then the fields the class
    annotates (`_fields`), in order, each read by name.  A field is given by
    position or by keyword; one the class body assigns a value defaults to
    that value.  Holding its class makes a record equal only to a record of
    the same class with equal fields, and hash by both, with tuple's own C
    methods.  A class's `__post_init__`, when it has one, checks each new
    record.  Assigning an attribute raises AttributeError.

    These methods are ordinary source: declaring a record class generates no
    code.  Of construction, hashing, comparison and field reads, only
    construction runs Python, one call of `__new__`."""

    _fields: tuple[str, ...] = ()
    _arity = 0  # len(_fields), which `__new__` reads faster this way
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._arity = len(cls._fields)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, _tuplegetter(i, None))
        if "__post_init__" in cls.__dict__:
            cls.__init__ = _post_init

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != cls._arity:
            args = cls._complete(args, kwargs)
        return _new_tuple(cls, (cls,) + args)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        if len(args) > cls._arity:
            raise TypeError(f"{cls.__name__} takes {cls._arity} fields, not {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected field(s) {', '.join(kwargs)}")
        return tuple(values)

    def __repr__(self) -> str:
        items = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self[1:]))
        return f"{self.__class__.__qualname__}({items})"

    def __getnewargs__(self) -> tuple:
        return self[1:]  # the fields, which copy and pickle pass to `__new__`

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


_new_tuple = tuple.__new__


def _post_init(self: Record, *args, **kwargs) -> None:
    self.__post_init__()


RecordT = TypeVar("RecordT", bound=Record)


def replace(record: RecordT, /, **changes) -> RecordT:
    """`record` with the named fields changed, built by its constructor."""
    values = [changes.pop(n, v) for n, v in zip(record._fields, record[1:])]
    if changes:
        raise TypeError(f"{record.__class__.__name__} has no field(s) {', '.join(changes)}")
    return record.__class__(*values)


class UndefinedType:
    """Singleton marker for the result of a partial function outside its table."""

    _instance: Optional["UndefinedType"] = None

    def __new__(cls) -> "UndefinedType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undefined"


Undefined = UndefinedType()

#: A ground value: bool, int, enum member (str), or a tuple for list values.
Value = Union[bool, int, str, tuple]


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


class BoolSort(Record):
    def __str__(self) -> str:
        return "Bool"


class IntSort(Record):
    lo: int
    hi: int

    def __str__(self) -> str:
        return f"Int {self.lo}..{self.hi}"


class EnumSort(Record):
    domain: str

    def __str__(self) -> str:
        return self.domain


class ListSort(Record):
    elem: "Sort"
    max_len: int

    def __str__(self) -> str:
        return f"[{self.elem}]^{self.max_len}"


Sort = Union[BoolSort, IntSort, EnumSort, ListSort]


def enumerate_sort(sort: Sort, domains: dict[str, tuple[str, ...]]) -> list[Value]:
    """All values of `sort`, in a fixed deterministic order."""
    if isinstance(sort, BoolSort):
        return [False, True]
    if isinstance(sort, IntSort):
        return list(range(sort.lo, sort.hi + 1))
    if isinstance(sort, EnumSort):
        if sort.domain not in domains:
            raise KeyError(f"unknown domain {sort.domain!r}")
        return list(domains[sort.domain])
    if isinstance(sort, ListSort):
        elems = enumerate_sort(sort.elem, domains)
        out: list[Value] = []
        for n in range(sort.max_len + 1):
            out.extend(tuple(p) for p in itertools.product(elems, repeat=n))
        return out
    raise TypeError(f"not a sort: {sort!r}")


def value_in_sort(value: Value, sort: Sort, domains: dict[str, tuple[str, ...]]) -> bool:
    if isinstance(sort, BoolSort):
        return isinstance(value, bool)
    if isinstance(sort, IntSort):
        return isinstance(value, int) and not isinstance(value, bool) and sort.lo <= value <= sort.hi
    if isinstance(sort, EnumSort):
        return isinstance(value, str) and value in domains.get(sort.domain, ())
    if isinstance(sort, ListSort):
        return (
            isinstance(value, tuple)
            and len(value) <= sort.max_len
            and all(value_in_sort(v, sort.elem, domains) for v in value)
        )
    return False


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Lit(Record):
    """Boolean or integer literal."""

    value: Value


class EnumLit(Record):
    """A member of a named finite domain."""

    value: str
    domain: str


class AttrRef(Record):
    name: str


class PrimedRef(Record):
    """Post-state attribute reference; only legal inside postconditions."""

    name: str


class ParamRef(Record):
    """Reference to a trigger-bound parameter."""

    name: str


class SymApp(Record):
    """Application of a declared environment function or predicate."""

    name: str
    args: tuple["Expr", ...]


class Defined(Record):
    """defined(e): true iff e does not evaluate to Undefined.  Never Undefined itself."""

    arg: "Expr"


class Not(Record):
    arg: "Expr"


class Neg(Record):
    arg: "Expr"


class BinOp(Record):
    op: str  # and or eq ne lt le gt ge add sub mul
    left: "Expr"
    right: "Expr"


class ListLit(Record):
    items: tuple["Expr", ...]


class Cons(Record):
    head: "Expr"
    tail: "Expr"


class Head(Record):
    arg: "Expr"


class Tail(Record):
    arg: "Expr"


class Len(Record):
    arg: "Expr"


class ElseGuard(Record):
    """Surface-only guard: the negation of every other guard in the transition's
    (source, trigger) group.  Eliminated by `desugar`."""


class Name(Record):
    """A bare identifier as the parser reads it, before `resolve_names` makes
    it a parameter, attribute, enum member or nullary environment symbol.
    Evaluation and validation reject it."""

    name: str


Expr = Union[
    Lit, EnumLit, AttrRef, PrimedRef, ParamRef, SymApp, Defined, Not, Neg,
    BinOp, ListLit, Cons, Head, Tail, Len, ElseGuard, Name,
]

TRUE = Lit(True)


def conj(*parts: Expr) -> Expr:
    """Conjunction of the given expressions, flattening trivial cases."""
    items = [p for p in parts if p != TRUE]
    if not items:
        return TRUE
    acc = items[0]
    for p in items[1:]:
        acc = BinOp("and", acc, p)
    return acc


#: The sub-expression fields of each composite node, in source order; every
#: other node is a leaf.  A field holds one node, or a plain tuple of nodes
#: (`SymApp.args`, `ListLit.items`): a node is a `Record`, never a plain tuple.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    BinOp: ("left", "right"),
    Cons: ("head", "tail"),
    SymApp: ("args",),
    ListLit: ("items",),
    **dict.fromkeys((Not, Neg, Defined, Head, Tail, Len), ("arg",)),
}


def reads(*exprs: Expr) -> tuple[set[str], set[str], int]:
    """The names of the attributes `exprs` read unprimed and of the trigger
    parameters they read, and the number of primed references in them."""
    attrs: set[str] = set()
    params: set[str] = set()
    primed = 0
    todo = list(exprs)
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is AttrRef:
            attrs.add(e.name)
        elif kind is ParamRef:
            params.add(e.name)
        elif kind is PrimedRef:
            primed += 1
        elif kind in CHILD_FIELDS:
            for name in CHILD_FIELDS[kind]:
                sub = getattr(e, name)
                if type(sub) is tuple:
                    todo += sub
                else:
                    todo.append(sub)
    return attrs, params, primed


def map_children(expr: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """`expr` rebuilt with `f` applied to each direct sub-expression, in
    source order; `expr` itself when `f` returns each of them unchanged
    (`is`), a leaf included."""
    changes = {}
    for name in CHILD_FIELDS.get(type(expr), ()):
        old = getattr(expr, name)
        if type(old) is tuple:
            new = tuple(map(f, old))
            if not all(map(is_, new, old)):
                changes[name] = new
        else:
            new = f(old)
            if new is not old:
                changes[name] = new
    return replace(expr, **changes) if changes else expr


class Scope(NamedTuple):
    """What a name can mean in one machine, trigger parameters aside: its
    attributes, its enumeration members (with their domains), its environment
    symbols, and the names of its input and output constructors."""

    attrs: frozenset[str]
    members: dict[str, str]
    symbols: frozenset[str]
    inputs: frozenset[str]
    outputs: frozenset[str]


def name_scope(std: Std) -> Scope:
    return Scope(
        frozenset(n for n, _ in std.attributes),
        {m: d for d, ms in std.domains for m in ms},
        frozenset(n for n, _ in std.uses),
        frozenset(c.name for c in std.signature.inputs),
        frozenset(c.name for c in std.signature.outputs if c.name is not None),
    )


class UnknownName(ValueError):
    """A name with no meaning in a `Scope`.  `node` holds it: an expression,
    or the transition whose trigger it is."""

    def __init__(self, message: str, node) -> None:
        super().__init__(message)
        self.node = node


def resolve_names(expr: Expr, scope: Scope, params: frozenset | set) -> Expr:
    """Replace every `Name` by its meaning: parameters shadow attributes,
    which shadow enum members, which shadow nullary environment symbols.
    Raises UnknownName at the first node, in source order, that names nothing:
    a `Name` none of them covers, a call of an undeclared symbol or a primed
    reference to a non-attribute."""

    def resolve(e: Expr) -> Expr:
        kind = type(e)
        if kind is Name:
            n = e.name
            if n in params:
                return ParamRef(n)
            if n in scope.attrs:
                return AttrRef(n)
            if n in scope.members:
                return EnumLit(n, scope.members[n])
            if n in scope.symbols:
                return SymApp(n, ())
            raise UnknownName(f"unknown identifier {n!r}", e)
        if kind is SymApp and e.name not in scope.symbols:
            raise UnknownName(f"unknown environment symbol {e.name!r}", e)
        if kind is PrimedRef and e.name not in scope.attrs:
            raise UnknownName(f"unknown attribute {e.name!r} (primed references name attributes)", e)
        return map_children(e, resolve)

    try:
        return resolve(expr)
    finally:
        del resolve  # a self-referencing closure: free it without the cycle collector


def resolve_transition(t: Transition, scope: Scope) -> Transition:
    """`t` with its trigger checked, then its guard (unless it is `else`),
    outputs and postcondition resolved, in source order.  An output term that
    is a `Name` or a call naming an output constructor is that constructor,
    whatever else the name means.  An unknown trigger's UnknownName holds `t`."""
    if t.trigger is not None and t.trigger not in scope.inputs:
        raise UnknownName(f"unknown input message {t.trigger!r}", t)
    params = frozenset(t.params)
    guard = t.guard if type(t.guard) is ElseGuard else resolve_names(t.guard, scope, params)
    outputs = []
    for cname, args in t.outputs:
        if cname is None and len(args) == 1 and type(args[0]) in (Name, SymApp):
            if args[0].name in scope.outputs:
                cname, args = args[0].name, getattr(args[0], "args", ())
        outputs.append((cname, tuple(resolve_names(a, scope, params) for a in args)))
    post = resolve_names(t.post, scope, params)
    return replace(t, guard=guard, outputs=tuple(outputs), post=post)


# ---------------------------------------------------------------------------
# Signature, messages, transitions, Std
# ---------------------------------------------------------------------------


class MsgCtor(Record):
    """One alternative of a message set.

    `name` is None for a bare value alternative (the message is the carried
    value itself, e.g. an output alphabet that is just a bounded integer);
    in that case `params` holds exactly the one value sort.
    """

    name: Optional[str]
    params: tuple[Sort, ...] = ()

    def __str__(self) -> str:
        if self.name is None:
            return str(self.params[0])
        if not self.params:
            return self.name
        return f"{self.name}({', '.join(map(str, self.params))})"


class Signature(Record):
    inputs: tuple[MsgCtor, ...]
    outputs: tuple[MsgCtor, ...]


class Msg(Record):
    """A ground message instance: constructor name (None for a bare value) and
    its argument values."""

    ctor: Optional[str]
    args: tuple[Value, ...] = ()

    def __str__(self) -> str:
        if self.ctor is None:
            return format_value(self.args[0])
        if not self.args:
            return self.ctor
        return f"{self.ctor}({', '.join(format_value(a) for a in self.args)})"


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    return str(v)


def _value_key(v: Value):
    if isinstance(v, bool):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    return (3, tuple(_value_key(x) for x in v))


def msg_key(m: Msg):
    """Deterministic sort key for message instances."""
    return (m.ctor or "", tuple(_value_key(a) for a in m.args))


def message_instances(ctors: Iterable[MsgCtor], domains: dict[str, tuple[str, ...]]) -> list[Msg]:
    """Every ground message over the given constructors, deterministically ordered."""
    out: list[Msg] = []
    for c in ctors:
        pools = [enumerate_sort(s, domains) for s in c.params]
        for combo in itertools.product(*pools):
            out.append(Msg(c.name, tuple(combo)))
    out.sort(key=msg_key)
    return out


class Transition(Record):
    """A guarded transition.  `trigger` is an input constructor name, or None
    for the internal trigger eps (in which case `params` must be empty).
    `outputs` items are (output-constructor-name-or-None, argument exprs).
    """

    label: Optional[str]
    source: str
    target: str
    trigger: Optional[str]
    params: tuple[str, ...]
    guard: Expr
    outputs: tuple[tuple[Optional[str], tuple[Expr, ...]], ...]
    post: Expr
    priority: Optional[int] = None

    @property
    def is_internal(self) -> bool:
        return self.trigger is None


class EnvSymDecl(Record):
    """Declared environment symbol: parameter sorts, result sort, totality."""

    params: tuple[Sort, ...]
    result: Sort
    total: bool


class Std(Record):
    """A state transition diagram over finite domains."""

    name: str
    domains: tuple[tuple[str, tuple[str, ...]], ...]
    uses: tuple[tuple[str, EnvSymDecl], ...]
    signature: Signature
    attributes: tuple[tuple[str, Sort], ...]
    states: tuple[str, ...]
    initial: tuple[tuple[str, Expr], ...]
    transitions: tuple[Transition, ...]

    def domain_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.domains)

    def uses_map(self) -> dict[str, EnvSymDecl]:
        return dict(self.uses)

    def attr_map(self) -> dict[str, Sort]:
        return dict(self.attributes)

    def transition(self, label: str) -> Optional[Transition]:
        for t in self.transitions:
            if t.label == label:
                return t
        return None


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class Environment(Record):
    """Interpretation context: named domains plus function/predicate tables.

    `tables` maps a symbol name to rows (argument tuple -> value).  `defaults`
    maps a symbol name to a fill value used, at binding time, for every entry
    the explicit rows leave open (only sensible for total symbols).
    """

    domains: tuple[tuple[str, tuple[str, ...]], ...] = ()
    tables: tuple[tuple[str, tuple[tuple[tuple[Value, ...], Value], ...]], ...] = ()
    defaults: tuple[tuple[str, Value], ...] = ()

    def domain_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.domains)

    def table_map(self) -> dict[str, dict[tuple[Value, ...], Value]]:
        return {name: dict(rows) for name, rows in self.tables}

    def default_map(self) -> dict[str, Value]:
        return dict(self.defaults)


EMPTY_ENV = Environment()


def make_environment(
    domains: dict[str, tuple[str, ...]] | None = None,
    tables: dict[str, dict[tuple[Value, ...], Value]] | None = None,
    defaults: dict[str, Value] | None = None,
) -> Environment:
    """Convenience constructor from plain dicts."""
    return Environment(
        domains=tuple(sorted((k, tuple(v)) for k, v in (domains or {}).items())),
        tables=tuple(
            sorted(
                (name, tuple(sorted(rows.items(), key=lambda kv: tuple(_value_key(a) for a in kv[0]))))
                for name, rows in (tables or {}).items()
            )
        ),
        defaults=tuple(sorted((defaults or {}).items())),
    )


def bind_environment(std: Std, env: Environment) -> tuple[dict[str, dict[tuple[Value, ...], Value]], list[str]]:
    """Resolve `env` against the symbols `std` declares.

    Returns (tables, problems).  Defaults are expanded, totality of total
    symbols is enforced, arities and sorts are checked.  `problems` is empty
    iff the environment fully fits the declarations.  Tables for symbols the
    diagram does not declare are ignored: an environment may serve several
    diagrams.
    """
    problems: list[str] = []
    std_domains = std.domain_map()
    env_domains = env.domain_map()
    for dname, members in std_domains.items():
        if dname in env_domains and tuple(env_domains[dname]) != tuple(members):
            problems.append(
                f"domain {dname} disagrees between the diagram ({', '.join(members)}) "
                f"and the environment ({', '.join(env_domains[dname])})"
            )
    merged_domains = dict(std_domains)
    for dname, members in env_domains.items():
        merged_domains.setdefault(dname, members)

    raw_tables = env.table_map()
    defaults = env.default_map()
    bound: dict[str, dict[tuple[Value, ...], Value]] = {}
    decls = std.uses_map()
    for name, decl in decls.items():
        rows = dict(raw_tables.get(name, {}))
        pools = [enumerate_sort(s, merged_domains) for s in decl.params]
        all_args = [tuple(c) for c in itertools.product(*pools)]
        for args, val in rows.items():
            if len(args) != len(decl.params):
                problems.append(f"{name}: row arity {len(args)} does not match declared arity {len(decl.params)}")
                continue
            for a, s in zip(args, decl.params):
                if not value_in_sort(a, s, merged_domains):
                    problems.append(f"{name}{args!r}: argument {format_value(a)} is not of sort {s}")
            if not value_in_sort(val, decl.result, merged_domains):
                problems.append(f"{name}{args!r}: value {format_value(val)} is not of sort {decl.result}")
        if name in defaults:
            fill = defaults[name]
            if not value_in_sort(fill, decl.result, merged_domains):
                problems.append(f"{name}: default value {format_value(fill)} is not of sort {decl.result}")
            else:
                for args in all_args:
                    rows.setdefault(args, fill)
        if decl.total:
            missing = [a for a in all_args if a not in rows]
            if missing:
                problems.append(
                    f"{name} is declared total but has no entry for "
                    f"({', '.join(format_value(v) for v in missing[0])})"
                    + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
                )
        bound[name] = rows
    return bound, sorted(problems)


# ---------------------------------------------------------------------------
# Configurations and valuations
# ---------------------------------------------------------------------------


class Configuration(Record):
    """Control state plus a total attribute valuation (sorted name/value pairs)."""

    control: str
    valuation: tuple[tuple[str, Value], ...]

    def value_map(self) -> dict[str, Value]:
        return dict(self.valuation)

    def __str__(self) -> str:
        if not self.valuation:
            return self.control
        vals = ", ".join(f"{k}={format_value(v)}" for k, v in self.valuation)
        return f"{self.control}[{vals}]"


def config_key(c: Configuration):
    """Deterministic sort key for configurations: control state, then values."""
    return (c.control, tuple(_value_key(v) for _, v in c.valuation))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


#: What each `BinOp.op` computes from its operands' values; on well-sorted
#: operands, ``and`` and ``or`` see two Bools.
OPERATORS: dict[str, Callable[[Value, Value], Value]] = {
    "and": operator.and_, "or": operator.or_,
    "eq": operator.eq, "ne": operator.ne,
    "lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge,
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
}


def eval_expr(
    expr: Expr,
    valuation: dict[str, Value],
    tables: dict[str, dict[tuple[Value, ...], Value]],
    primed: dict[str, Value] | None = None,
    params: dict[str, Value] | None = None,
):
    """Strict evaluation.  Returns a Value or Undefined; never raises on a
    well-sorted expression.  Undefined propagates through every operator
    except ``defined``; see the module docstring.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, EnumLit):
        return expr.value
    if isinstance(expr, AttrRef):
        return valuation[expr.name]
    if isinstance(expr, ParamRef):
        if params is None or expr.name not in params:
            raise ValueError(f"unbound parameter {expr.name!r}")
        return params[expr.name]
    if isinstance(expr, Name):
        raise ValueError(f"unresolved identifier {expr.name!r} (resolve_names was not applied)")
    if isinstance(expr, PrimedRef):
        if primed is None:
            raise ValueError(f"primed reference {expr.name}' outside a postcondition")
        return primed[expr.name]
    if isinstance(expr, Defined):
        v = eval_expr(expr.arg, valuation, tables, primed, params)
        return v is not Undefined
    if isinstance(expr, SymApp):
        args = []
        for a in expr.args:
            v = eval_expr(a, valuation, tables, primed, params)
            if v is Undefined:
                return Undefined
            args.append(v)
        return tables.get(expr.name, {}).get(tuple(args), Undefined)
    if isinstance(expr, Not):
        v = eval_expr(expr.arg, valuation, tables, primed, params)
        return Undefined if v is Undefined else not v
    if isinstance(expr, Neg):
        v = eval_expr(expr.arg, valuation, tables, primed, params)
        return Undefined if v is Undefined else -v
    if isinstance(expr, BinOp):
        l = eval_expr(expr.left, valuation, tables, primed, params)
        if l is Undefined:
            return Undefined
        r = eval_expr(expr.right, valuation, tables, primed, params)
        if r is Undefined:
            return Undefined
        compute = OPERATORS.get(expr.op)
        if compute is None:
            raise ValueError(f"unknown operator {expr.op!r}")
        return compute(l, r)
    if isinstance(expr, ListLit):
        items = []
        for it in expr.items:
            v = eval_expr(it, valuation, tables, primed, params)
            if v is Undefined:
                return Undefined
            items.append(v)
        return tuple(items)
    if isinstance(expr, Cons):
        h = eval_expr(expr.head, valuation, tables, primed, params)
        if h is Undefined:
            return Undefined
        t = eval_expr(expr.tail, valuation, tables, primed, params)
        if t is Undefined:
            return Undefined
        return (h,) + t
    if isinstance(expr, Head):
        v = eval_expr(expr.arg, valuation, tables, primed, params)
        if v is Undefined or len(v) == 0:
            return Undefined
        return v[0]
    if isinstance(expr, Tail):
        v = eval_expr(expr.arg, valuation, tables, primed, params)
        if v is Undefined or len(v) == 0:
            return Undefined
        return v[1:]
    if isinstance(expr, Len):
        v = eval_expr(expr.arg, valuation, tables, primed, params)
        return Undefined if v is Undefined else len(v)
    if isinstance(expr, ElseGuard):
        raise ValueError("'else' guard must be desugared before evaluation")
    raise TypeError(f"not an expression: {expr!r}")


def guard_holds(
    expr: Expr,
    valuation: dict[str, Value],
    tables: dict[str, dict[tuple[Value, ...], Value]],
    params: dict[str, Value] | None = None,
    primed: dict[str, Value] | None = None,
) -> bool:
    """Whether `expr` (a guard, an initialization predicate, or with `primed`
    a postcondition) evaluates to True; Undefined does not hold.

    The top-level ``and`` chain is followed left to right, and the answer is
    False at the first conjunct that does not evaluate to True, without
    evaluating the rest.  This is exact because `eval_expr` is strict: the
    chain is True iff every conjunct is True, and a False or Undefined
    conjunct makes it not True whatever the others are.  Nothing below the
    chain is split: ``!(a && b)`` and ``a || b`` are evaluated whole, since
    their value depends on every operand (``true || u`` is Undefined when u
    is)."""
    todo = [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, BinOp) and e.op == "and":
            todo += (e.right, e.left)
        elif eval_expr(e, valuation, tables, primed, params) is not True:
            return False
    return True


# ---------------------------------------------------------------------------
# Sort checking
# ---------------------------------------------------------------------------

# Sorts the checker makes up, compared only with `_compatible`: an integer
# result (its bounds mean nothing) and the sort of `[]`, a list of nothing yet.
_BOOL = BoolSort()
_INT = IntSort(0, 0)
_EMPTY_LIST = ListSort(None, 0)


def _compatible(a: Sort, b: Sort) -> bool:
    """Whether values of sorts `a` and `b` may meet, integer bounds and list
    lengths aside; `[]` meets every list."""
    if type(a) is not type(b):
        return False
    if type(a) is ListSort:
        return a.elem is None or b.elem is None or _compatible(a.elem, b.elem)
    return type(a) is not EnumSort or a.domain == b.domain


class SortContext(Record):
    """Name resolution context for checking one expression: the sorts of the
    attributes and of the trigger parameters, the environment symbols'
    declarations, the domains, and whether primed references are allowed.
    The maps are shared, never copied, by the contexts of one validation."""

    attrs: dict[str, Sort]
    decls: dict[str, EnvSymDecl]
    domains: dict[str, tuple[str, ...]]
    params: dict[str, Sort] = MappingProxyType({})
    allow_primed: bool = False


def infer_kind(expr: Expr, ctx: SortContext, errors: list[str], where: str) -> Sort | None:
    """The sort of `expr`, or None where it has none, appending diagnostics to
    `errors`.  The sorts it makes up for literals and operators are only
    good for `_compatible`; diagnostics name declared sorts only."""

    def err(msg: str) -> None:
        errors.append(f"{where}: {msg}")

    if isinstance(expr, BinOp):
        lk = infer_kind(expr.left, ctx, errors, where)
        rk = infer_kind(expr.right, ctx, errors, where)
        if expr.op in ("and", "or"):
            for k, side in ((lk, "left"), (rk, "right")):
                if k is not None and type(k) is not BoolSort:
                    err(f"{side} operand of '{expr.op}' must be Bool")
            return _BOOL
        if expr.op in ("eq", "ne"):
            if lk is not None and rk is not None and not _compatible(lk, rk):
                err("'==' compares values of the same sort")
            return _BOOL
        if expr.op in ("lt", "le", "gt", "ge", "add", "sub", "mul"):
            compares = expr.op in ("lt", "le", "gt", "ge")
            for k in (lk, rk):
                if k is not None and type(k) is not IntSort:
                    err(f"'{expr.op}' compares Int values" if compares else "arithmetic applies to Int")
            return _BOOL if compares else _INT
        err(f"unknown operator {expr.op!r}")
        return None
    if isinstance(expr, Lit):
        v = expr.value
        if type(v) is bool:
            return _BOOL
        if type(v) is int and v >= 0:
            return _INT
        err(f"literal {v!r} is not true, false or a natural number")
        return None
    if isinstance(expr, Name):
        err(f"unresolved identifier {expr.name!r}")
        return None
    if isinstance(expr, EnumLit):
        members = ctx.domains.get(expr.domain)
        if members is None:
            err(f"unknown domain {expr.domain!r}")
            return None
        if expr.value not in members:
            err(f"{expr.value!r} is not a member of domain {expr.domain}")
        return EnumSort(expr.domain)
    if isinstance(expr, (AttrRef, PrimedRef)):
        if isinstance(expr, PrimedRef) and not ctx.allow_primed:
            err(f"primed reference {expr.name}' is only allowed in postconditions")
        if expr.name not in ctx.attrs:
            err(f"unknown attribute {expr.name!r}")
            return None
        return ctx.attrs[expr.name]
    if isinstance(expr, ParamRef):
        if expr.name not in ctx.params:
            err(f"unknown parameter {expr.name!r}")
            return None
        return ctx.params[expr.name]
    if isinstance(expr, SymApp):
        decl = ctx.decls.get(expr.name)
        if decl is None:
            err(f"unknown environment symbol {expr.name!r}")
        elif len(expr.args) != len(decl.params):
            err(f"{expr.name} expects {len(decl.params)} argument(s), got {len(expr.args)}")
        expected = decl.params if decl is not None else ()
        for i, a in enumerate(expr.args):
            k = infer_kind(a, ctx, errors, where)
            if k is not None and i < len(expected) and not _compatible(k, expected[i]):
                err(f"argument of {expr.name} has the wrong sort (expected {expected[i]})")
        return None if decl is None else decl.result
    if isinstance(expr, Defined):
        infer_kind(expr.arg, ctx, errors, where)
        return _BOOL
    if isinstance(expr, Not):
        k = infer_kind(expr.arg, ctx, errors, where)
        if k is not None and type(k) is not BoolSort:
            err("'!' applies to Bool")
        return _BOOL
    if isinstance(expr, Neg):
        k = infer_kind(expr.arg, ctx, errors, where)
        if k is not None and type(k) is not IntSort:
            err("unary '-' applies to Int")
        return _INT
    if isinstance(expr, ListLit):
        sorts = [infer_kind(it, ctx, errors, where) for it in expr.items]
        base = next((k for k in sorts if k is not None and k != _EMPTY_LIST), None)
        if base is None:
            return _EMPTY_LIST
        for k in sorts:
            if k is not None and not _compatible(k, base):
                err("list elements must share one sort")
        return ListSort(base, len(sorts))
    if isinstance(expr, Cons):
        hk = infer_kind(expr.head, ctx, errors, where)
        tk = infer_kind(expr.tail, ctx, errors, where)
        if tk is not None and type(tk) is not ListSort:
            err("second argument of cons must be a list")
            return None
        sort = tk if hk is None else ListSort(hk, 0)
        if tk is not None and not _compatible(sort, tk):
            err("cons head must match the list element sort")
        return sort
    if isinstance(expr, (Head, Tail, Len)):
        k = infer_kind(expr.arg, ctx, errors, where)
        listed = type(k) is ListSort
        if k is not None and not listed:
            err(f"{type(expr).__name__.lower()} applies to a list")
        if isinstance(expr, Len):
            return _INT
        return (k.elem if isinstance(expr, Head) else k) if listed else None
    if isinstance(expr, ElseGuard):
        err("'else' may only appear as the entire guard of a transition")
        return _BOOL
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_sort_wf(sort: Sort, domains: dict[str, tuple[str, ...]], errors: list[str], where: str) -> None:
    if isinstance(sort, IntSort):
        if sort.lo > sort.hi:
            errors.append(f"{where}: empty integer range {sort.lo}..{sort.hi}")
    elif isinstance(sort, EnumSort):
        if sort.domain not in domains:
            errors.append(f"{where}: unknown domain {sort.domain!r}")
    elif isinstance(sort, ListSort):
        if sort.max_len < 0:
            errors.append(f"{where}: negative list bound")
        _check_sort_wf(sort.elem, domains, errors, where)


def validate_std(std: Std, *, checked: Collection[Transition] = ()) -> list[str]:
    """Structural and sort validation.  Returns a deterministic list of
    diagnostics; the Std is valid iff the list is empty.  A transition's
    sort diagnostics depend only on it and the declarations, so of one in
    `checked` (a transition of a clean diagram with these declarations)
    only the structure is checked."""
    errors: list[str] = []
    domains = std.domain_map()

    seen_members: dict[str, str] = {}
    seen_domains: set[str] = set()
    for dname, members in std.domains:
        if dname in seen_domains:
            errors.append(f"domain {dname}: declared twice")
        seen_domains.add(dname)
        if not members:
            errors.append(f"domain {dname}: empty domain")
        for m in members:
            if m in seen_members:
                errors.append(f"domain {dname}: member {m!r} already belongs to domain {seen_members[m]}")
            seen_members[m] = dname

    seen_syms: set[str] = set()
    for sym, decl in std.uses:
        if sym in seen_syms:
            errors.append(f"environment symbol {sym}: declared twice")
        seen_syms.add(sym)
        for s in (*decl.params, decl.result):
            _check_sort_wf(s, domains, errors, f"environment symbol {sym}")

    if not std.signature.inputs:
        errors.append("signature: input message set is empty")
    if not std.signature.outputs:
        errors.append("signature: output message set is empty")
    for side, ctors in (("input", std.signature.inputs), ("output", std.signature.outputs)):
        names = [c.name for c in ctors if c.name is not None]
        for n in sorted(set(names)):
            if names.count(n) > 1:
                errors.append(f"signature: duplicate {side} constructor {n!r}")
        bare = [c for c in ctors if c.name is None]
        if side == "input" and bare:
            errors.append("signature: input alternatives must be named constructors")
        if len(bare) > 1:
            errors.append(f"signature: at most one bare value alternative is allowed per {side} set")
        for c in bare:
            if len(c.params) != 1:
                errors.append(f"signature: a bare {side} value alternative carries exactly one sort")
        for c in ctors:
            for s in c.params:
                _check_sort_wf(s, domains, errors, f"signature: {side} {c.name or 'value'}")

    attr_names = set()
    for aname, sort in std.attributes:
        if aname in attr_names:
            errors.append(f"attribute {aname}: duplicate attribute name")
        attr_names.add(aname)
        _check_sort_wf(sort, domains, errors, f"attribute {aname}")

    if not std.states:
        errors.append("states: control state set is empty")
    state_set = set()
    for s in std.states:
        if s in state_set:
            errors.append(f"state {s}: duplicate control state")
        state_set.add(s)

    attrs = std.attr_map()
    decls = std.uses_map()
    init_ctx = SortContext(attrs, decls, domains)
    if not std.initial:
        errors.append("initial: no initial control state")
    marked = set()
    for s, pred in std.initial:
        if s in marked:
            errors.append(f"initial {s}: state marked initial twice")
        marked.add(s)
        if s not in state_set:
            errors.append(f"initial {s}: unknown control state")
        k = infer_kind(pred, init_ctx, errors, f"initial {s}")
        if k is not None and type(k) is not BoolSort:
            errors.append(f"initial {s}: initialization predicate must be Bool")

    # The first constructor of each name, as duplicates are reported above.
    inputs = {c.name: c for c in reversed(std.signature.inputs)}
    outputs = {c.name: c for c in reversed(std.signature.outputs)}
    labels = set()
    group_else: dict[tuple[str, Optional[str]], int] = {}
    for i, t in enumerate(std.transitions):
        where = f"transition {t.label or '#' + str(i)}"
        if t.label is not None:
            if t.label in labels:
                errors.append(f"{where}: duplicate label")
            labels.add(t.label)
        if t.source not in state_set:
            errors.append(f"{where}: unknown source state {t.source!r}")
        if t.target not in state_set:
            errors.append(f"{where}: unknown target state {t.target!r}")
        if isinstance(t.guard, ElseGuard):
            key = (t.source, t.trigger)
            group_else[key] = group_else.get(key, 0) + 1
        if t in checked:
            continue

        params: dict[str, Sort] = {}
        if t.trigger is None:
            if t.params:
                errors.append(f"{where}: the internal trigger binds no parameters")
        else:
            ctor = inputs.get(t.trigger)
            if ctor is None:
                errors.append(f"{where}: unknown input constructor {t.trigger!r}")
            else:
                if len(t.params) != len(ctor.params):
                    errors.append(
                        f"{where}: trigger {t.trigger} binds {len(ctor.params)} parameter(s), got {len(t.params)}"
                    )
                for p, s in zip(t.params, ctor.params):
                    params[p] = s
            if len(set(t.params)) != len(t.params):
                errors.append(f"{where}: trigger parameters must be distinct")
            for p in t.params:
                if p in attr_names:
                    errors.append(f"{where}: parameter {p!r} shadows an attribute")

        ctx = SortContext(attrs, decls, domains, params)
        if not isinstance(t.guard, ElseGuard):
            k = infer_kind(t.guard, ctx, errors, f"{where} guard")
            if k is not None and type(k) is not BoolSort:
                errors.append(f"{where}: guard must be Bool")

        for j, (oname, oargs) in enumerate(t.outputs):
            octor = outputs.get(oname)
            owhere = f"{where} output {j}"
            if octor is None:
                label = oname if oname is not None else "a bare value"
                errors.append(f"{owhere}: no output constructor for {label}")
                continue
            if len(oargs) != len(octor.params):
                errors.append(f"{owhere}: {oname or 'value'} expects {len(octor.params)} argument(s)")
            for a, s in itertools.zip_longest(oargs, octor.params[: len(oargs)]):
                k = infer_kind(a, ctx, errors, owhere)
                if k is not None and s is not None and not _compatible(k, s):
                    errors.append(f"{owhere}: argument has the wrong sort (expected {s})")

        pctx = SortContext(attrs, decls, domains, params, allow_primed=True)
        k = infer_kind(t.post, pctx, errors, f"{where} post")
        if k is not None and type(k) is not BoolSort:
            errors.append(f"{where}: postcondition must be Bool")

    for (src, trig), n in sorted(group_else.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
        if n > 1:
            errors.append(
                f"group ({src}, {trig or 'eps'}): {n} 'else' guards in one group (at most one is allowed)"
            )

    return errors


# ---------------------------------------------------------------------------
# Desugaring: else guards and priorities
# ---------------------------------------------------------------------------


def desugar(std: Std) -> Std:
    """Eliminate `else` guards and `@N` priorities.

    Within each (source, trigger) group, an `else` guard becomes the
    conjunction of the negations of every other written guard in the group,
    and each prioritized transition's guard is conjoined with the negations
    of all strictly higher-priority guards (smaller `@N` wins) in its group.
    Idempotent: a diagram without the two notations is returned unchanged.
    """
    needs_work = any(
        t.priority is not None or isinstance(t.guard, ElseGuard) for t in std.transitions
    )
    if not needs_work:
        return std

    groups: dict[tuple[str, Optional[str]], list[int]] = {}
    for i, t in enumerate(std.transitions):
        groups.setdefault((t.source, t.trigger), []).append(i)

    new_transitions = list(std.transitions)
    for key, idxs in groups.items():
        else_idxs = [i for i in idxs if isinstance(std.transitions[i].guard, ElseGuard)]
        if len(else_idxs) > 1:
            raise ValueError(
                f"group ({key[0]}, {key[1] or 'eps'}) has {len(else_idxs)} 'else' guards; at most one is allowed"
            )
        originals = {i: std.transitions[i].guard for i in idxs}
        for i in idxs:
            t = std.transitions[i]
            guard = originals[i]
            if isinstance(guard, ElseGuard):
                others = [originals[j] for j in idxs if j != i and not isinstance(originals[j], ElseGuard)]
                guard = conj(*[Not(g) for g in others]) if others else TRUE
            if t.priority is not None:
                negs = [
                    Not(originals[j])
                    for j in idxs
                    if j != i
                    and std.transitions[j].priority is not None
                    and std.transitions[j].priority < t.priority
                    and not isinstance(originals[j], ElseGuard)
                ]
                guard = conj(guard, *negs)
            new_transitions[i] = replace(t, guard=guard, priority=None)

    return replace(std, transitions=tuple(new_transitions))
