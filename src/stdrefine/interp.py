"""Bounded operational semantics for state transition diagrams.

The denotation of a machine is approximated by a `TraceSet`: for every input
sequence up to a length bound, the set of output sequences the machine can
produce.  The single-message building block is `step`:

* A step begins when an input message arrives and ends when the message is
  consumed by a matching external transition.  While the message is pending,
  enabled internal transitions may fire (appending their outputs), up to the
  internal-step budget.  Internal transitions never fire on their own between
  messages — progress is driven, and observed, message by message.

* If the machine can reach, while the message is pending, a configuration
  where neither a matching external transition nor any internal transition is
  enabled, the behavior is completely unspecified from that point on: the
  whole entry is CHAOS, and chaos propagates to every extension of the input
  sequence.  A trace set records chaos once, at the shortest chaotic input,
  and does not expand it: `TraceSet.entry` answers CHAOS for every extension.

* A branch whose chain of internal steps exhausts the budget without consuming
  the message is *divergent*: its partial output is parked, flagged, and
  inherited verbatim by every extension (the branch makes no further progress
  inside the bound).  Divergence is deliberately not chaos.

One breadth-first builder steps the branches of each recorded sequence:
`machine_traces` extends every sequence with every input up to the length
bound, and `simulate_prefixes` follows one input sequence.  It asks `step`
through the machine's step rows, once per (read key, input), not once per
branch and sequence.  Output sequences longer than the output cap are
clipped and flagged, never silently dropped.
A configured state cap aborts exploration with a `ResourceLimit` naming the
offending bound.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterator, Optional

from .model import (
    BinOp,
    Configuration,
    Environment,
    Expr,
    Msg,
    PrimedRef,
    Record,
    Std,
    Transition,
    Undefined,
    Value,
    bind_environment,
    config_key,
    desugar,
    enumerate_sort,
    eval_expr,
    guard_holds,
    message_instances,
    msg_key,
    reads,
    replace,
)


class ResourceLimit(Exception):
    """A configured exploration bound was exceeded."""

    def __init__(self, bound: str, limit, message: str) -> None:
        super().__init__(message)
        self.bound = bound
        self.limit = limit


class Bounds(Record):
    """Exploration bounds: input-sequence length, internal-step budget per
    processed message, output-length cap, and an optional cap on the number of
    distinct configurations explored."""

    max_input_len: int = 4
    eps_budget: int = 4
    output_cap: int = 16
    state_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_input_len < 0 or self.eps_budget < 0 or self.output_cap < 0:
            raise ValueError("bounds must be non-negative")
        if self.state_cap is not None and self.state_cap < 0:
            raise ValueError("bounds must be non-negative")

    def describe(self) -> str:
        cap = "none" if self.state_cap is None else str(self.state_cap)
        return (
            f"k={self.max_input_len} eps-budget={self.eps_budget} "
            f"output-cap={self.output_cap} state-cap={cap}"
        )


DEFAULT_BOUNDS = Bounds()


Outputs = tuple[Msg, ...]


class StepResult(Record):
    """Everything one message can do from one configuration.

    reactions: (complete output sequence, configuration after consumption).
    divergent: partial outputs of branches cut by the internal-step budget.
    chaotic: some branch reached a configuration with nothing enabled.
    touched: configurations occupied while the message was pending or consumed.
    """

    reactions: frozenset[tuple[Outputs, Configuration]]
    divergent: frozenset[Outputs]
    chaotic: bool
    touched: frozenset[Configuration]


def is_prefix(short: Outputs, long: Outputs) -> bool:
    return len(short) <= len(long) and long[: len(short)] == short


class EnabledTransition(Record):
    """One enabled transition at a configuration under a trigger, with the
    set of (output sequence, successor) reactions the relational
    postcondition admits."""

    transition: Transition
    reactions: frozenset[tuple[Outputs, Configuration]]


def _outputs_of(t: Transition, valuation: dict, tables: dict, params: dict) -> Outputs | None:
    """Evaluate the output expressions; None if any piece is Undefined."""
    msgs: list[Msg] = []
    for oname, oargs in t.outputs:
        vals = []
        for a in oargs:
            v = eval_expr(a, valuation, tables, params=params)
            if v is Undefined:
                return None
            vals.append(v)
        msgs.append(Msg(oname, tuple(vals)))
    return tuple(msgs)


def _pins(post: Expr, position: dict[str, int]):
    """The pins of a postcondition: each conjunct ``x' == e`` or ``e == x'``
    of its top-level ``and`` chain, with x an attribute and e free of primed
    references (as `reads` counts them), as an (x's `position`, e) pair; and
    whether every conjunct is a pin of a different attribute."""
    pins: list[tuple[str, Expr]] = []
    conjuncts = 0
    todo = [post]
    while todo:
        e = todo.pop()
        if isinstance(e, BinOp) and e.op == "and":
            todo += (e.left, e.right)
            continue
        conjuncts += 1
        if not isinstance(e, BinOp) or e.op != "eq":
            continue
        for lhs, rhs in ((e.left, e.right), (e.right, e.left)):
            if isinstance(lhs, PrimedRef) and lhs.name in position and not reads(rhs)[2]:
                pins.append((position[lhs.name], rhs))
                break
    return tuple(pins), len(pins) == conjuncts == len({i for i, _ in pins})


def declarations(std: Std) -> tuple:
    """What binding an environment to `std` depends on, besides the
    environment: its domains, environment symbols, signature and attributes.
    No rule edits them."""
    return (std.domains, std.uses, std.signature, std.attributes)


def _read_positions(t: Transition, position: dict[str, int]) -> tuple[set[int], set[int]]:
    """The positions of the attributes (in `position`) and of the trigger
    parameters that the guard, the output arguments and the postcondition of
    `t` read unprimed."""
    attrs, params, _ = reads(t.guard, *(a for _, xs in t.outputs for a in xs), t.post)
    return {position[n] for n in attrs}, {i for i, p in enumerate(t.params) if p in params}


class Binding:
    """An environment bound to one diagram's declarations (see
    `declarations`), with what depends only on the two: the bound `tables`
    (or the `problems` that keep them from binding), the input alphabet in
    `msg_key` order (`inputs`), the sorted attribute names with their pools of
    values, and the `valuations`, built on first use.

    It also keeps answers about transitions, which depend only on a
    transition and these: the pins of each postcondition met (see `_pins`)
    and where each guard holds (see `Machine.guarded`).  The Machines of a
    request (see `Bindings`) ask much the same questions, so for them it
    numbers the transitions they have (`ids`), keeps what each reads, and
    keeps each one's enabled answer per (valuation, trigger) in `answers`.
    A lone Machine's binding keeps none of these, as nothing would ask
    twice."""

    def __init__(self, std: Std, env: Environment) -> None:
        self.tables, self.problems = bind_environment(std, env)
        if self.problems:
            return  # no Machine is made of it
        domains, sorts = std.domain_map(), std.attr_map()
        self.inputs = tuple(message_instances(std.signature.inputs, domains))
        self.position = {m: i for i, m in enumerate(self.inputs)}
        # Sorted, so that a combination of pool values zips straight into a
        # `Configuration` valuation.
        self.names = tuple(sorted(n for n, _ in std.attributes))
        self.pools = tuple(enumerate_sort(sorts[n], domains) for n in self.names)
        self.attr_position = {n: i for i, n in enumerate(self.names)}
        self._declared = tuple(n for n, _ in std.attributes)
        self.pinned: dict[Expr, tuple[tuple[tuple[int, Expr], ...], bool]] = {}
        self.guards: dict[Transition, tuple] = {}
        self.ids: dict[Transition, tuple[int, set[int], set[int]]] = {}
        self.answers: dict[tuple[int, tuple, Msg | None], list[EnabledTransition]] = {}

    @cached_property
    def valuations(self) -> tuple[tuple[tuple[str, Value], ...], ...]:
        """Every attribute valuation, each as a `Configuration` valuation, in
        declaration order: the product of the attributes' values in the order
        the diagram declares them, the first declared varying slowest."""
        combos = itertools.product(*(self.pools[self.attr_position[n]] for n in self._declared))
        return tuple(tuple(sorted(zip(self._declared, combo))) for combo in combos)

    def read(self, t: Transition) -> tuple[int, set[int], set[int]]:
        """t's number in the binding, with `_read_positions` of it."""
        hit = self.ids.get(t)
        if hit is None:
            hit = self.ids[t] = (len(self.ids), *_read_positions(t, self.attr_position))
        return hit


class Bindings:
    """An environment with the `Binding`s that one request (a refinement
    check, a rule or feature application, a conflict report) makes of it, one
    per diagram declarations.  Passed where an `Environment` goes, it gives
    every `Machine` of the request with the same declarations one binding,
    made when the first of them is, and it dies with the request.  It also
    records, per declarations, the transitions that the request has
    sort-checked clean (see `validate_std`), which binds nothing."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._made: dict[tuple, Binding] = {}
        self._checked: dict[tuple, set[Transition]] = {}

    def binding(self, std: Std) -> Binding:
        key = declarations(std)
        made = self._made.get(key)
        if made is None:
            made = self._made[key] = Binding(std, self.env)
        return made

    def checked(self, std: Std) -> Collection[Transition]:
        """The transitions sort-checked clean so far under std's declarations."""
        return self._checked.get(declarations(std), ())

    def record_checked(self, std: Std, transitions: Collection[Transition]) -> None:
        """Record `transitions` as sort-checked clean under std's declarations."""
        self._checked.setdefault(declarations(std), set()).update(transitions)


def bindings_of(env: Environment | Bindings) -> Bindings:
    """`env` as the bindings of a request: itself, or a new request's."""
    return env if isinstance(env, Bindings) else Bindings(env)


class Machine:
    """A diagram bound to an environment: the one exploration engine, which
    decides what a configuration enables and what a message does from it.

    The diagram is desugared (`std`) and bound (`binding`): the environment
    bound against its declarations (`tables`, or `ValueError` when it does
    not fit), its input alphabet (`inputs`) and its `valuations`, shared with
    the other Machines of a request when `env` is its `Bindings`.  `initial`
    is built on first use.  What does not depend on the configuration is
    indexed once: the transitions per (source, trigger constructor or None
    for eps) in declaration order, and, per control state, the attributes and
    trigger arguments its outgoing transitions read (`reads`, one pass over
    their expressions, or the request's binding's record of them).

    Every memo is keyed by `key`, what a configuration's control state reads:
    the state and the values of the attributes that a guard, an output
    argument or a postcondition (table-lookup arguments and pin right-hand
    sides included) of a transition leaving it reads unprimed, not the whole
    valuation.  This is exact.  Neither an enabled transition nor a
    `StepResult` mentions the configuration it starts from, and there is no
    frame rule (a primed attribute that a postcondition leaves unconstrained
    ranges over its whole sort), so configurations with one key enable the
    same transitions with the same reactions and have the same steps.  Nor
    does a step mention its message, which only `enabled` reads, through the
    arguments that the transitions it triggers from the eps closure of the
    start state read.

    `enabled` keeps its answers per (key, trigger), with None for eps, so each
    question goes to `_find_enabled` once (in a request, one transition at
    a time, through the binding's `answers`).  `row` keeps one
    step row per key, aligned with `inputs`: cell i is the step of
    `inputs[i]` once `step` has filled it, and callers ask `step` only for an
    empty cell.  `step` shares one exploration between the inputs a state
    cannot tell apart, and an exploration its outcomes per (key, remaining
    internal-step allowance).
    """

    def __init__(self, std: Std, env: Environment | Bindings, bounds: Bounds = DEFAULT_BOUNDS) -> None:
        self.std = std = desugar(std)
        self.bounds = bounds
        shared = isinstance(env, Bindings)
        binding = env.binding(std) if shared else Binding(std, env)
        if binding.problems:
            raise ValueError("environment does not fit the diagram: " + "; ".join(binding.problems))
        self.binding = binding
        self.tables = binding.tables
        self.inputs = binding.inputs
        self._groups: dict[tuple[str, str | None], list[Transition]] = {}
        # In a request, the numbers of each group's transitions.
        self._ids: dict[tuple[str, str | None], list[int]] | None = {} if shared else None
        self._arg_reads: dict[tuple[str, str], set[int]] = {}
        state_reads: dict[str, set[int]] = {}
        for t in std.transitions:
            group = (t.source, t.trigger)
            if self._ids is None:
                attrs, params = _read_positions(t, binding.attr_position)
            else:
                tid, attrs, params = binding.read(t)
                self._ids.setdefault(group, []).append(tid)
            self._groups.setdefault(group, []).append(t)
            if t.trigger is not None:
                self._arg_reads.setdefault(group, set()).update(params)
            state_reads.setdefault(t.source, set()).update(attrs)
        # Positions in the sorted attribute names, which is also the order of
        # `Configuration.valuation`.
        self._project = {s: itemgetter(*sorted(r)) for s, r in state_reads.items() if r}
        self._first: dict[str, list[int]] = {}
        self._enabled: dict[tuple[tuple, Msg | None], list[EnabledTransition]] = {}
        self._rows: dict[tuple, list[StepResult | None]] = {}

    @property
    def valuations(self) -> tuple[tuple[tuple[str, Value], ...], ...]:
        """The binding's `valuations`."""
        return self.binding.valuations

    @cached_property
    def initial(self) -> tuple[Configuration, ...]:
        """The configurations the initial markings admit, in `config_key` order."""
        configs = {
            Configuration(state, valuation)
            for state, pred in self.std.initial
            for valuation in self.valuations
            if guard_holds(pred, dict(valuation), self.tables)
        }
        return tuple(sorted(configs, key=config_key))

    def key(self, config: Configuration) -> tuple:
        """The state of `config` and the values it reads (one value bare)."""
        control = config.control
        project = self._project.get(control)
        return (control, project(config.valuation) if project else ())

    def enabled(self, config: Configuration, trigger: Msg | None) -> list[EnabledTransition]:
        """`_find_enabled(config, trigger)`, asked once per (`key`, trigger)
        for the machine's lifetime."""
        return self._ask(self.key(config), config, trigger)

    def _ask(self, read: tuple, config: Configuration, trigger: Msg | None) -> list[EnabledTransition]:
        """`enabled` for a `config` whose `key` is `read`."""
        hit = self._enabled.get((read, trigger))
        if hit is None:
            find = self._find_enabled if self._ids is None else self._find_shared
            hit = self._enabled[(read, trigger)] = find(config, trigger)
        return hit

    def _find_shared(self, config: Configuration, trigger: Msg | None) -> list[EnabledTransition]:
        """`_find_enabled` in a request: each transition's answer at
        config's valuation and `trigger` is asked once per binding, as no
        answer depends on anything else."""
        group = (config.control, None if trigger is None else trigger.ctor)
        answers = self.binding.answers
        out: list[EnabledTransition] = []
        for tid, t in zip(self._ids.get(group, ()), self._groups.get(group, ())):
            question = (tid, config.valuation, trigger)
            hit = answers.get(question)
            if hit is None:
                hit = answers[question] = self._find_enabled(config, trigger, (t,))
            out += hit
        return out

    def _find_enabled(self, config: Configuration, trigger: Msg | None,
                      group: Collection[Transition] | None = None) -> list[EnabledTransition]:
        """The transitions of `group` (by default, every transition leaving
        config's state on trigger's constructor) productively enabled at
        `config` for `trigger` (a ground input message, or None for eps), with
        their reactions, in declaration order.

        A transition's guard is tested with `guard_holds`, which stops at the
        first conjunct that is not True, and its output arguments are values,
        taken with `eval_expr`.  A transition contributes one reaction per
        primed valuation that `solve` finds for its postcondition; an
        unsatisfiable postcondition, or an Undefined output, contributes
        nothing."""
        if group is None:
            group = self._groups.get((config.control, None if trigger is None else trigger.ctor))
        if not group:
            return []
        tables = self.tables
        valuation = config.value_map()
        args = None if trigger is None else trigger.args
        out: list[EnabledTransition] = []
        for t in group:
            tparams = t.params
            if args is None:
                params: dict[str, Value] = {}
            elif len(tparams) != len(args):
                continue
            else:
                params = dict(zip(tparams, args))
            if not guard_holds(t.guard, valuation, tables, params):
                continue
            outputs = _outputs_of(t, valuation, tables, params)
            if outputs is None:
                continue
            target = t.target
            reactions = frozenset((outputs, Configuration(target, primed))
                                  for primed in self.solve(t.post, valuation, params))
            if reactions:
                out.append(EnabledTransition(t, reactions))
        return out

    def solve(self, post: Expr, valuation: dict[str, Value],
              params: dict[str, Value]) -> list[tuple[tuple[str, Value], ...]]:
        """The primed valuations, each as a `Configuration` valuation, that
        satisfy the postcondition `post` from `valuation` under the parameter
        binding `params`, in the order of the product of the sorted pools.

        Pinned attributes (see `_pins`, kept per postcondition once worked
        out) are solved rather than enumerated: a pin ``x' == e`` admits
        only the values of x's sort that equal e's value (each one's, when
        pinned twice), and none at all when e is Undefined.  Unpinned
        attributes range over their whole sort, and every candidate is still
        tested against the full postcondition with `guard_holds`, so the
        answer is exactly that of enumerating every primed valuation.  A
        postcondition that is exactly its pins is not tested: the pools were
        narrowed with the ``==`` its conjuncts evaluate, so every candidate
        satisfies it."""
        binding = self.binding
        pinned = binding.pinned.get(post)
        if pinned is None:
            pinned = binding.pinned[post] = _pins(post, binding.attr_position)
        pins, solved = pinned
        tables = self.tables
        pools = list(binding.pools)
        for i, rhs in pins:
            v = eval_expr(rhs, valuation, tables, params=params)
            if v is Undefined:  # so is the postcondition
                return []
            pools[i] = [u for u in pools[i] if u == v]
        names = binding.names
        out = []
        for combo in itertools.product(*pools):
            primed = tuple(zip(names, combo))
            if solved or guard_holds(post, valuation, tables, params, dict(primed)):
                out.append(primed)
        return out

    def guarded(self, t: Transition, valuations: tuple | None = None) -> Iterator[tuple]:
        """Each (valuation, trigger, binding) at which the guard of `t`, one of
        the machine's transitions or a payload's, holds: per trigger (the
        `inputs` with t's constructor, or None for eps), the `Configuration`
        valuations in the order given, `valuations` by default.  The guard is
        evaluated once per trigger and values of the attributes it reads; its
        answers, those read positions and t's triggers are kept per `t` in the
        machine's binding."""
        guards = self.binding.guards
        if t not in guards:
            read = sorted(self.binding.attr_position[n] for n in reads(t.guard)[0])
            triggers = [None] if t.is_internal else [m for m in self.inputs if m.ctor == t.trigger]
            guards[t] = (itemgetter(*read) if read else lambda v: (),
                         [(m, {} if m is None else dict(zip(t.params, m.args)), {}) for m in triggers])
        project, triggers = guards[t]
        for trigger, params, holds in triggers:
            for valuation in self.valuations if valuations is None else valuations:
                key = project(valuation)
                held = holds.get(key)
                if held is None:
                    held = holds[key] = guard_holds(t.guard, dict(valuation), self.tables, params)
                if held:
                    yield valuation, trigger, params

    def row(self, config: Configuration) -> list[StepResult | None]:
        """The step row of `config`'s key: cell i is None until filled."""
        key = self.key(config)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self.inputs)
        return row

    def step(self, config: Configuration, message: Msg) -> StepResult:
        """What `message`, one of `inputs`, does from `config`: its cell of
        `config`'s row, filled on first use with the step of the first input
        that the state cannot tell apart from it (see `_first_alike`)."""
        row = self.row(config)
        i = self.binding.position[message]
        res = row[i]
        if res is None:
            first = self._first.get(config.control)
            if first is None:
                first = self._first[config.control] = self._first_alike(config.control)
            j = first[i]
            res = row[j]
            if res is None:
                res = row[j] = self._explore(config, self.inputs[j])
            row[i] = res
        return res

    def _first_alike(self, control: str) -> list[int]:
        """For each input position, the first position that a step from
        `control` cannot tell apart from it: the same constructor and the
        same arguments where a transition it triggers from the eps closure of
        `control` (guards ignored) reads one, or any constructor that no such
        transition handles."""
        closure, todo = set(), [control]
        while todo:
            if (state := todo.pop()) not in closure:
                closure.add(state)
                todo += (t.target for t in self._groups.get((state, None), ()))
        read: dict[str, set[int]] = {}
        for (source, ctor), args in self._arg_reads.items():
            if source in closure:
                read.setdefault(ctor, set()).update(args)
        first: dict[tuple | None, int] = {}
        alike = []
        for i, m in enumerate(self.inputs):
            r = read.get(m.ctor)
            cls = None if r is None else (m.ctor, tuple(m.args[a] for a in sorted(r)))
            alike.append(first.setdefault(cls, i))
        return alike

    def _explore(self, config: Configuration, message: Msg) -> StepResult:
        touched: set[Configuration] = set()
        state_key = self.key
        ask = self._ask

        # outcomes relative to a pending-message configuration, keyed by what
        # its state reads and the remaining internal-step allowance
        memo: dict[tuple[tuple, int], tuple[frozenset, frozenset, bool]] = {}

        def outcomes(cfg: Configuration, allowance: int):
            read = state_key(cfg)
            hit = memo.get((read, allowance))
            if hit is not None:
                return hit
            local_reactions: set[tuple[Outputs, Configuration]] = set()
            local_divergent: set[Outputs] = set()
            local_chaos = False
            ext = ask(read, cfg, message)
            eps = ask(read, cfg, None)
            for en in ext:
                for outs, succ in en.reactions:
                    local_reactions.add((outs, succ))
                    touched.add(succ)
            if not ext and not eps:
                local_chaos = True
            elif eps:
                if allowance == 0:
                    local_divergent.add(())
                else:
                    for en in eps:
                        for outs, succ in en.reactions:
                            touched.add(succ)
                            sub_r, sub_d, sub_c = outcomes(succ, allowance - 1)
                            local_chaos = local_chaos or sub_c
                            for souts, ssucc in sub_r:
                                local_reactions.add((outs + souts, ssucc))
                            for souts in sub_d:
                                local_divergent.add(outs + souts)
            result = (frozenset(local_reactions), frozenset(local_divergent), local_chaos)
            memo[(read, allowance)] = result
            return result

        reactions, divergent, chaotic = outcomes(config, self.bounds.eps_budget)
        del outcomes  # a self-referencing closure: free the Machine without the cycle collector
        return StepResult(reactions, divergent, chaotic, frozenset(touched))


class Entry(Record):
    """The recorded behavior at one input sequence: CHAOS, or a set of output
    sequences plus parked divergent outputs, with an output-cap flag."""

    chaos: bool
    outputs: frozenset[Outputs] = frozenset()
    divergent: frozenset[Outputs] = frozenset()
    capped: bool = False

    def all_outputs(self) -> frozenset[Outputs]:
        return self.outputs | self.divergent


CHAOS_ENTRY = Entry(chaos=True)


class TraceSet(Record):
    """Bounded denotation of a machine: an entry for every input sequence up to
    the length bound, plus the configurations reached along the way.

    `entries` records every sequence without a chaotic proper prefix (from
    `simulate_prefixes`: every prefix of its one path); the extensions of a
    chaotic entry are implied, and `entry` answers for them.  Its insertion
    order is canonical (`seq_key`), so nothing sorts it: one builder makes
    both kinds breadth-first, `machine_traces` over the `msg_key`-sorted
    `Machine.inputs`.  `reached` holds the initial configurations and those
    touched by the steps of non-chaotic entries, so it does not depend on
    which branch of a chaotic step happened to be tried first.
    """

    std_name: str
    bounds: Bounds
    inputs: tuple[Msg, ...]
    entries: dict[tuple[Msg, ...], Entry]
    reached: frozenset[Configuration]
    warnings: tuple[str, ...]

    def entry(self, seq: tuple[Msg, ...]) -> Entry:
        """The recorded entry at `seq`, or `CHAOS_ENTRY` for an unrecorded
        extension (within the bounds and the input alphabet) of a recorded
        chaotic entry.  Raises `KeyError` for any other sequence."""
        found = self.entries.get(seq)
        if found is not None:
            return found
        if len(seq) <= self.bounds.max_input_len and all(m in self.inputs for m in seq):
            if any(self.entries.get(seq[:cut]) == CHAOS_ENTRY for cut in range(len(seq))):
                return CHAOS_ENTRY
        raise KeyError(seq)

    def sequences(self) -> list[tuple[Msg, ...]]:
        """Every recorded input sequence (not the implied extensions of chaos),
        in canonical (`seq_key`) order: the insertion order of `entries`."""
        return list(self.entries)

    def has_divergence(self) -> bool:
        return any(e.divergent for e in self.entries.values())


def seq_key(seq: tuple[Msg, ...]):
    """The canonical order of message sequences, input or output: length,
    then `msg_key` order."""
    return (len(seq), tuple(msg_key(m) for m in seq))


def format_sequence(seq: tuple[Msg, ...]) -> str:
    return "[" + ", ".join(str(m) for m in seq) + "]"


_WARNING_LIMIT = 20


def _check_state_cap(bounds: Bounds, reached: set[Configuration]) -> None:
    if bounds.state_cap is not None and len(reached) > bounds.state_cap:
        raise ResourceLimit(
            "state_cap",
            bounds.state_cap,
            f"state cap exceeded: more than {bounds.state_cap} distinct "
            f"configurations reached (offending bound: state_cap)",
        )


def reachable_configurations(machine: Machine) -> set[Configuration]:
    """Every configuration of `machine` reachable by processing input
    messages, to saturation: its initial configurations, closed under the
    configurations `Machine.step` touches with each input message.

    Each touched configuration is stepped again, so internal chains of any
    length are followed at any internal-step budget of at least 1 and the
    set contains what any `Bounds` reach; a budget of 0 never touches an
    internal successor and raises `ValueError`.  The machine's `state_cap`
    exceeded on the way raises `ResourceLimit` naming it.
    """
    if machine.bounds.eps_budget < 1:
        raise ValueError("reachability needs an internal-step budget of at least 1")
    reached = set(machine.initial)
    _check_state_cap(machine.bounds, reached)
    todo = list(reached)
    while todo:
        config = todo.pop()
        row = machine.row(config)
        for i, res in enumerate(row):
            for succ in (res or machine.step(config, machine.inputs[i])).touched:
                if succ not in reached:
                    reached.add(succ)
                    todo.append(succ)
        _check_state_cap(machine.bounds, reached)
    return reached


def _make_entry(outputs, divergent, cap: int) -> Entry:
    """A non-chaotic entry, its output sequences clipped at `cap` and flagged;
    the words are sliced only when some word is longer than `cap`."""
    if any(len(u) > cap for u in itertools.chain(outputs, divergent)):
        return Entry(False, frozenset(u[:cap] for u in outputs),
                     frozenset(u[:cap] for u in divergent), True)
    return Entry(False, frozenset(outputs), frozenset(divergent), False)


def traces(std: Std, env: Environment | Bindings, bounds: Bounds = DEFAULT_BOUNDS) -> TraceSet:
    """Exhaustively enumerate `step` over every input sequence up to the length
    bound, from every initial configuration.  `env` may be the `Bindings` of
    the request the trace build is part of."""
    return machine_traces(Machine(std, env, bounds))


def machine_traces(machine: Machine) -> TraceSet:
    k = machine.bounds.max_input_len
    every = range(len(machine.inputs))
    return _build(machine, lambda seq: every if len(seq) < k else ())


def simulate_prefixes(
    std: Std,
    env: Environment,
    input_seq: tuple[Msg, ...],
    bounds: Bounds = DEFAULT_BOUNDS,
) -> TraceSet:
    """Entries for every prefix of one concrete input sequence (the same
    semantics and warnings as `traces`, without enumerating the whole
    alphabet).  The input length bound is the sequence's length, whatever
    `bounds` says.  Every prefix after a chaotic one is listed as
    `CHAOS_ENTRY`, so that `entry` answers for the whole sequence."""
    input_seq = tuple(input_seq)
    machine = Machine(std, env, replace(bounds, max_input_len=len(input_seq)))
    for m in input_seq:
        if m not in machine.inputs:
            raise ValueError(f"{m} is not an input message instance of {std.name}")
    positions = [machine.inputs.index(m) for m in input_seq]
    ts = _build(machine, lambda seq: positions[len(seq) : len(seq) + 1])
    for cut in range(len(ts.entries), len(input_seq) + 1):
        ts.entries[input_seq[:cut]] = CHAOS_ENTRY
    return ts


def _build(machine: Machine, children) -> TraceSet:
    """The trace set of `machine`, built breadth-first from the empty input
    sequence: each recorded, non-chaotic sequence `seq` is extended with the
    input at every position of `children(seq)` into `machine.inputs`, in that
    order.

    A node carries its branches (configuration, accumulated outputs) and the
    divergent outputs it inherits.  It fetches one step row per branch
    (`Machine.row`) and each child indexes it, so a (read key, input) pair is
    asked of `Machine.step` at most once per machine.  A child where some branch is
    chaotic is recorded as `CHAOS_ENTRY` and not expanded; nothing is
    allocated for it, and what its other branches touched is dropped.
    """
    bounds = machine.bounds
    cap = bounds.output_cap
    inputs = machine.inputs
    entries: dict[tuple[Msg, ...], Entry] = {}
    warnings: list[str] = []
    suppressed = 0
    reached: set[Configuration] = set(machine.initial)

    def warn(text: str) -> None:
        nonlocal suppressed
        if len(warnings) < _WARNING_LIMIT:
            warnings.append(text)
        else:
            suppressed += 1

    _check_state_cap(bounds, reached)
    start = {(c, ()) for c in machine.initial}
    entries[()] = _make_entry({u for _, u in start}, (), cap)
    layer: list[tuple[tuple[Msg, ...], set, set]] = [((), start, set())]

    while layer:
        next_layer: list[tuple[tuple[Msg, ...], set, set]] = []
        for seq, branches, divergent in layer:
            positions = children(seq)
            if not positions:
                continue
            rows = [(machine.row(cfg), cfg, u) for cfg, u in branches]
            for i in positions:
                child_seq = seq + (inputs[i],)
                for row, cfg, _ in rows:
                    if (row[i] or machine.step(cfg, inputs[i])).chaotic:
                        entries[child_seq] = CHAOS_ENTRY
                        break
                else:  # no branch was chaotic
                    child_branches: set[tuple[Configuration, Outputs]] = set()
                    child_divergent: set[Outputs] = set(divergent)
                    diverged = False
                    for row, _, u in rows:
                        res = row[i]
                        reached |= res.touched
                        for outs, succ in res.reactions:
                            child_branches.add((succ, u + outs))
                        if res.divergent:
                            diverged = True
                            child_divergent.update(u + outs for outs in res.divergent)
                    _check_state_cap(bounds, reached)
                    if diverged:
                        warn(
                            "internal-step budget exhausted while processing "
                            f"{inputs[i]} after input {format_sequence(seq)}"
                        )
                    entry = _make_entry(frozenset(u for _, u in child_branches), child_divergent, cap)
                    if entry.capped:
                        warn(
                            "output cap hit at input "
                            f"{format_sequence(child_seq)} (outputs clipped at {cap})"
                        )
                    entries[child_seq] = entry
                    next_layer.append((child_seq, child_branches, child_divergent))
        layer = next_layer

    if suppressed:
        warnings.append(f"... {suppressed} more warnings suppressed")
    return TraceSet(
        std_name=machine.std.name,
        bounds=bounds,
        inputs=inputs,
        entries=entries,
        reached=frozenset(reached),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Witness(Record):
    """Replayable counterexample: an input sequence, optionally the offending
    output, and for monotonicity failures the extended input sequence."""

    input: tuple[Msg, ...]
    output: Optional[Outputs] = None
    extension: Optional[tuple[Msg, ...]] = None
    note: str = ""


class Verdict(Record):
    ok: bool
    kind: str
    bounds: Bounds
    witness: Optional[Witness] = None
    note: str = ""

    def describe(self) -> str:
        head = f"{self.kind}: {'pass' if self.ok else 'FAIL'} (bounds: {self.bounds.describe()})"
        lines = [head]
        if self.note:
            lines.append(f"  {self.note}")
        if self.witness is not None:
            w = self.witness
            lines.append(f"  input:  {format_sequence(w.input)}")
            if w.extension is not None:
                lines.append(f"  extended input: {format_sequence(w.extension)}")
            if w.output is not None:
                lines.append(f"  output: {format_sequence(w.output)}")
            if w.note:
                lines.append(f"  {w.note}")
        return "\n".join(lines)


def check_monotone(ts: TraceSet) -> Verdict:
    """Pass iff every output recorded at an input sequence extends to some
    output at every longer sequence, and chaos propagates to extensions."""
    for seq in ts.sequences():
        ej = ts.entries[seq]
        for cut in range(len(seq)):
            pre = seq[:cut]
            ei = ts.entries[pre]
            if ei.chaos:
                if not ej.chaos:
                    return Verdict(
                        ok=False,
                        kind="monotonicity",
                        bounds=ts.bounds,
                        witness=Witness(
                            input=pre,
                            extension=seq,
                            note="chaos at the shorter input did not propagate",
                        ),
                    )
                continue
            if ej.chaos:
                continue
            targets = ej.all_outputs()
            lost = [
                o for o in ei.all_outputs() if not any(is_prefix(o, t) for t in targets)
            ]
            if lost:
                return Verdict(
                    ok=False,
                    kind="monotonicity",
                    bounds=ts.bounds,
                    witness=Witness(
                        input=pre,
                        output=min(lost, key=seq_key),
                        extension=seq,
                        note="no output at the longer input extends this one",
                    ),
                )
    return Verdict(ok=True, kind="monotonicity", bounds=ts.bounds)


# ---------------------------------------------------------------------------
# JSON export (traces/1, verdict/1)
# ---------------------------------------------------------------------------


def _value_to_json(v: Value):
    if isinstance(v, tuple):
        return {"list": [_value_to_json(x) for x in v]}
    return v


def msg_to_json(m: Msg) -> dict:
    return {"ctor": m.ctor, "args": [_value_to_json(a) for a in m.args]}


def _outputs_to_json(outs) -> list:
    return [[msg_to_json(m) for m in o] for o in sorted(outs, key=seq_key)]


def traceset_to_json(ts: TraceSet) -> dict:
    entries = []
    for seq in ts.sequences():
        e = ts.entries[seq]
        item: dict = {"input": [msg_to_json(m) for m in seq], "chaos": e.chaos}
        if not e.chaos:
            item["outputs"] = _outputs_to_json(e.outputs)
            item["divergent"] = _outputs_to_json(e.divergent)
            item["capped"] = e.capped
        entries.append(item)
    return {
        "format": "traces/1",
        "std": ts.std_name,
        "bounds": bounds_to_json(ts.bounds),
        "entries": entries,
        "reached": sorted(str(c) for c in ts.reached),
        "warnings": list(ts.warnings),
    }


def bounds_to_json(b: Bounds) -> dict:
    return {
        "max_input_len": b.max_input_len,
        "eps_budget": b.eps_budget,
        "output_cap": b.output_cap,
        "state_cap": b.state_cap,
    }


def witness_to_json(w: Optional[Witness]):
    if w is None:
        return None
    out: dict = {"input": [msg_to_json(m) for m in w.input]}
    if w.output is not None:
        out["output"] = [msg_to_json(m) for m in w.output]
    if w.extension is not None:
        out["extension"] = [msg_to_json(m) for m in w.extension]
    if w.note:
        out["note"] = w.note
    return out


def verdict_to_json(v: Verdict) -> dict:
    return {
        "format": "verdict/1",
        "kind": v.kind,
        "ok": v.ok,
        "bounds": bounds_to_json(v.bounds),
        "witness": witness_to_json(v.witness),
        "note": v.note,
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
