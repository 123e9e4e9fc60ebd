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

* A step depends only on what its configuration's control state reads: the
  state and the attributes that the guards, output arguments and
  postconditions of the transitions leaving it read unprimed, and the class
  of the message there.  `Machine` keys its step memo by exactly that
  (`TransitionIndex.key` and `message_class`), which is exact because a
  step's result mentions neither its start configuration nor its message
  and there is no frame rule: a primed attribute a postcondition leaves
  unconstrained ranges over its whole sort, whatever its old value.

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
from typing import Optional

from .model import (
    Configuration,
    EnabledTransition,
    Environment,
    Msg,
    Record,
    Std,
    TransitionIndex,
    Value,
    bind_environment,
    desugar,
    initial_configurations,
    message_instances,
    msg_key,
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


def outputs_key(outs: Outputs):
    return (len(outs), tuple(msg_key(m) for m in outs))


def _sorted_outputs(outs) -> list[Outputs]:
    return sorted(outs, key=outputs_key)


def is_prefix(short: Outputs, long: Outputs) -> bool:
    return len(short) <= len(long) and long[: len(short)] == short


class Machine:
    """A diagram bound to an environment, with memoized single-message steps.

    This is the one place a diagram meets its environment: the diagram is
    desugared (`std`), the environment bound against it (`tables`, or
    `ValueError` when it does not fit) and its input alphabet listed in
    `msg_key` order (`inputs`); its initial configurations in `config_key`
    order (`initial`) and its transition index (`index`) are built on first
    use.  `enabled` is the one enabledness question: `step` and the rule side
    conditions ask it, and it asks `index`.

    Every memo is keyed by what a configuration's control state reads,
    `TransitionIndex.key`: the state and the values of the attributes its
    outgoing transitions read unprimed, not the whole valuation.  This is
    exact.  A `StepResult` never mentions the configuration it starts from,
    and there is no frame rule (a primed attribute a postcondition leaves
    unconstrained ranges over its whole sort), so two configurations that
    agree on what their state reads have the same reactions, divergent
    outputs, chaos flag and touched set.  Nor does it mention the message,
    which only `enabled` reads, through its class at the start state
    (`TransitionIndex.message_class`).  So `step` keeps its result per (key,
    class), explored with the first message of the class it is asked, and
    one exploration its outcomes per (key, allowance).
    `enabled`, which depends on neither the remaining internal-step allowance
    nor (for eps) the pending message, keeps its answers per (key, trigger),
    with None for eps, for the machine's lifetime: each such question goes to
    `index` once.  In front of `step`, `row` keeps one list per key, aligned
    with `inputs`, whose cell i `fill` sets to the step of `inputs[i]`: the
    trace builder and reachability index a row instead of asking `step`.
    """

    def __init__(self, std: Std, env: Environment, bounds: Bounds = DEFAULT_BOUNDS) -> None:
        self.std = desugar(std)
        self.bounds = bounds
        tables, problems = bind_environment(self.std, env)
        if problems:
            raise ValueError("environment does not fit the diagram: " + "; ".join(problems))
        self.tables = tables
        self.inputs: tuple[Msg, ...] = tuple(
            message_instances(self.std.signature.inputs, self.std.domain_map())
        )
        self._step_memo: dict[tuple[tuple, tuple | None], StepResult] = {}
        self._enabled: dict[tuple[tuple, Msg | None], list[EnabledTransition]] = {}
        self._rows: dict[tuple, list[StepResult | None]] = {}

    @cached_property
    def initial(self) -> tuple[Configuration, ...]:
        return tuple(initial_configurations(self.std, self.tables))

    @cached_property
    def index(self) -> TransitionIndex:
        return TransitionIndex(self.std, self.tables)

    def enabled(self, config: Configuration, trigger: Msg | None) -> list[EnabledTransition]:
        """`index.enabled(config, trigger)`, asked once per (`index.key`,
        trigger) for the machine's lifetime."""
        return self._ask(self.index.key(config), config, trigger)

    def _ask(
        self, read: tuple, config: Configuration, trigger: Msg | None
    ) -> list[EnabledTransition]:
        """`enabled` for a `config` whose `index.key` is `read`."""
        hit = self._enabled.get((read, trigger))
        if hit is None:
            hit = self._enabled[(read, trigger)] = self.index.enabled(config, trigger)
        return hit

    def row(self, config: Configuration) -> list[StepResult | None]:
        """The step row of `config`'s key: cell i is None until filled."""
        key = self.index.key(config)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self.inputs)
        return row

    def fill(self, row: list[StepResult | None], config: Configuration, i: int) -> StepResult:
        """Sets cell i of `config`'s `row` to `step(config, inputs[i])`."""
        res = row[i] = self.step(config, self.inputs[i])
        return res

    def step(self, config: Configuration, message: Msg) -> StepResult:
        key = (self.index.key(config), self.index.message_class(config.control, message))
        hit = self._step_memo.get(key)
        if hit is None:
            hit = self._step_memo[key] = self._explore(config, message)
        return hit

    def _explore(self, config: Configuration, message: Msg) -> StepResult:
        touched: set[Configuration] = set()
        state_key = self.index.key
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
    """The canonical order of input sequences: length, then `msg_key` order."""
    return (len(seq), tuple(msg_key(m) for m in seq))


def format_outputs(outs: Outputs) -> str:
    return "[" + ", ".join(str(m) for m in outs) + "]"


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
            for succ in (res or machine.fill(row, config, i)).touched:
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


def traces(std: Std, env: Environment, bounds: Bounds = DEFAULT_BOUNDS) -> TraceSet:
    """Exhaustively enumerate `step` over every input sequence up to the length
    bound, from every initial configuration."""
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
    alphabet).  Every prefix after a chaotic one is listed as `CHAOS_ENTRY`,
    so that `entry` answers for the whole sequence whatever its length."""
    machine = Machine(std, env, bounds)
    input_seq = tuple(input_seq)
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
    asked of `Machine.step` once per machine.  A child where some branch is
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
                    if (row[i] or machine.fill(row, cfg, i)).chaotic:
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


def simulate(
    std: Std,
    env: Environment,
    input_seq: tuple[Msg, ...],
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Entry:
    """The entry for one concrete input sequence."""
    return simulate_prefixes(std, env, input_seq, bounds).entry(tuple(input_seq))


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
                lines.append(f"  output: {format_outputs(w.output)}")
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
                        output=min(lost, key=outputs_key),
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
    return [[msg_to_json(m) for m in o] for o in _sorted_outputs(outs)]


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
