"""Behavior-preserving transformation rules and bounded refinement checking.

A machine M2 refines M1 when every behavior of M2 is a behavior of M1 —
bounded here to: for every input sequence up to the length bound, every output
sequence M2 can produce is one M1 can produce, where a CHAOS entry of M1
licenses anything.  `check_refinement` decides this on enumerated trace sets
and returns a replayable verdict; the minimal counterexample (shortest input
sequence, then lexicographically least) is reported on failure.  Its
`trace_inclusion` is the one comparison of trace sets: `trace_equivalence` is
that comparison both ways.

The six transformation rules are syntactic machine edits whose side conditions
guarantee refinement by construction, at every bound.  `apply_rule` applies
one in three steps.  The rule's edit checks the application's structure and
builds the transformed machine; `validate_std` sort-checks that machine, so no
side condition ever evaluates an expression that is not well-sorted; then the
side condition, where the application has one, is asked of the machine the
rule is applied to, bound once to the environment the way the interpreter
binds it, as an `interp.Machine`.  "Enabled" is productive enabledness as
`Machine.enabled` answers it (the guard holds, the outputs are defined and
`Machine.solve` finds a successor for the postcondition), and "reachable" is
membership in the saturated `interp.reachable_configurations` of it, which
holds every configuration that any bounds reach (so the internal-step budget
of 1 it is built with is the least reachability takes, not a bound the rule
depends on).  The transition a rule adds or removes is tested by its guard
alone, where `Machine.guarded` finds that it holds, which can only reject
more; the side conditions evaluate no expression themselves.

* add-states: fresh, unreachable states (plus transitions among them only).
* remove-states: states no reachable configuration occupies.
* split-state: replace one state by several; each incoming transition is
  redirected to exactly one part (optionally with a strengthened
  postcondition), every outgoing transition is copied to every part.
* add-transitions: new transitions that only give behavior to situations
  that were completely unspecified (chaos): wherever a new guard holds, the
  machine has nothing enabled for the same trigger and no internal
  transition enabled (for a new internal transition: nothing enabled for
  any input either).
* remove-transitions: redundant branches; at every reachable configuration
  where a removed transition's guard holds, a kept transition with the same
  trigger, or a kept internal transition, is still enabled.
* remove-initial-states: drop initial markings, keeping at least one.

A rejected application raises `RuleError`, naming the violated condition
(with a witness where there is one) or the invalid result, instead of
producing an unsound machine.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .model import (
    Configuration,
    ElseGuard,
    Environment,
    Expr,
    Msg,
    Record,
    Std,
    Transition,
    UnknownName,
    Value,
    config_key,
    desugar,
    format_value,
    name_scope,
    replace,
    resolve_names,
    resolve_transition,
    validate_std,
)
from .interp import (
    Bindings,
    Bounds,
    DEFAULT_BOUNDS,
    Machine,
    TraceSet,
    Verdict,
    Witness,
    bindings_of,
    reachable_configurations,
    seq_key,
    traces,
)


class RuleError(Exception):
    """A transformation rule's side condition failed (or its payload is
    malformed).  Carries the rule name, the violated condition, and where
    available a witness valuation/configuration demonstrating the violation."""

    def __init__(self, rule: str, reason: str, witness: Optional[str] = None) -> None:
        text = f"rule {rule}: {reason}"
        if witness:
            text += f" [witness: {witness}]"
        super().__init__(text)
        self.rule = rule
        self.reason = reason
        self.witness = witness


class SignatureMismatch(ValueError):
    """Refinement is only defined between machines with identical message
    signatures and declared domains."""


# ---------------------------------------------------------------------------
# Rule applications
# ---------------------------------------------------------------------------


class AddStates(Record):
    """New, unreachable states, optionally with transitions among them."""

    names: tuple[str, ...]
    transitions: tuple[Transition, ...] = ()


class RemoveStates(Record):
    names: tuple[str, ...]


class SplitState(Record):
    """Replace `name` by `parts`.  `redirects` maps each incoming transition
    label to (part, optional strengthened postcondition)."""

    name: str
    parts: tuple[str, ...]
    redirects: tuple[tuple[str, str, Optional[Expr]], ...]


class AddTransitions(Record):
    transitions: tuple[Transition, ...]


class RemoveTransitions(Record):
    labels: tuple[str, ...]


class RemoveInitialStates(Record):
    names: tuple[str, ...]


RuleApplication = Union[
    AddStates, RemoveStates, SplitState, AddTransitions, RemoveTransitions, RemoveInitialStates
]

#: A rule's side condition, asked of the machine the rule is applied to as a
#: bound `interp.Machine`: raises `RuleError` where the edit is no refinement.
Check = Callable[[Machine], None]


def rule_name(app: RuleApplication) -> str:
    return _rule(app)[0]


def _rule(app: RuleApplication) -> tuple[str, Callable]:
    try:
        return _RULES[type(app)]
    except KeyError:
        raise TypeError(f"not a rule application: {app!r}") from None


# ---------------------------------------------------------------------------
# Payload preparation
# ---------------------------------------------------------------------------


def _prepare_payload(
    transitions: tuple[Transition, ...], std: Std, rule: str
) -> tuple[Transition, ...]:
    """The payload with its names resolved against `std` and its priorities
    desugared.  Priorities are local to the batch: `desugar` sees the batch
    alone, so each prioritized guard is conjoined with the negations of the
    strictly higher-priority guards of its (source, trigger) group in the
    batch only.  An `else` guard has no meaning relative to a payload and is
    rejected first, since `desugar` would accept it; an `else` below the top
    of a guard is left to `validate_std`."""
    scope = name_scope(std)
    resolved = []
    for t in transitions:
        try:
            resolved.append(resolve_transition(t, scope))
        except UnknownName as exc:
            raise RuleError(rule, str(exc), witness=f"transition {t.label or t.source}") from exc
    for t in resolved:
        if type(t.guard) is ElseGuard:
            raise RuleError(rule, "'else' guards are not allowed in rule payloads",
                            witness=f"transition {t.label or t.source}")
    return desugar(replace(std, transitions=tuple(resolved))).transitions


# ---------------------------------------------------------------------------
# Side-condition helpers
# ---------------------------------------------------------------------------


def _format_valuation(valuation: tuple[tuple[str, Value], ...]) -> str:
    return "{" + ", ".join(f"{k}={format_value(v)}" for k, v in valuation) + "}"


def _distinct(rule: str, names: tuple[str, ...], what: str,
              bad: Callable[[str], bool], problem: str) -> set[str]:
    """The set of `names`, checked in order: a name for which `bad` holds is
    rejected as "<what> <name> <problem>", and a repeat as listed twice."""
    seen: set[str] = set()
    for n in names:
        if bad(n):
            raise RuleError(rule, f"{what} {n!r} {problem}")
        if n in seen:
            raise RuleError(rule, f"{what} {n!r} listed twice")
        seen.add(n)
    return seen


# ---------------------------------------------------------------------------
# apply_rule
# ---------------------------------------------------------------------------


def apply_rule(
    std: Std,
    app: RuleApplication,
    env: Environment | Bindings,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Std:
    """Apply one transformation rule: edit the desugared machine, validate
    the result, then check the rule's side condition against the machine it
    is applied to.  The input machine is never modified.  `env` may be the
    `Bindings` of a request the rule is part of: validation then skips the
    sort checks of the transitions an earlier rule of the request checked
    clean (see `validate_std`), and the side condition's machine joins the
    request's binding.

    The side conditions do not depend on the bounds: an accepted rule is a
    refinement at every bound.  Of `bounds` only `state_cap` is read; the
    reachability the side conditions explore raises `ResourceLimit` when it
    is exceeded.  Anything but a rule application raises `TypeError`."""
    name, edit = _rule(app)
    work = desugar(std)
    result, check = edit(work, app, name)
    bindings = bindings_of(env)
    problems = validate_std(result, checked=bindings.checked(work))
    if problems:
        raise RuleError(name, "the transformed machine is invalid: " + "; ".join(problems))
    # The result has work's declarations, so the record is the same.
    bindings.record_checked(work, result.transitions)
    if check is not None:
        check(Machine(work, bindings, Bounds(eps_budget=1, state_cap=bounds.state_cap)))
    return result


def _add_states(work: Std, app: AddStates, rule: str) -> tuple[Std, None]:
    if not app.names:
        raise RuleError(rule, "no states to add")
    existing = set(work.states)
    fresh = _distinct(rule, app.names, "state", lambda n: n in existing, "already exists")
    payload = _prepare_payload(app.transitions, work, rule)
    for t in payload:
        if t.source not in fresh or t.target not in fresh:
            raise RuleError(
                rule,
                "payload transitions must connect the new states only "
                "(anything else could make them reachable)",
                witness=f"transition {t.label or t.source}->{t.target}",
            )
    return replace(
        work,
        states=work.states + tuple(app.names),
        transitions=work.transitions + payload,
    ), None


def _remove_states(work: Std, app: RemoveStates, rule: str) -> tuple[Std, Check]:
    if not app.names:
        raise RuleError(rule, "no states to remove")
    existing = set(work.states)
    doomed = _distinct(rule, app.names, "state", lambda n: n not in existing, "does not exist")

    def check(machine: Machine) -> None:
        hit = sorted(doomed & {c.control for c in reachable_configurations(machine)})
        if hit:
            raise RuleError(
                rule, "only unreachable states may be removed",
                witness=f"state {hit[0]!r} is reachable",
            )

    return replace(
        work,
        states=tuple(s for s in work.states if s not in doomed),
        initial=tuple((s, p) for s, p in work.initial if s not in doomed),
        transitions=tuple(
            t for t in work.transitions if t.source not in doomed and t.target not in doomed
        ),
    ), check


def _split_state(work: Std, app: SplitState, rule: str) -> tuple[Std, Optional[Check]]:
    if app.name not in work.states:
        raise RuleError(rule, f"state {app.name!r} does not exist")
    if not app.parts:
        raise RuleError(rule, "a split needs at least one part")
    existing = set(work.states)
    seen = _distinct(rule, app.parts, "part", lambda p: p in existing,
                     "collides with an existing state")

    redirect: dict[str, tuple[str, Optional[Expr]]] = {}
    for label, part, post in app.redirects:
        if label in redirect:
            raise RuleError(rule, f"transition {label!r} redirected twice")
        if part not in seen:
            raise RuleError(rule, f"redirect of {label!r} targets {part!r}, which is not a part")
        redirect[label] = (part, post)

    incoming = [t for t in work.transitions if t.target == app.name]
    for t in incoming:
        if t.label is None:
            raise RuleError(
                rule,
                "every transition into the split state must be labeled so it can be redirected",
                witness=f"{t.source}->{t.target} on {t.trigger or 'eps'}",
            )
        if t.label not in redirect:
            raise RuleError(rule, f"incoming transition {t.label!r} has no redirect")
    incoming_labels = {t.label for t in incoming}
    for label in redirect:
        if label not in incoming_labels:
            raise RuleError(rule, f"redirect names {label!r}, which does not enter {app.name!r}")

    # The parts take the split state's place; each incoming transition is
    # redirected, and each outgoing one (a self-loop as redirected) copied to
    # every part.
    scope = name_scope(work)
    strengthened: list[tuple[Transition, Expr]] = []
    states: list[str] = []
    for s in work.states:
        states.extend(app.parts if s == app.name else (s,))
    initial: list[tuple[str, Expr]] = []
    for s, pred in work.initial:
        initial.extend(((p, pred) for p in app.parts) if s == app.name else ((s, pred),))
    transitions: list[Transition] = []
    for t in work.transitions:
        if t.target == app.name:
            part, post = redirect[t.label]
            if post is not None:
                try:
                    post = resolve_names(post, scope, set(t.params))
                except UnknownName as exc:
                    raise RuleError(rule, str(exc), witness=f"redirect of {t.label!r}") from exc
                strengthened.append((t, post))
            t = replace(t, target=part, post=t.post if post is None else post)
        if t.source == app.name:
            transitions.extend(
                replace(t, label=None if t.label is None else f"{t.label}__{p}", source=p)
                for p in app.parts
            )
        else:
            transitions.append(t)

    result = replace(work, states=tuple(states), initial=tuple(initial), transitions=tuple(transitions))
    if not strengthened:
        return result, None

    def check(machine: Machine) -> None:
        # A strengthened postcondition admits a subset of the original's
        # successors, and some successor wherever the original admits one.
        for t, post in strengthened:
            for valuation, trigger, binding in machine.guarded(t):
                v = dict(valuation)
                original = set(machine.solve(t.post, v, binding))
                stronger = set(machine.solve(post, v, binding))
                where = (f"valuation {_format_valuation(valuation)}, "
                         f"trigger {'eps' if trigger is None else trigger}")
                extra = stronger - original
                if extra:
                    primed = next(p for p in machine.valuations if p in extra)
                    raise RuleError(
                        rule,
                        f"strengthened postcondition of {t.label!r} does not imply the original",
                        witness=f"{where}, primed {_format_valuation(primed)}",
                    )
                if original and not stronger:
                    raise RuleError(
                        rule,
                        f"strengthened postcondition of {t.label!r} is unsatisfiable "
                        "where the original was satisfiable",
                        witness=where,
                    )

    return result, check


def _add_transitions(work: Std, app: AddTransitions, rule: str) -> tuple[Std, Check]:
    """New transitions may only act where the machine was unspecified.

    Wherever a new external transition's guard holds, the existing machine
    has nothing enabled on the same trigger and no internal transition
    enabled; wherever a new internal transition's guard holds, it has no
    internal transition enabled and nothing enabled for any input.  The new
    transition is tested by its guard alone: where it holds but the new
    transition has no reaction, the rule rejects what it could accept, never
    the other way round, and it saves solving the new postconditions.
    """
    if not app.transitions:
        raise RuleError(rule, "no transitions to add")
    payload = _prepare_payload(app.transitions, work, rule)

    def check(machine: Machine) -> None:
        # Each question is asked once per what decides it: a payload guard by
        # `Machine.guarded`, and the machine once per (read key, trigger) by
        # `Machine.enabled`, however many payload transitions and trigger
        # instances raise it.

        # Disjointness is checked against the machine being extended, not
        # against other members of the same batch: the batch as a whole
        # claims previously unspecified situations, and may distribute them
        # among its members.
        for t in payload:
            for valuation, trigger, _ in machine.guarded(t):
                cfg = Configuration(t.source, valuation)
                for ask in [None, *machine.inputs] if t.is_internal else [trigger, None]:
                    clash = machine.enabled(cfg, ask)
                    if not clash:
                        continue
                    name = clash[0].transition.label or clash[0].transition.source
                    new = "new internal transition" if t.is_internal else "new transition"
                    where = f"state {t.source}, valuation {_format_valuation(valuation)}"
                    if ask is None:
                        raise RuleError(
                            rule, f"{new} overlaps existing internal transition {name!r}",
                            witness=where,
                        )
                    detail = ("(the machine was not unspecified there)" if t.is_internal
                              else "on the same trigger")
                    raise RuleError(
                        rule, f"{new} overlaps existing transition {name!r} {detail}",
                        witness=f"{where}, trigger {ask}",
                    )

    return replace(work, transitions=work.transitions + payload), check


def _remove_transitions(work: Std, app: RemoveTransitions, rule: str) -> tuple[Std, Check]:
    """Removed transitions must be redundant wherever they can act.

    At every reachable configuration where a removed transition's guard holds
    for one of its triggers, the kept transitions still enable an internal
    transition or, for an external one, a transition on that trigger, so the
    removal makes nothing unspecified.  The removed transition is tested by
    its guard alone, which can only reject more.
    """
    if not app.labels:
        raise RuleError(rule, "no transitions to remove")
    removed: list[Transition] = []
    seen = set()
    for label in app.labels:
        if label in seen:
            raise RuleError(rule, f"transition {label!r} listed twice")
        seen.add(label)
        t = work.transition(label)
        if t is None:
            raise RuleError(rule, f"no transition labeled {label!r}")
        removed.append(t)
    removed_set = set(removed)

    def check(machine: Machine) -> None:
        def covered(cfg: Configuration, trigger: Optional[Msg]) -> bool:
            # `enabled` decides each transition on its own, so the kept ones
            # enabled in `work` are exactly those enabled in the result;
            # reachability has asked `machine` every such question already.
            return any(e.transition not in removed_set for e in machine.enabled(cfg, trigger))

        # In canonical order, so that the witness is the least offending
        # configuration whatever the string-hash seed.
        for cfg in sorted(reachable_configurations(machine), key=config_key):
            for t in removed:
                if t.source != cfg.control:
                    continue
                for _, trigger, _ in machine.guarded(t, (cfg.valuation,)):
                    if covered(cfg, None):
                        continue
                    if trigger is None:
                        raise RuleError(
                            rule,
                            f"removing {t.label!r} leaves no internal transition where it was enabled",
                            witness=f"configuration {cfg}",
                        )
                    if not covered(cfg, trigger):
                        raise RuleError(
                            rule,
                            f"removing {t.label!r} leaves {trigger} unhandled where it was accepted",
                            witness=f"configuration {cfg}",
                        )

    kept = tuple(t for t in work.transitions if t not in removed_set)
    return replace(work, transitions=kept), check


def _remove_initial(work: Std, app: RemoveInitialStates, rule: str) -> tuple[Std, None]:
    if not app.names:
        raise RuleError(rule, "no initial markings to remove")
    marked = {s for s, _ in work.initial}
    doomed = _distinct(rule, app.names, "state", lambda n: n not in marked,
                       "is not an initial state")
    kept = tuple((s, p) for s, p in work.initial if s not in doomed)
    return replace(work, initial=kept), None


#: Each rule's name and edit.  An edit checks the application's structure
#: against the desugared machine and returns the transformed machine with
#: the side condition, or None where the application needs none.
_RULES: dict[type, tuple[str, Callable]] = {
    AddStates: ("add-states", _add_states),
    RemoveStates: ("remove-states", _remove_states),
    SplitState: ("split-state", _split_state),
    AddTransitions: ("add-transitions", _add_transitions),
    RemoveTransitions: ("remove-transitions", _remove_transitions),
    RemoveInitialStates: ("remove-initial-states", _remove_initial),
}


# ---------------------------------------------------------------------------
# Bounded refinement
# ---------------------------------------------------------------------------


def signatures_match(a: Std, b: Std) -> bool:
    return a.signature == b.signature and a.domains == b.domains


def _require_same_alphabet(ts_abstract: TraceSet, ts_concrete: TraceSet) -> None:
    if ts_abstract.inputs != ts_concrete.inputs:
        raise SignatureMismatch(
            "trace sets range over different input alphabets; refinement is "
            "only defined between machines with identical signatures and domains"
        )
    if ts_abstract.bounds != ts_concrete.bounds:
        raise SignatureMismatch("trace sets were computed under different bounds")


def trace_inclusion(ts_abstract: TraceSet, ts_concrete: TraceSet) -> Verdict:
    """Every concrete behavior is an abstract behavior, entry by entry, with
    abstract CHAOS licensing anything.  Fails on the minimal counterexample
    (shortest input sequence, then lexicographically least offending output).
    Extensions of abstract chaos are licensed, so only recorded abstract
    sequences are visited, in the canonical insertion order of `entries`; an
    abstract chaotic one is passed before the concrete side is looked up, and
    concrete chaos before one has failed already."""
    _require_same_alphabet(ts_abstract, ts_concrete)
    bounds = ts_abstract.bounds

    def fail(seq, note: str, extra=None) -> Verdict:
        output = None if extra is None else min(extra, key=seq_key)
        return Verdict(ok=False, kind="refinement", bounds=bounds,
                       witness=Witness(input=seq, output=output, note=note))

    for seq, ea in ts_abstract.entries.items():
        if ea.chaos:
            continue
        ec = ts_concrete.entry(seq)
        if ec.chaos:
            return fail(seq, "the concrete machine is unspecified (chaos) where the "
                        "abstract machine is specified")
        if ec.capped and not ea.capped:
            return fail(seq, "the concrete machine hit the output cap where the abstract "
                        "machine did not; outputs are incomparable at this bound")
        if not ec.outputs <= ea.outputs:
            return fail(seq, "concrete output is not among the abstract outputs",
                        ec.outputs - ea.outputs)
        if not ec.divergent <= ea.divergent:
            return fail(seq, "concrete divergent (budget-truncated) output has no "
                        "abstract counterpart", ec.divergent - ea.divergent)
    divergent = ts_abstract.has_divergence() or ts_concrete.has_divergence()
    note = ("internal-step budget was exhausted somewhere; the verdict covers "
            "explored behavior only") if divergent else ""
    return Verdict(ok=True, kind="refinement", bounds=bounds, note=note)


def trace_equivalence(ts_a: TraceSet, ts_b: TraceSet) -> Verdict:
    """Each trace set is included in the other: `trace_inclusion` both ways,
    `(ts_a, ts_b)` first.  A pass is the first inclusion's pass.  A failure
    is the failing inclusion with the shortlex-least witness input (the first
    on a tie), its note saying which trace set the witness calls concrete."""
    forward = trace_inclusion(ts_a, ts_b)
    backward = trace_inclusion(ts_b, ts_a)
    if forward.ok and backward.ok:
        return replace(forward, kind="trace-equivalence")
    failures = [replace(v, kind="trace-equivalence", note=note) for v, note in (
        (forward, "the second trace set is not included in the first"),
        (backward, "the first trace set is not included in the second"),
    ) if not v.ok]
    return min(failures, key=lambda v: seq_key(v.witness.input))


def check_refinement(
    abstract: Std,
    concrete: Std,
    env: Environment,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Verdict:
    """Enumerate both trace sets and decide bounded refinement."""
    if not signatures_match(abstract, concrete):
        raise SignatureMismatch(
            f"{abstract.name} and {concrete.name} have different signatures or domains"
        )
    # Machines of one declarations share their binding and enabled answers.
    bindings = Bindings(env)
    ts_abstract = traces(abstract, bindings, bounds)
    ts_concrete = traces(concrete, bindings, bounds)
    return trace_inclusion(ts_abstract, ts_concrete)
