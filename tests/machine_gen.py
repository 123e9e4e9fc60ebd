"""Seeded random generator for small diagrams and candidate rule applications.

Shared by the property suite and the acceptance gate: machines stay tiny (at
most four control states, at most two attributes over at most three values
each) so bounded trace sets stay cheap, every transition carries a label so
the split rule is always well-posed, and no environment symbols are used so
everything runs under the empty environment.
"""

from __future__ import annotations

import random

from stdrefine.model import (
    TRUE,
    AttrRef,
    BinOp,
    BoolSort,
    EnumLit,
    EnumSort,
    IntSort,
    Lit,
    MsgCtor,
    Not,
    ParamRef,
    PrimedRef,
    Signature,
    Sort,
    Std,
    Transition,
    conj,
    enumerate_sort,
    replace,
    validate_std,
)
from stdrefine.refine import (
    AddStates,
    AddTransitions,
    RemoveInitialStates,
    RemoveStates,
    RemoveTransitions,
    RuleApplication,
    SplitState,
)

HUE_DOMAIN = ("red", "green", "blue")

_CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


def _gen_sort(rng: random.Random, hue_members: tuple[str, ...]) -> Sort:
    roll = rng.random()
    if roll < 0.4:
        return BoolSort()
    if roll < 0.8:
        return IntSort(0, rng.randint(1, 2))
    del hue_members  # the sort only names the domain
    return EnumSort("Hue")


def _ground_value(rng: random.Random, sort: Sort, hue_members: tuple[str, ...]):
    values = enumerate_sort(sort, {"Hue": hue_members})
    return rng.choice(values)


def _value_expr(rng: random.Random, sort: Sort, hue_members: tuple[str, ...]):
    v = _ground_value(rng, sort, hue_members)
    if isinstance(sort, EnumSort):
        return EnumLit(v, sort.domain)
    return Lit(v)


def _same_sort(a: Sort, b: Sort) -> bool:
    if isinstance(a, BoolSort) and isinstance(b, BoolSort):
        return True
    if isinstance(a, IntSort) and isinstance(b, IntSort):
        return True  # comparisons across ranges are fine; assignment needs care
    if isinstance(a, EnumSort) and isinstance(b, EnumSort):
        return a.domain == b.domain
    return False


def _scalar_expr(rng: random.Random, sort: Sort, attrs, params, hue_members):
    """An expression of the given sort built from literals, attributes and
    trigger parameters.  For assignments we only reuse carriers whose sort is
    identical, so the result always fits the target range."""
    pool = []
    for name, s in attrs:
        if s == sort:
            pool.append(AttrRef(name))
    for name, s in params:
        if s == sort:
            pool.append(ParamRef(name))
    if pool and rng.random() < 0.6:
        return rng.choice(pool)
    return _value_expr(rng, sort, hue_members)


def _comparison(rng: random.Random, attrs, params, hue_members):
    carriers = [(AttrRef(n), s) for n, s in attrs] + [(ParamRef(n), s) for n, s in params]
    rng.shuffle(carriers)
    for lhs, sort in carriers:
        if isinstance(sort, BoolSort):
            return lhs if rng.random() < 0.5 else Not(lhs)
        if isinstance(sort, IntSort):
            op = rng.choice(_CMP_OPS)
            rhs = _scalar_expr(rng, sort, attrs, params, hue_members)
            return BinOp(op, lhs, rhs)
        if isinstance(sort, EnumSort):
            op = rng.choice(("eq", "ne"))
            rhs = _scalar_expr(rng, sort, attrs, params, hue_members)
            return BinOp(op, lhs, rhs)
    return TRUE


def gen_guard(rng: random.Random, attrs, params, hue_members, depth: int = 2):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return _comparison(rng, attrs, params, hue_members)
    if roll < 0.6:
        return Not(gen_guard(rng, attrs, params, hue_members, depth - 1))
    op = rng.choice(("and", "or"))
    return BinOp(
        op,
        gen_guard(rng, attrs, params, hue_members, depth - 1),
        gen_guard(rng, attrs, params, hue_members, depth - 1),
    )


def gen_post(rng: random.Random, attrs, params, hue_members):
    """A postcondition that pins most attributes; an unpinned attribute makes
    the transition relational (one reaction per leftover value).  Some Int
    attributes are pinned to ``x + 1``, which leaves the range at its top:
    there the guard may hold while the transition has no reaction."""
    terms = []
    for name, sort in attrs:
        if rng.random() < 0.75:
            if isinstance(sort, IntSort) and rng.random() < 0.3:
                rhs = BinOp("add", AttrRef(name), Lit(1))
            else:
                rhs = _scalar_expr(rng, sort, attrs, params, hue_members)
            terms.append(BinOp("eq", PrimedRef(name), rhs))
    return conj(*terms)


def _gen_transition(rng, label, states, sig, attrs, hue_members) -> Transition:
    source = rng.choice(states)
    target = rng.choice(states)
    internal = rng.random() < 0.25
    if internal:
        trigger = None
        params: tuple[tuple[str, Sort], ...] = ()
    else:
        ctor = rng.choice(sig.inputs)
        trigger = ctor.name
        params = tuple((f"p{i}", s) for i, s in enumerate(ctor.params))
    guard = gen_guard(rng, attrs, params, hue_members) if rng.random() < 0.7 else TRUE
    outputs = []
    for _ in range(rng.randint(0, 2)):
        out = rng.choice(sig.outputs)
        outputs.append((out.name, ()))
    post = gen_post(rng, attrs, params, hue_members)
    return Transition(
        label=label,
        source=source,
        target=target,
        trigger=trigger,
        params=tuple(n for n, _ in params),
        guard=guard,
        outputs=tuple(outputs),
        post=post,
    )


def gen_std(rng: random.Random, name: str = "gen") -> Std:
    """A small valid diagram: 2..4 states, 0..2 attributes, 1..3 input
    constructors (arity at most one), 1..2 nullary outputs, 2..6 labeled
    transitions, 1..2 initial states with trivial initial predicates."""
    hue_members = tuple(HUE_DOMAIN[: rng.randint(2, 3)])
    n_states = rng.randint(2, 4)
    states = tuple(f"s{i}" for i in range(n_states))

    attrs = tuple(
        (f"x{i}", _gen_sort(rng, hue_members)) for i in range(rng.randint(0, 2))
    )

    inputs = []
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            inputs.append(MsgCtor(f"m{i}", (_gen_sort(rng, hue_members),)))
        else:
            inputs.append(MsgCtor(f"m{i}"))
    outputs = [MsgCtor(f"o{i}") for i in range(rng.randint(1, 2))]
    sig = Signature(inputs=tuple(inputs), outputs=tuple(outputs))

    transitions = tuple(
        _gen_transition(rng, f"t{i}", states, sig, attrs, hue_members)
        for i in range(rng.randint(2, 6))
    )

    n_init = rng.randint(1, 2)
    initial = tuple((states[i], TRUE) for i in range(n_init))

    std = Std(
        name=name,
        domains=(("Hue", hue_members),) if _uses_hue(attrs, sig) else (),
        uses=(),
        signature=sig,
        attributes=attrs,
        states=states,
        initial=initial,
        transitions=transitions,
    )
    problems = validate_std(std)
    if problems:  # pragma: no cover - generator invariant
        raise AssertionError(f"generated an invalid diagram: {problems}")
    return std


def _uses_hue(attrs, sig: Signature) -> bool:
    if any(isinstance(s, EnumSort) for _, s in attrs):
        return True
    for c in sig.inputs + sig.outputs:
        if any(isinstance(s, EnumSort) for s in c.params):
            return True
    return False


# ---------------------------------------------------------------------------
# Candidate rule applications
# ---------------------------------------------------------------------------


def _fresh_names(std: Std, count: int) -> tuple[str, ...]:
    taken = set(std.states)
    out = []
    i = 0
    while len(out) < count:
        cand = f"n{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return tuple(out)


def _fresh_label(std: Std, rng: random.Random) -> str:
    taken = {t.label for t in std.transitions}
    i = rng.randint(0, 99)
    while f"t{i}" in taken:
        i += 1
    return f"t{i}"


def _attr_pairs(std: Std):
    return tuple(std.attributes)


def _hue_members(std: Std) -> tuple[str, ...]:
    return dict(std.domains).get("Hue", tuple(HUE_DOMAIN[:2]))


def gen_application(rng: random.Random, std: Std) -> RuleApplication:
    """Propose one rule application.  Proposals satisfy the cheap structural
    preconditions by construction; the semantic side conditions (guard
    disjointness, reachability, satisfiability) are left to apply_rule, so a
    proposal may legitimately be rejected."""
    kinds = [
        "add-states",
        "add-states-wired",
        "add-transitions",
        "remove-transitions",
        "split-state",
        "remove-initial-states",
        "remove-states",
    ]
    kind = rng.choice(kinds)
    attrs = _attr_pairs(std)
    hue = _hue_members(std)

    if kind == "add-states":
        return AddStates(names=_fresh_names(std, rng.randint(1, 2)))

    if kind == "add-states-wired":
        a, b = _fresh_names(std, 2)
        eps_or_msg = rng.random() < 0.5
        ctor = rng.choice(std.signature.inputs)
        t = Transition(
            label=_fresh_label(std, rng),
            source=a,
            target=b,
            trigger=None if eps_or_msg else ctor.name,
            params=()
            if eps_or_msg
            else tuple(f"p{i}" for i in range(len(ctor.params))),
            guard=TRUE,
            outputs=(),
            post=gen_post(rng, attrs, (), hue),
        )
        return AddStates(names=(a, b), transitions=(t,))

    if kind == "add-transitions":
        t = _gen_transition(rng, _fresh_label(std, rng), list(std.states), std.signature, attrs, hue)
        return AddTransitions(transitions=(t,))

    if kind == "remove-transitions":
        if not std.transitions:
            return AddStates(names=_fresh_names(std, 1))
        t = rng.choice(std.transitions)
        return RemoveTransitions(labels=(t.label,))

    if kind == "split-state":
        name = rng.choice(std.states)
        parts = tuple(f"{name}_{suffix}" for suffix in ("a", "b"))
        incoming = [t.label for t in std.transitions if t.target == name]
        redirects = tuple((lab, rng.choice(parts), None) for lab in sorted(set(incoming)))
        return SplitState(name=name, parts=parts, redirects=redirects)

    if kind == "remove-initial-states":
        if len(std.initial) >= 2:
            victim = rng.choice([s for s, _ in std.initial])
            return RemoveInitialStates(names=(victim,))
        return AddStates(names=_fresh_names(std, 1))

    # remove-states: prefer a state that nothing targets and that is not
    # initial (guaranteed unreachable); otherwise propose a random state and
    # let the reachability check reject it.
    targeted = {t.target for t in std.transitions}
    marked = {s for s, _ in std.initial}
    isolated = [s for s in std.states if s not in targeted and s not in marked]
    victim = rng.choice(isolated) if isolated else rng.choice(std.states)
    return RemoveStates(names=(victim,))


def gen_wiring(rng: random.Random, std: Std) -> tuple[str, Transition]:
    """A fresh state name and a transition into it from an old state.
    `AddStates` must reject the pair as one proposal (the transition would
    make the new state reachable); `AddStates` of the name and then
    `AddTransitions` of the transition is the wiring the rules may accept.
    Kept apart from `gen_application`, whose seeded streams the tests pin."""
    (fresh,) = _fresh_names(std, 1)
    t = _gen_transition(
        rng, _fresh_label(std, rng), list(std.states), std.signature,
        _attr_pairs(std), _hue_members(std),
    )
    return fresh, replace(t, target=fresh)
