"""Brute-force reference semantics for cross-checking the interpreter.

The oracle re-derives the transition relation the slow way: it enumerates
every post-state valuation with itertools.product instead of the library's
valuation helpers, rebuilds parameter bindings by hand, and folds internal
steps with a plain recursion.  Expression evaluation is shared (re-specifying
arithmetic would test nothing); everything above it is independent.
"""

from __future__ import annotations

import itertools

from stdrefine.model import (
    AttrRef,
    BinOp,
    Configuration,
    Cons,
    Defined,
    Head,
    Len,
    ListLit,
    Msg,
    Neg,
    Not,
    ParamRef,
    PrimedRef,
    Std,
    SymApp,
    Tail,
    Undefined,
    bind_environment,
    desugar,
    enumerate_sort,
    eval_expr,
    message_instances,
    msg_key,
)
from stdrefine.features import FeatureApplyError
from stdrefine.interp import CHAOS_ENTRY, Bounds, Entry
from stdrefine.refine import RuleError, apply_rule


def make_config(control, values):
    """The configuration at `control` with the attribute values of `values`."""
    return Configuration(control, tuple(sorted(values.items())))


def oracle_nodes(expr):
    """`expr` and every sub-expression, in pre-order, by plain recursion over
    each composite node kind."""
    yield expr
    if isinstance(expr, BinOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, Cons):
        children = (expr.head, expr.tail)
    elif isinstance(expr, SymApp):
        children = expr.args
    elif isinstance(expr, ListLit):
        children = expr.items
    elif isinstance(expr, (Not, Neg, Defined, Head, Tail, Len)):
        children = (expr.arg,)
    else:
        children = ()
    for child in children:
        yield from oracle_nodes(child)


def oracle_reads(*exprs):
    """Reference `model.reads`: the attributes read unprimed, the parameters
    read and the number of primed references, over `oracle_nodes`."""
    nodes = [n for e in exprs for n in oracle_nodes(e)]
    return (
        {n.name for n in nodes if isinstance(n, AttrRef)},
        {n.name for n in nodes if isinstance(n, ParamRef)},
        sum(isinstance(n, PrimedRef) for n in nodes),
    )


def oracle_rebuild(expr, leaf):
    """`expr` rebuilt bottom-up by each composite node's own constructor,
    with `leaf` applied to every leaf."""
    def rebuild(e):
        return oracle_rebuild(e, leaf)

    if isinstance(expr, BinOp):
        return BinOp(expr.op, rebuild(expr.left), rebuild(expr.right))
    if isinstance(expr, Cons):
        return Cons(rebuild(expr.head), rebuild(expr.tail))
    if isinstance(expr, SymApp):
        return SymApp(expr.name, tuple(map(rebuild, expr.args)))
    if isinstance(expr, ListLit):
        return ListLit(tuple(map(rebuild, expr.items)))
    if isinstance(expr, (Not, Neg, Defined, Head, Tail, Len)):
        return type(expr)(rebuild(expr.arg))
    return leaf(expr)


def _post_valuations(std: Std):
    """Every attribute valuation, via a raw cartesian product."""
    domains = std.domain_map()
    names = [n for n, _ in std.attributes]
    pools = [enumerate_sort(s, domains) for _, s in std.attributes]
    out = []
    for combo in itertools.product(*pools):
        out.append(dict(zip(names, combo)))
    return out


def oracle_enabled(std: Std, config, trigger: Msg | None, env):
    """Set of (label, binding, reactions) for every productive transition
    enabled at `config` under `trigger` (None = internal).  A transition is
    productive when its guard holds, every output evaluates to a value, and
    at least one post-state satisfies its postcondition."""
    std = desugar(std)
    tables, problems = bind_environment(std, env)
    if problems:
        raise ValueError("; ".join(problems))
    valuation = config.value_map()
    results = set()
    for t in std.transitions:
        if t.source != config.control:
            continue
        if trigger is None:
            if t.trigger is not None:
                continue
            params: dict = {}
        else:
            if t.trigger != trigger.ctor or len(t.params) != len(trigger.args):
                continue
            params = dict(zip(t.params, trigger.args))
        if eval_expr(t.guard, valuation, tables, params=params) is not True:
            continue
        outs = []
        bad_output = False
        for oname, oargs in t.outputs:
            vals = []
            for a in oargs:
                v = eval_expr(a, valuation, tables, params=params)
                if v is Undefined:
                    bad_output = True
                    break
                vals.append(v)
            if bad_output:
                break
            outs.append(Msg(oname, tuple(vals)))
        if bad_output:
            continue
        reactions = set()
        for primed in _post_valuations(std):
            if eval_expr(t.post, valuation, tables, primed=primed, params=params) is True:
                reactions.add((tuple(outs), make_config(t.target, primed)))
        if reactions:
            results.add((t.label, tuple(sorted(params.items())), frozenset(reactions)))
    return results


def oracle_guarded(std: Std, t, env):
    """Reference `Machine.guarded`: each (valuation, trigger, binding) at which
    the guard of `t` evaluates to True.  The triggers are the input instances
    with t's constructor in `msg_key` order, or None for eps; within each,
    every valuation of a raw cartesian product, as a sorted tuple."""
    std = desugar(std)
    tables, problems = bind_environment(std, env)
    if problems:
        raise ValueError("; ".join(problems))
    if t.trigger is None:
        triggers = [None]
    else:
        instances = message_instances(std.signature.inputs, std.domain_map())
        triggers = sorted((m for m in instances if m.ctor == t.trigger), key=msg_key)
    out = []
    for trigger in triggers:
        params = {} if trigger is None else dict(zip(t.params, trigger.args))
        for valuation in _post_valuations(std):
            if eval_expr(t.guard, valuation, tables, params=params) is True:
                out.append((tuple(sorted(valuation.items())), trigger, params))
    return out


def oracle_step(std: Std, config, message: Msg, env, bounds: Bounds):
    """Reference one-message step: (reactions, divergent, chaotic, touched).

    reactions: set of (complete outputs, configuration after consumption);
    divergent: output prefixes of branches the internal-step budget cut off;
    chaotic: some branch reached a configuration with nothing productive;
    touched: `oracle_touched` at the step's internal-step budget.
    """
    std = desugar(std)
    memo: dict = {}

    def explore(cfg, allowance: int):
        key = (cfg, allowance)
        if key in memo:
            return memo[key]
        ext = oracle_enabled(std, cfg, message, env)
        eps = oracle_enabled(std, cfg, None, env)
        reactions = set()
        divergent = set()
        chaotic = False
        for _lab, _bind, rs in ext:
            reactions |= set(rs)
        if not ext and not eps:
            chaotic = True
        elif eps:
            if allowance == 0:
                divergent.add(())
            else:
                for _lab, _bind, rs in eps:
                    for outs, succ in rs:
                        sub_r, sub_d, sub_c = explore(succ, allowance - 1)
                        chaotic = chaotic or sub_c
                        for souts, ssucc in sub_r:
                            reactions.add((outs + souts, ssucc))
                        for souts in sub_d:
                            divergent.add(outs + souts)
        memo[key] = (frozenset(reactions), frozenset(divergent), chaotic)
        return memo[key]

    reactions, divergent, chaotic = explore(config, bounds.eps_budget)
    return reactions, divergent, chaotic, oracle_touched(std, config, message, env, bounds.eps_budget)


def oracle_touched(std: Std, config, message: Msg, env, eps_budget: int):
    """The configurations occupied while `message` is processed from
    `config`: breadth-first over `oracle_enabled`, internal chains of at most
    `eps_budget` hops run while it is pending, and every configuration on
    such a chain, or reached by consuming the message, is touched."""
    std = desugar(std)
    touched = set()
    chain = {config}
    frontier = [config]
    hops = 0
    while True:
        for cfg in frontier:
            for _lab, _bind, rs in oracle_enabled(std, cfg, message, env):
                touched |= {succ for _, succ in rs}
        if hops == eps_budget:
            break
        nxt = []
        for cfg in frontier:
            for _lab, _bind, rs in oracle_enabled(std, cfg, None, env):
                for _, succ in rs:
                    touched.add(succ)
                    if succ not in chain:
                        chain.add(succ)
                        nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
        hops += 1
    return touched


def all_configs(std: Std):
    """Every configuration: control states crossed with all valuations."""
    return [
        make_config(state, valuation)
        for state in std.states
        for valuation in _post_valuations(std)
    ]


def input_closure(inputs, k: int):
    """Every input sequence over `inputs` of length at most k, by raw
    cartesian product (shorter first)."""
    return [seq for n in range(k + 1) for seq in itertools.product(inputs, repeat=n)]


def _inputs_and_initial(std: Std, env):
    """The desugared diagram, its input messages and its initial
    configurations under `env`, by raw enumeration of valuations."""
    std = desugar(std)
    tables, problems = bind_environment(std, env)
    if problems:
        raise ValueError("; ".join(problems))
    inputs = message_instances(std.signature.inputs, std.domain_map())
    initial = {
        make_config(state, valuation)
        for state, pred in std.initial
        for valuation in _post_valuations(std)
        if eval_expr(pred, valuation, tables) is True
    }
    return std, inputs, initial


def oracle_reachable(std: Std, env, depth: int, eps_budget: int):
    """Reference bounded reachability: breadth-first over `oracle_enabled`.

    From each configuration reached so far, every input message may be
    processed, reaching what `oracle_touched` touches.  Depth 0 is the
    initial configurations.
    """
    std, inputs, reached = _inputs_and_initial(std, env)
    layer = set(reached)
    explored: dict = {}
    for _ in range(depth):
        nxt = set()
        for c in layer:
            if c not in explored:
                explored[c] = set()
                for m in inputs:
                    explored[c] |= oracle_touched(std, c, m, env, eps_budget)
            nxt |= explored[c]
        reached |= nxt
        if nxt <= explored.keys():
            break
        layer = nxt
    return reached


def oracle_traces(std: Std, env, bounds: Bounds):
    """Reference trace set: the (entries, reached) that `machine_traces`
    records, by plain enumeration.

    Every input sequence of `input_closure` is run from the initial
    configurations, every branch stepped with `oracle_step` (memoised per
    full configuration and message).  A sequence with a chaotic proper
    prefix is not recorded, since chaos is recorded once, at the shortest
    chaotic input.  Divergent outputs of any step are inherited by the rest
    of the sequence.  Outputs longer than the output cap are clipped and the
    entry flagged.  `reached` is the initial configurations and everything
    the steps of non-chaotic sequences touch.
    """
    std, inputs, initial = _inputs_and_initial(std, env)
    steps: dict = {}
    cap = bounds.output_cap
    entries: dict = {}
    reached = set(initial)
    for seq in input_closure(inputs, bounds.max_input_len):
        if any(entries[seq[:cut]].chaos for cut in range(len(seq))):
            continue
        branches = {(c, ()) for c in initial}
        divergent: set = set()
        touched: set = set()
        chaotic = False
        for m in seq:
            after = set()
            for cfg, u in branches:
                if (cfg, m) not in steps:
                    steps[(cfg, m)] = oracle_step(std, cfg, m, env, bounds)
                reactions, div, chaos, tch = steps[(cfg, m)]
                chaotic = chaotic or chaos
                touched |= tch
                after |= {(succ, u + outs) for outs, succ in reactions}
                divergent |= {u + outs for outs in div}
            branches = after
        if chaotic:
            entries[seq] = CHAOS_ENTRY
            continue
        reached |= touched
        words = {u for _, u in branches} | divergent
        entries[seq] = Entry(
            chaos=False,
            outputs=frozenset(u[:cap] for _, u in branches),
            divergent=frozenset(u[:cap] for u in divergent),
            capped=any(len(u) > cap for u in words),
        )
    return entries, reached


def oracle_apply_feature(std: Std, patch, env):
    """`apply_feature` as the plain fold of `apply_rule`, each rule validating
    its whole result: the reference for a fold that sort-checks, after the
    first rule, only what each rule adds."""
    work = std
    for i, app in enumerate(patch.applications):
        try:
            work = apply_rule(work, app, env)
        except RuleError as exc:
            raise FeatureApplyError(patch.name, i, exc) from exc
    return work
