"""Command-line interface to the toolchain.

Subcommands: ``check`` (validate a machine and report its desugared shape),
``simulate`` (run one input sequence), ``refine verify`` (bounded trace
inclusion), ``refine apply`` (apply a feature patch), ``feature conflicts``
(pairwise conflict matrix), and ``export dot|json``.

Exit codes: 0 success / check passed; 1 a check failed or a conflict was
found (a report is still printed), or a rule application was rejected, a
patch that does not sort-check against its machine included; 2 usage,
parse, or sort error in an input file; 3 a resource bound was exceeded.
Results go to stdout, diagnostics to stderr, and identical invocations
produce byte-identical output.  Every report names the bounds its run read,
so verdicts are reproducible: ``check`` reads none, and ``simulate``'s input
length bound is the length of its input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .features import apply_feature, conflict_matrix, conflict_to_json
from .interp import (
    DEFAULT_BOUNDS,
    Bounds,
    ResourceLimit,
    dump_json,
    format_sequence,
    seq_key,
    simulate_prefixes,
    traceset_to_json,
    verdict_to_json,
)
from .model import EMPTY_ENV, ElseGuard, TRUE
from .refine import RuleError, check_refinement
from .textlang import (
    ParseFailure,
    export_dot,
    parse_env,
    parse_feature,
    parse_messages,
    parse_std,
    print_expr,
    print_std,
    std_to_json,
)

EXIT_PASS = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _CliFailure(Exception):
    """Diagnostics plus the exit code they warrant."""

    def __init__(self, code: int, lines: list[str]) -> None:
        super().__init__("; ".join(lines))
        self.code = code
        self.lines = lines


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _CliFailure(EXIT_USAGE, [f"{path}: {e.strerror or e}"]) from e


def _parsed(parse, label: str, text: str, **kwargs):
    """`parse(text, **kwargs)`; a `ParseFailure` is a usage error with one
    `label: error` line per error."""
    try:
        return parse(text, **kwargs)
    except ParseFailure as pf:
        raise _CliFailure(EXIT_USAGE, [f"{label}: {e}" for e in pf.errors]) from pf


def _load(parse, path: str, **kwargs):
    return _parsed(parse, path, _read_text(path), **kwargs)


def _bounds(args: argparse.Namespace) -> Bounds:
    return Bounds(args.k, args.eps_budget, args.output_cap, args.state_cap)


#: (option, `Bounds` field, help) of each exploration bound a command may read
_BOUND_OPTIONS = (
    ("--k", "max_input_len", "input length bound"),
    ("--eps-budget", "eps_budget", "internal steps allowed per message"),
    ("--output-cap", "output_cap", "recorded output-sequence length cap"),
)


def _add_common(sub: argparse.ArgumentParser, *bounds: str) -> None:
    """--env, the named exploration `bounds`, --state-cap and --json; a
    command takes only the bounds its run reads."""
    sub.add_argument("--env", metavar="FILE", help="environment file (.env); default: empty")
    for option, field, text in _BOUND_OPTIONS:
        if option in bounds:
            default = getattr(DEFAULT_BOUNDS, field)
            sub.add_argument(option, type=int, default=default, metavar="N",
                             help=f"{text} (default {default})")
    sub.add_argument("--state-cap", type=int, metavar="N",
                     help="abort once more configurations are reached (default: unlimited)")
    _add_json(sub)


def _add_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a schema-tagged JSON report")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    std = _load(parse_std, args.file)
    if args.json:
        sys.stdout.write(dump_json(std_to_json(std)))
        return EXIT_PASS
    external = sum(1 for t in std.transitions if not t.is_internal)
    internal = len(std.transitions) - external
    lines = [
        f"check {args.file}: ok",
        f"  machine {std.name}: {len(std.states)} states, "
        f"{len(std.transitions)} transitions ({external} external, {internal} internal)",
        "  inputs:  " + " | ".join(map(str, std.signature.inputs)),
        "  outputs: " + " | ".join(map(str, std.signature.outputs)),
    ]
    if std.attributes:
        lines.append(
            "  attributes: "
            + ", ".join(f"{n} :: {s}" for n, s in std.attributes)
        )
    inits = []
    for name, pred in std.initial:
        inits.append(name if pred == TRUE else f"{name} {{{print_expr(pred)}}}")
    lines.append("  initial: " + ", ".join(inits))
    rewritten = [
        t.label or f"{t.source}->{t.target}"
        for t in std.transitions
        if t.priority is not None or isinstance(t.guard, ElseGuard)
    ]
    if rewritten:
        lines.append(
            f"  desugaring: rewrites {len(rewritten)} guard(s): " + ", ".join(rewritten)
        )
    else:
        lines.append("  desugaring: nothing to rewrite")
    print("\n".join(lines))
    return EXIT_PASS


def _cmd_simulate(args: argparse.Namespace) -> int:
    std = _load(parse_std, args.file)
    env = EMPTY_ENV if args.env is None else _load(parse_env, args.env)
    msgs = _parsed(parse_messages, "--input", args.input)
    bounds = Bounds(eps_budget=args.eps_budget, output_cap=args.output_cap,
                    state_cap=args.state_cap)
    ts = simulate_prefixes(std, env, msgs, bounds)
    if args.json:
        sys.stdout.write(dump_json(traceset_to_json(ts)))
        return EXIT_PASS
    entry = ts.entry(msgs)
    lines = [
        f"simulate {std.name} on {format_sequence(msgs)}",
        f"  bounds: {ts.bounds.describe()}",
    ]
    if entry.chaos:
        lines.append(
            "  CHAOS: the machine is unspecified at this input; any behavior is allowed"
        )
    else:
        lines.append(f"  outputs ({len(entry.outputs)}):")
        for o in sorted(entry.outputs, key=seq_key):
            lines.append(f"    {format_sequence(o)}")
        for o in sorted(entry.divergent, key=seq_key):
            lines.append(
                f"    {format_sequence(o)} (diverged: internal-step budget exhausted)"
            )
        if entry.capped:
            lines.append(
                f"  note: output sequences clipped at the recording cap ({bounds.output_cap})"
            )
    print("\n".join(lines))
    return EXIT_PASS


def _cmd_refine_verify(args: argparse.Namespace) -> int:
    abstract = _load(parse_std, args.abstract)
    concrete = _load(parse_std, args.concrete)
    env = EMPTY_ENV if args.env is None else _load(parse_env, args.env)
    bounds = _bounds(args)
    verdict = check_refinement(abstract, concrete, env, bounds)
    if args.json:
        sys.stdout.write(dump_json(verdict_to_json(verdict)))
    else:
        print(verdict.describe())
    return EXIT_PASS if verdict.ok else EXIT_FAILED


def _cmd_refine_apply(args: argparse.Namespace) -> int:
    std = _load(parse_std, args.file)
    patch = _load(parse_feature, args.patch, base=std)
    env = EMPTY_ENV if args.env is None else _load(parse_env, args.env)
    result = apply_feature(std, patch, env, Bounds(state_cap=args.state_cap))
    text = dump_json(std_to_json(result)) if args.json else print_std(result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _CliFailure(EXIT_USAGE, [f"{args.output}: {e.strerror or e}"]) from e
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_feature_conflicts(args: argparse.Namespace) -> int:
    if len(args.patches) < 2:
        raise _CliFailure(
            EXIT_USAGE, ["feature conflicts needs at least two patch files"]
        )
    std = _load(parse_std, args.file)
    patches = tuple(_load(parse_feature, p, base=std) for p in args.patches)
    env = EMPTY_ENV if args.env is None else _load(parse_env, args.env)
    bounds = _bounds(args)
    reports = conflict_matrix(std, patches, env, bounds)
    any_conflict = any(r.is_conflict for _, r in reports)
    if args.json:
        sys.stdout.write(dump_json([conflict_to_json(r) for _, r in reports]))
    else:
        lines = [
            f"feature conflicts on {std.name}: {len(patches)} patches, "
            f"{len(reports)} pairs (bounds: {bounds.describe()})"
        ]
        for (i, j), r in reports:
            lines.append(f"  {patches[i].name} x {patches[j].name}: {r.verdict}")
            lines.extend(f"    {e}" for e in r.evidence)
        print("\n".join(lines))
    return EXIT_FAILED if any_conflict else EXIT_PASS


def _cmd_export(args: argparse.Namespace) -> int:
    std = _load(parse_std, args.file)
    sys.stdout.write(export_dot(std) if args.format == "dot" else dump_json(std_to_json(std)))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stdrefine",
        description=(
            "State-transition-diagram toolchain: validate and simulate machines, "
            "verify and apply refinements, detect feature conflicts, export diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_check = sub.add_parser(
        "check", help="parse and validate a machine, report its desugared shape"
    )
    p_check.add_argument("file", metavar="FILE")
    _add_json(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_sim = sub.add_parser(
        "simulate", help="run one input sequence and print the possible outputs"
    )
    p_sim.add_argument("file", metavar="FILE")
    p_sim.add_argument(
        "--input",
        required=True,
        metavar="MSGS",
        help='comma-separated messages, e.g. "LT,DL(7)" or "call(d1,d2),abandon"',
    )
    _add_common(p_sim, "--eps-budget", "--output-cap")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_refine = sub.add_parser("refine", help="verify or apply refinements")
    refine_sub = p_refine.add_subparsers(
        dest="refine_command", required=True, metavar="ACTION"
    )
    p_verify = refine_sub.add_parser(
        "verify", help="check bounded trace inclusion: ABSTRACT is refined by CONCRETE"
    )
    p_verify.add_argument("abstract", metavar="ABSTRACT")
    p_verify.add_argument("concrete", metavar="CONCRETE")
    _add_common(p_verify, "--k", "--eps-budget", "--output-cap")
    p_verify.set_defaults(handler=_cmd_refine_verify)
    p_apply = refine_sub.add_parser(
        "apply", help="apply a feature patch file and print the resulting machine"
    )
    p_apply.add_argument("file", metavar="FILE")
    p_apply.add_argument("patch", metavar="PATCHFILE")
    p_apply.add_argument(
        "--output", metavar="OUT", help="write the result here instead of stdout"
    )
    _add_common(p_apply)
    p_apply.set_defaults(handler=_cmd_refine_apply)

    p_feature = sub.add_parser("feature", help="feature-level operations")
    feature_sub = p_feature.add_subparsers(
        dest="feature_command", required=True, metavar="ACTION"
    )
    p_conf = feature_sub.add_parser(
        "conflicts", help="pairwise conflict matrix for two or more feature patches"
    )
    p_conf.add_argument("file", metavar="FILE")
    p_conf.add_argument("patches", nargs="+", metavar="PATCHFILE")
    _add_common(p_conf, "--k", "--eps-budget", "--output-cap")
    p_conf.set_defaults(handler=_cmd_feature_conflicts)

    p_export = sub.add_parser("export", help="export a machine as DOT or JSON")
    p_export.add_argument("format", choices=("dot", "json"))
    p_export.add_argument("file", metavar="FILE")
    p_export.set_defaults(handler=_cmd_export)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliFailure as failure:
        for line in failure.lines:
            print(line, file=sys.stderr)
        return failure.code
    except ResourceLimit as rl:
        print(f"resource bound exceeded: {rl}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuleError as err:
        print(str(err), file=sys.stderr)
        return EXIT_FAILED
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
