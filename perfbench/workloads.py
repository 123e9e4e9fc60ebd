"""The benchmark's workloads, their inputs and their known answers.

Each workload yields cycles: lists of operations.  An operation runs one
request against stdrefine's public API (or its command line) and returns the
bytes of its serialized result plus a failure reason, or None when the result
matches the known answer.  The shipped corpus is read from the checkout's own
`src/stdrefine/corpus`.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import stdrefine as sr
import stdrefine.cli
from stdrefine.features import conflict_to_json
from stdrefine.interp import dump_json, verdict_to_json

import machine_gen

#: chain pairs of scripts/run_chain.py, then the reversed pair that must fail
CHAIN_PAIRS = ((0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (0, 5), (1, 0))
CHAIN_WITNESS = {(1, 0): ("call", "abandon")}

K4 = sr.Bounds(max_input_len=4, eps_budget=4, output_cap=16)
#: one internal step per message: at the scripts' eps-budget of 4, about one
#: generated machine in a few hundred explodes into millions of output
#: branches and runs for minutes, which no time-boxed run can hold
SWEEP_BOUNDS = sr.Bounds(max_input_len=3, eps_budget=1, output_cap=64)
SWEEP_PROPOSALS = 3
SWEEP_BATCH = 20
EMPTY_ENV = sr.make_environment({}, {}, {})

FEATURES = ("abandon", "split-connect", "forwarding", "blocking")
CORPUS = "src/stdrefine/corpus"
WORK_DIR = ".perfbench-work"


@dataclass(frozen=True)
class Op:
    key: str  # stable name; the digest orders results by it
    run: Callable[[], tuple[bytes, Optional[str]]]


@dataclass
class Corpus:
    stds: dict
    patches: dict
    envs: dict
    steps: list
    step1_text: str


def setup() -> Corpus:
    """Parse the shipped corpus and rebuild the six chain steps.

    This repeats `callproc.build_step` through the public API, so every call
    does the work again instead of hitting build_step's cache."""
    text = sr.corpus_text
    stds = {n: sr.parse_std(text(f"{n}.std")) for n in ("callproc", "tel", "stack", "duo")}
    envs = {n: sr.parse_env(text(f"{n}.env")) for n in ("default", "quiet")}
    patches = {n: sr.parse_feature(text(f"{n}.feat"), base=stds["callproc"]) for n in FEATURES}
    for n in ("conflict-left", "conflict-right"):
        patches[n] = sr.parse_feature(text(f"{n}.feat"), base=stds["duo"])
    steps = [stds["callproc"]]
    for n in range(1, 6):
        feature, prev = sr.STEP_FEATURES[n]
        steps.append(sr.apply_feature(steps[prev], patches[feature], envs["default"],
                                      sr.DEFAULT_BOUNDS))
    return Corpus(stds, patches, envs, steps, sr.print_std(steps[1]))


def _verdict_bytes(verdict) -> bytes:
    return dump_json(verdict_to_json(verdict)).encode()


# ---------------------------------------------------------------------------
# chain: deep enumeration over the refinement chain
# ---------------------------------------------------------------------------


def _chain_op(corpus: Corpus, a: int, c: int) -> Op:
    witness = CHAIN_WITNESS.get((a, c))

    def run():
        v = sr.check_refinement(corpus.steps[a], corpus.steps[c], corpus.envs["default"], K4)
        if witness is None:
            fail = None if v.ok else f"expected a pass, got: {v.describe()}"
        elif v.ok or v.witness is None:
            fail = "expected a failing verdict with a witness"
        else:
            got = tuple(m.ctor for m in v.witness.input)
            fail = None if got == witness else f"witness input {got}, expected {witness}"
        return _verdict_bytes(v), fail

    return Op(f"chain {a}=>{c}", run)


def chain_ops(corpus: Corpus) -> list[Op]:
    return [_chain_op(corpus, a, c) for a, c in CHAIN_PAIRS]


# ---------------------------------------------------------------------------
# conflicts: feature interaction and dormant-feature equivalence
# ---------------------------------------------------------------------------


def _conflict_op(key, base, f1, f2, env, expected) -> Op:
    def run():
        report = sr.detect_conflict(base, f1, f2, env, K4)
        fail = None if report.verdict == expected else (
            f"verdict {report.verdict}, expected {expected}")
        return dump_json(conflict_to_json(report)).encode(), fail

    return Op(key, run)


def conflicts_ops(corpus: Corpus) -> list[Op]:
    p, steps, quiet = corpus.patches, corpus.steps, corpus.envs["quiet"]

    def dormant():
        v = sr.trace_equivalence(sr.traces(steps[5], quiet, K4), sr.traces(steps[2], quiet, K4))
        return _verdict_bytes(v), None if v.ok else f"expected equivalence: {v.describe()}"

    return [
        _conflict_op("conflict forwarding x blocking", steps[2], p["forwarding"],
                     p["blocking"], corpus.envs["default"], "compatible"),
        _conflict_op("conflict left x right", corpus.stds["duo"], p["conflict-left"],
                     p["conflict-right"], EMPTY_ENV, "conflicting"),
        Op("dormant step 5 == step 2", dormant),
    ]


# ---------------------------------------------------------------------------
# sweep: many small random machines, rule proposals and their verdicts
# ---------------------------------------------------------------------------


def _sweep_op(i: int, std, applications) -> Op:
    def run():
        monotone = sr.check_monotone(sr.traces(std, EMPTY_ENV, SWEEP_BOUNDS))
        parts = [_verdict_bytes(monotone)]
        fails = [] if monotone.ok else [f"monotonicity violation: {monotone.describe()}"]
        for app in applications:
            try:
                result = sr.apply_rule(std, app, EMPTY_ENV)
            except sr.RuleError as exc:
                parts.append(f"rejected: {exc}".encode())
                continue
            v = sr.check_refinement(std, result, EMPTY_ENV, SWEEP_BOUNDS)
            parts.append(_verdict_bytes(v))
            if not v.ok:
                fails.append(f"soundness violation via {type(app).__name__}: {v.describe()}")
        return b"\n".join(parts), "; ".join(fails) or None

    return Op(f"machine {i:06d}", run)


def sweep_batches(seed: int) -> Iterator[list[Op]]:
    """soundness_sweep.py's loop with the frozen generator: each machine is
    followed by its rule proposals in the same random stream."""
    rng = random.Random(seed)
    i = 0
    while True:
        batch = []
        for _ in range(SWEEP_BATCH):
            std = machine_gen.gen_std(rng, name=f"gen{i}")
            apps = [machine_gen.gen_application(rng, std) for _ in range(SWEEP_PROPOSALS)]
            batch.append(_sweep_op(i, std, apps))
            i += 1
        yield batch


# ---------------------------------------------------------------------------
# cli: the console over the shipped corpus
# ---------------------------------------------------------------------------


def cli_calls(corpus: Corpus) -> list[tuple[list[str], int, Optional[str]]]:
    """(arguments, expected exit code, expected stdout or None)."""
    c = CORPUS
    step1 = f"{WORK_DIR}/step1.std"
    return [
        (["check", f"{c}/callproc.std"], 0, None),
        (["simulate", f"{c}/tel.std", "--input", "LT,DL(7)"], 0, None),
        (["refine", "verify", f"{c}/callproc.std", step1, "--env", f"{c}/default.env",
          "--k", "3"], 0, None),
        (["refine", "apply", f"{c}/callproc.std", f"{c}/abandon.feat", "--env",
          f"{c}/default.env"], 0, corpus.step1_text),
        (["feature", "conflicts", f"{c}/duo.std", f"{c}/conflict-left.feat",
          f"{c}/conflict-right.feat"], 1, None),
        (["export", "json", f"{c}/callproc.std"], 0, None),
        (["export", "dot", f"{c}/callproc.std"], 0, None),
    ]


def prepare_cli(corpus: Corpus, root: Path) -> None:
    """Write chain step 1, which `refine verify` reads, into the work dir."""
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    (work / "step1.std").write_text(corpus.step1_text, encoding="utf-8")


def _run_subprocess(argv: list[str], env: dict) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "stdrefine.cli", *argv],
                          capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout


def _run_in_process(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = stdrefine.cli.main(argv)
    return code, out.getvalue().encode()


def cli_ops(corpus: Corpus, in_process: bool, env: Optional[dict] = None) -> list[Op]:
    """One operation per call; a subprocess of the console unless
    `in_process`, where `cli.main` runs in this interpreter (for tracing)."""
    ops = []
    for argv, expected_code, expected_out in cli_calls(corpus):
        def run(argv=argv, expected_code=expected_code, expected_out=expected_out):
            code, out = _run_in_process(argv) if in_process else _run_subprocess(argv, env)
            fail = None
            if code != expected_code:
                fail = f"exit code {code}, expected {expected_code}"
            elif expected_out is not None and out != expected_out.encode():
                fail = "stdout differs from the API's result"
            return f"exit {code}\n".encode() + out, fail

        ops.append(Op("stdrefine " + " ".join(argv), run))
    return ops


def fixed_cycles(ops: list[Op], seed: int) -> Iterator[list[Op]]:
    """The same operations every cycle, in an order drawn from the seed."""
    rng = random.Random(seed)
    while True:
        cycle = list(ops)
        rng.shuffle(cycle)
        yield cycle
