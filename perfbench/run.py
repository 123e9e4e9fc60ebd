#!/usr/bin/env python3
"""stdrefine benchmark: runs one workload and prints its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``chain``     -- `check_refinement` over the refinement chain at k=4;
                   one operation is one verdict.
* ``conflicts`` -- two `detect_conflict` reports and one dormant-feature
                   `trace_equivalence` at k=4; one operation is one report.
* ``sweep``     -- random small machines from the frozen generator; one
                   operation is one machine: `check_monotone`, three rule
                   proposals and `check_refinement` of each accepted one.
* ``cli``       -- sequential subprocess calls of the console over the
                   shipped corpus; one operation is one call.

The process is single-threaded and drives a closed loop: the next operation
starts when the previous one has finished.  Operations run in cycles (the
fixed operation list in a seed-drawn order, or one batch of generated
machines) until `--seconds` have passed.  Every result is checked against a
known answer; a wrong answer, an exception or a wrong exit code is a failed
operation.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the public functions of every stdrefine module are wrapped
from outside (see tracer.py), the workload runs traced for `--seconds`, the
same operations are then replayed untraced, and the last line reports the
per-layer metrics plus the tracing overhead.  The ``cli`` workload runs
`cli.main` in this interpreter when traced, so its spans can be recorded.

The program is imported from the checkout's own ``src`` directory, which is
byte-compiled first; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("chain", "conflicts", "sweep", "cli")
OPERATION = {
    "chain": "refinement verdict",
    "conflicts": "conflict report or equivalence verdict",
    "sweep": "generated machine with its rule proposals",
    "cli": "console call",
}
#: fixed per workload, so that two commits compare the same percentile even
#: when one completes more operations.  On conflicts and cli it falls inside
#: the slowest kind of operation (forwarding x blocking, refine verify), away
#: from its edge, where one fast sample would move it; on sweep it is the
#: slow quarter of machines, since rarer percentiles depend on the seed.
TAIL_PERCENTILE = {"chain": 70, "conflicts": 85, "sweep": 75, "cli": 90}
SETUP_REPEATS = 9
IMPORT_PROBES = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import stdrefine.cli; "
    "print(time.perf_counter() - t)"
)
MAX_REPORTED_FAILURES = 10
#: an operation still running after this long is stopped and counted as failed,
#: so that a run always ends
OP_LIMIT_S = 60


class OperationTimeout(Exception):
    pass


def _interrupt(signum, frame):
    raise OperationTimeout(f"operation exceeded the {OP_LIMIT_S} s limit")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Median time to import the console module in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                             capture_output=True, text=True, check=True).stdout
        samples.append(float(out))
    return statistics.median(samples)


def machine_facts() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


@dataclass
class Pass:
    """What one pass over the workload's operations did."""

    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # (op key, result bytes)
    ops: list = field(default_factory=list)
    failed: int = 0
    first_cycle: int = 0

    def digest(self) -> str:
        h = hashlib.sha256()
        for key, out in sorted(self.outputs[: self.first_cycle]):
            h.update(key.encode() + b"\0" + out + b"\0")
        return h.hexdigest()


def run_op(op, tracer, number: int):
    if tracer is not None:
        tracer.current_op = number
        span = tracer.enter("bench.op")
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        out, fail = op.run()
    except Exception as exc:  # a crash is a failed operation, not a failed run
        out, fail = b"", f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.exit(span)
    return out, fail, elapsed


def measure(cycles, seconds: float, tracer=None) -> Pass:
    """Run whole cycles until `seconds` have passed."""
    p = Pass()
    start = perf_counter()
    for cycle in cycles:
        for op in cycle:
            out, fail, elapsed = run_op(op, tracer, len(p.ops))
            p.ops.append(op)
            p.latencies.append(elapsed)
            p.outputs.append((op.key, out))
            if fail is not None:
                p.failed += 1
                if p.failed <= MAX_REPORTED_FAILURES:
                    print(f"FAILED {op.key}: {fail}", file=sys.stderr)
        p.first_cycle = p.first_cycle or len(p.ops)
        if perf_counter() - start >= seconds:
            break
    return p


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def make_cycles(workloads, name: str, corpus, seed: int, in_process: bool):
    if name == "sweep":
        return workloads.sweep_batches(seed)
    if name == "chain":
        ops = workloads.chain_ops(corpus)
    elif name == "conflicts":
        ops = workloads.conflicts_ops(corpus)
    else:
        workloads.prepare_cli(corpus, ROOT)
        ops = workloads.cli_ops(corpus, in_process, child_env())
    return workloads.fixed_cycles(ops, seed)


def end_to_end(workloads, args) -> tuple[dict, Pass]:
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        corpus = workloads.setup()
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    cycles = make_cycles(workloads, args.workload, corpus, args.seed, in_process=False)
    p = measure(cycles, args.seconds)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    pct = TAIL_PERCENTILE[args.workload]
    n = len(p.latencies)
    beyond = sum(1 for x in p.latencies if x > percentile(p.latencies, pct))
    print(f"op_p50_ms: median of {n} samples; op_tail_ms: p{pct} of {n} samples, "
          f"{beyond} beyond it")
    print(f"setup_s: import {import_s:.4f} s + median of {SETUP_REPEATS} corpus setups "
          f"{statistics.median(setups):.4f} s")
    print(f"failed_frac: {p.failed}/{n} = {p.failed / n:.4f}")
    metrics = {
        "ops_per_s": (n / sum(p.latencies), "1/s"),
        "op_p50_ms": (statistics.median(p.latencies) * 1000, "ms"),
        "op_tail_ms": (percentile(p.latencies, pct) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, p


def traced(workloads, tracer_mod, args) -> tuple[dict, Pass, bool]:
    import_s = import_seconds()
    corpus = workloads.setup()
    tracer = tracer_mod.Tracer()
    tracer.install()
    cycles = make_cycles(workloads, args.workload, corpus, args.seed, in_process=True)
    p = measure(cycles, args.seconds, tracer)
    tracer.uninstall()

    replay = measure([p.ops], 0)
    traced_s, untraced_s = sum(p.latencies), sum(replay.latencies)
    residual = tracer.self_sum_residual()
    agree = replay.outputs == p.outputs and replay.failed == 0
    print(f"traced {len(p.ops)} operations in {traced_s:.4f} s, untraced replay "
          f"{untraced_s:.4f} s; replay results {'agree' if agree else 'DIFFER'}")
    print(f"largest gap between an operation's span and its layers' self times: "
          f"{residual:.3g} s over {len(tracer.names)} spans")
    metrics = tracer.layer_metrics(len(p.ops))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / len(p.ops), "s/op")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return metrics, p, agree and residual < 1e-6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stdrefine" / "__init__.py").is_file():
        print(f"perfbench: no stdrefine sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: byte-compiling the sources failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stdrefine

    if SRC not in Path(stdrefine.__file__).resolve().parents:
        print(f"perfbench: stdrefine was imported from {stdrefine.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    signal.signal(signal.SIGALRM, _interrupt)
    print(f"machine: {machine_facts()}")
    print(f"workload {args.workload} (seed {args.seed}): one operation is one "
          f"{OPERATION[args.workload]}")
    try:
        if args.trace:
            metrics, p, correct = traced(workloads, tracer_mod, args)
        else:
            metrics, p = end_to_end(workloads, args)
            correct = True
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)
    print(f"digest {args.workload} sha256:{p.digest()} (first cycle, {p.first_cycle} operations)")
    result = {
        "correct": correct and p.failed == 0,
        "attempted": len(p.ops),
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
