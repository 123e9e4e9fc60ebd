#!/usr/bin/env python3
"""Pairwise feature-conflict matrix of the shipped call-processing features.

Applies the forwarding and blocking features to development step 2 under the
default environment in both orders and reports whether they are compatible,
conflicting, or not independently applicable.  Exits 1 if any pair is not
compatible.  For your own machine and features, run
`stdrefine feature conflicts BASE.std F1.feat F2.feat ... --env FILE`.
"""

from __future__ import annotations

import argparse
import sys

from stdrefine import Bounds, build_step, conflict_matrix, default_env, feature_patch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=4, help="input-length bound (default 4)")
    args = parser.parse_args(argv)

    std = build_step(2)
    patches = [feature_patch("forwarding"), feature_patch("blocking")]
    bounds = Bounds(max_input_len=args.k, eps_budget=4, output_cap=16)
    reports = conflict_matrix(std, patches, default_env(), bounds)

    print(f"conflict matrix on {std.name} ({bounds.describe()})")
    bad = 0
    for (i, j), report in reports:
        print(f"  {patches[i].name} x {patches[j].name}: {report.verdict}")
        if report.verdict != "compatible":
            bad += 1
            for line in report.evidence:
                print(f"    {line}")
    print(f"{len(reports)} pairs, {bad} not compatible")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
