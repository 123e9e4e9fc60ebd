"""Features as reusable patches, and conflict detection between them.

A feature patch is a named, ordered sequence of transformation rule
applications against a named subject machine.  Applying a patch folds
`apply_rule` over the sequence, so a successfully applied feature is a
refinement of the machine it was applied to at every bound, by construction:
the rule side conditions do not depend on the bounds.

`detect_conflict` tells whether two features can be combined over a base
machine, in one of four verdicts:

* inapplicable — one of the features does not apply to the base machine on
  its own.
* not-independent — both single-feature machines have a state or transition
  name the base machine lacks (the features contend for it rather than
  compose).
* compatible — in some order, the second feature applies to the first one's
  single-feature machine and the result refines both single-feature machines
  (`trace_inclusion`); if both orders do, their results must also be
  bounded-trace-equivalent, and the first order's is the merged machine.
* conflicting — everything else, with the failing side condition or the
  failing refinement verdict as evidence.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .interp import Bindings, Bounds, DEFAULT_BOUNDS, TraceSet, bindings_of, bounds_to_json, traces
from .model import Environment, Record, Std, replace
from .refine import RuleApplication, RuleError, apply_rule, trace_equivalence, trace_inclusion


class FeaturePatch(Record):
    """A named sequence of rule applications against one subject machine."""

    name: str
    subject: str
    applications: tuple[RuleApplication, ...]


class FeatureApplyError(RuleError):
    """A rule application inside a feature patch failed; records which one."""

    def __init__(self, feature: str, index: int, cause: RuleError) -> None:
        super().__init__(
            cause.rule,
            f"feature {feature!r}, application #{index + 1} ({cause.rule}): {cause.reason}",
            cause.witness,
        )
        self.feature = feature
        self.index = index
        self.cause = cause


def apply_feature(
    std: Std,
    patch: FeaturePatch,
    env: Environment | Bindings,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Std:
    """Fold the patch over the machine; the machine's name is retained.
    The result is a refinement of `std` at every bound; of `bounds` only
    `state_cap` is read (see `apply_rule`).  Its rules are one request (see
    `Bindings`), or part of the one `env` is the bindings of.  Raises
    FeatureApplyError naming the first failing application."""
    if patch.subject != std.name:
        raise ValueError(
            f"feature {patch.name!r} is written against {patch.subject!r}, "
            f"not {std.name!r}"
        )
    if not patch.applications:
        raise ValueError(f"feature {patch.name!r} contains no rule applications")
    bindings, work = bindings_of(env), std
    for i, app in enumerate(patch.applications):
        try:
            work = apply_rule(work, app, bindings, bounds)
        except RuleError as exc:
            raise FeatureApplyError(patch.name, i, exc) from exc
    return work


class ConflictReport(Record):
    """Outcome of conflict detection."""

    verdict: str  # "inapplicable" | "not-independent" | "conflicting" | "compatible"
    base: str
    features: tuple[str, ...]
    evidence: tuple[str, ...]
    bounds: Bounds
    merged: Optional[Std] = None

    @property
    def is_conflict(self) -> bool:
        return self.verdict != "compatible"

    def describe(self) -> str:
        lines = [
            f"features {', '.join(self.features)} on {self.base}: {self.verdict} "
            f"(bounds: {self.bounds.describe()})"
        ]
        lines.extend(f"  {e}" for e in self.evidence)
        return "\n".join(lines)


def detect_conflict(
    std: Std,
    f1: FeaturePatch,
    f2: FeaturePatch,
    env: Environment,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> ConflictReport:
    """Decide whether two features can be combined over `std` (see the module
    docstring for the four verdicts).  Every machine the report builds has
    std's declarations, so all of them share one binding of `env`."""
    env = Bindings(env)  # the report's one request

    def report(verdict: str, evidence: list[str], merged: Optional[Std] = None) -> ConflictReport:
        return ConflictReport(
            verdict=verdict,
            base=std.name,
            features=(f1.name, f2.name),
            evidence=tuple(evidence),
            bounds=bounds,
            merged=merged,
        )

    # Independence: each feature must apply to the base machine on its own.
    singles: list[Std] = []
    for f in (f1, f2):
        try:
            singles.append(apply_feature(std, f, env, bounds))
        except RuleError as exc:
            return report(
                "inapplicable",
                [f"feature {f.name!r} does not apply to {std.name}: {exc}"],
            )
    s1, s2 = singles

    # What a feature introduces is read from its machine: the names it has
    # and the base machine lacks, whichever rules made them.
    for names, what in ((lambda m: set(m.states), "a state named"),
                        (lambda m: {t.label for t in m.transitions} - {None},
                         "a transition labeled")):
        shared = (names(s1) & names(s2)) - names(std)
        if shared:
            return report(
                "not-independent",
                [f"both features introduce {what} {min(shared)!r}"],
            )

    # Each order applies its second feature to its first feature's single
    # machine.  Machines by position: the singles 0 and 1, each order's
    # combined machine 2 and 3; each is traced at most once, when first compared.
    machines: list[Optional[Std]] = [s1, s2, None, None]

    @functools.cache
    def ts_of(i: int) -> TraceSet:
        return traces(machines[i], env, bounds)

    evidence: list[str] = []
    passed: list[int] = []
    for first, (f, g) in enumerate(((f1, f2), (f2, f1))):
        combined, label = 2 + first, f"{f.name} then {g.name}"
        try:
            machines[combined] = apply_feature(machines[first], g, env, bounds)
        except RuleError as exc:
            evidence.append(f"order {label}: {exc}")
            continue
        # Commuting features give one machine up to the order of its
        # declarations, on which no trace set depends: compare it as order 1's.
        if first and machines[2] is not None and _unordered(machines[2]) == _unordered(machines[3]):
            combined = 2
        for single in (0, 1):
            verdict = trace_inclusion(ts_of(single), ts_of(combined))
            if not verdict.ok:
                evidence.append(f"order {label}: combined machine does not refine the "
                                f"machine with only one feature; {verdict.describe()}")
                break
        else:
            evidence.append(f"order {label}: applies and refines both single-feature machines")
            passed.append(combined)

    if len(passed) == 2:
        eq = trace_equivalence(ts_of(passed[0]), ts_of(passed[1]))
        if not eq.ok:
            evidence.append(f"the two orders disagree observably; {eq.describe()}")
            return report("conflicting", evidence)
        evidence.append("both orders agree (bounded-trace-equivalent)")
    if passed:
        return report("compatible", evidence, merged=machines[passed[0]])
    return report("conflicting", evidence)


def _unordered(std: Std) -> Std:
    """`std` with its states, initial markings and transitions as sets."""
    return replace(std, states=frozenset(std.states), initial=frozenset(std.initial),
                   transitions=frozenset(std.transitions))


def conflict_matrix(
    std: Std,
    patches: tuple[FeaturePatch, ...],
    env: Environment,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> list[tuple[tuple[int, int], ConflictReport]]:
    """Pairwise conflict reports for every unordered pair of patches."""
    return [
        ((i, j), detect_conflict(std, patches[i], patches[j], env, bounds))
        for i, j in itertools.combinations(range(len(patches)), 2)
    ]


def conflict_to_json(report: ConflictReport) -> dict:
    return {
        "format": "conflict/1",
        "verdict": report.verdict,
        "base": report.base,
        "features": list(report.features),
        "evidence": list(report.evidence),
        "bounds": bounds_to_json(report.bounds),
        "merged": report.merged.name if report.merged is not None else None,
    }
