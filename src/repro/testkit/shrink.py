"""Delta-debugging minimizer for oracle disagreements.

A raw fuzzer finding is noisy: a generated protocol carries guarded
variants, observer broadcasts and forbidden patterns that have nothing
to do with the disagreement it provoked.  The shrinker greedily edits
the :class:`~repro.testkit.generate.SpecModel` -- dropping forbidden
patterns, whole states, whole rules, then simplifying the surviving
rules (observers, write-back, write-through, cache-to-cache supply,
guards) -- and keeps each edit only if the *same kind* of disagreement
still reproduces.  It loops to a fixpoint, so the persisted corpus
entry is 1-minimal: removing any single remaining element makes the
disagreement vanish.

Candidates that no longer compile or validate, or that crash either
engine, are simply uninteresting -- the shrinker never propagates
their exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..enumeration.crossval import OracleBudget, run_oracle
from ..obs.collector import observe as _observe
from .generate import RuleModel, SpecModel

__all__ = ["ShrinkResult", "shrink"]


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink run."""

    model: SpecModel
    #: Accepted edits (each strictly simplified the model).
    steps: int
    #: Candidate models evaluated, accepted or not.
    attempts: int


def _rule_simplifications(rule: RuleModel) -> list[RuleModel]:
    """Strictly simpler variants of one rule, most aggressive first."""
    out: list[RuleModel] = []
    if rule.observers:
        out.append(replace(rule, observers=()))
        if len(rule.observers) > 1:
            for i in range(len(rule.observers)):
                kept = rule.observers[:i] + rule.observers[i + 1 :]
                out.append(replace(rule, observers=kept))
    if rule.writeback is not None:
        out.append(replace(rule, writeback=None))
    if rule.writethrough:
        out.append(replace(rule, writethrough=False))
    if rule.load is not None and rule.load.startswith("cache:"):
        out.append(replace(rule, load="memory"))
    if rule.guard is not None:
        out.append(replace(rule, guard=None))
    return out


def shrink(
    model: SpecModel,
    kind: str,
    *,
    budget: OracleBudget | None = None,
    augmented: bool = True,
    is_interesting: Callable[[SpecModel], bool] | None = None,
) -> ShrinkResult:
    """Greedily minimize *model* while a *kind* disagreement persists.

    ``is_interesting`` overrides the default predicate (re-run the
    differential oracle and require the same disagreement kind) --
    tests use this to shrink against cheap synthetic predicates.
    """
    budget = budget or OracleBudget()
    attempts = 0

    if is_interesting is None:

        def is_interesting(candidate: SpecModel) -> bool:
            try:
                spec = candidate.compile_checked()
                report = run_oracle(spec, budget=budget, augmented=augmented)
            except Exception:
                return False
            return (
                report.outcome == "disagree"
                and report.disagreement is not None
                and report.disagreement.kind == kind
            )

    def check(candidate: SpecModel) -> bool:
        nonlocal attempts
        attempts += 1
        return is_interesting(candidate)

    steps = 0
    progress = True
    while progress:
        progress = False

        for i in range(len(model.forbids) - 1, -1, -1):
            candidate = model.without_forbid(i)
            if check(candidate):
                model = candidate
                steps += 1
                progress = True

        for symbol in reversed(model.states):
            if symbol == model.invalid:
                continue
            candidate = model.without_state(symbol)
            if check(candidate):
                model = candidate
                steps += 1
                progress = True

        i = len(model.rules) - 1
        while i >= 0:
            candidate = model.without_rule(i)
            if check(candidate):
                model = candidate
                steps += 1
                progress = True
            i -= 1

        i = 0
        while i < len(model.rules):
            for simpler in _rule_simplifications(model.rules[i]):
                candidate = model.with_rule(i, simpler)
                if check(candidate):
                    model = candidate
                    steps += 1
                    progress = True
                    break
            i += 1

    _observe("testkit.shrink.steps", float(steps))
    _observe("testkit.shrink.attempts", float(attempts))
    return ShrinkResult(model=model, steps=steps, attempts=attempts)
