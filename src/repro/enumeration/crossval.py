"""Cross-validation of the symbolic expansion (paper Theorem 1).

Theorem 1 claims the essential composite states *completely*
characterize every state an exhaustive enumeration can reach, for any
number of caches.  This module checks that claim empirically:

* **coverage** -- every concrete state reachable with ``n`` caches must
  be an instance of at least one essential composite state;
* **non-vacuity** -- every essential composite state must have at least
  one reachable concrete instance for some ``n`` in the tested range
  (the symbolic expansion is not just a sound over-approximation but a
  tight one).

Both directions are exercised per protocol by experiment E7 and by the
integration test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.composite import CompositeState, Label
from ..core.essential import ExpansionResult, explore
from ..core.operators import interval_of
from ..core.protocol import ProtocolSpec
from .exhaustive import Equivalence, enumerate_space
from .product import ConcreteState

__all__ = ["is_instance", "CrossValResult", "cross_validate"]


def is_instance(
    concrete: ConcreteState,
    composite: CompositeState,
    spec: ProtocolSpec,
    *,
    augmented: bool = True,
) -> bool:
    """True iff *concrete* is one of the configurations of *composite*.

    Checks every class-count against the repetition operator's interval,
    plus the sharing level and memory context variable annotations.
    """
    if augmented:
        counts: Counter[Label] = Counter(
            Label(sym, data) for sym, data in zip(concrete.states, concrete.cdata)
        )
    else:
        counts = Counter(Label(sym) for sym in concrete.states)

    labels = set(counts) | {lbl for lbl, _ in composite.classes}
    for label in labels:
        lo, hi = interval_of(composite.rep_of(label))
        count = counts.get(label, 0)
        if count < lo or (hi is not None and count > hi):
            return False
    if composite.sharing is not None:
        if concrete.sharing_level(spec.invalid) != composite.sharing:
            return False
    if composite.mdata is not None and concrete.mdata != composite.mdata:
        return False
    return True


@dataclass
class CrossValResult:
    """Outcome of one cross-validation run."""

    spec: ProtocolSpec
    ns: tuple[int, ...]
    augmented: bool
    #: Concrete states (up to permutation) checked, per n.
    checked: dict[int, int] = field(default_factory=dict)
    #: Reachable concrete states covered by no essential state.
    uncovered: list[ConcreteState] = field(default_factory=list)
    #: Essential states with no reachable concrete instance in the range.
    vacuous: list[CompositeState] = field(default_factory=list)
    #: The symbolic result used for the comparison.
    symbolic: ExpansionResult | None = None

    @property
    def complete(self) -> bool:
        """Theorem 1's direction: everything reachable is covered."""
        return not self.uncovered

    @property
    def tight(self) -> bool:
        """Every essential state is witnessed by a concrete instance."""
        return not self.vacuous

    @property
    def ok(self) -> bool:
        """True iff no violation was found."""
        return self.complete and self.tight

    def summary(self) -> str:
        """One-line human-readable summary."""
        total = sum(self.checked.values())
        status = "OK" if self.ok else "MISMATCH"
        return (
            f"{self.spec.name}: cross-validation {status} -- {total} concrete "
            f"states over n={list(self.ns)} vs "
            f"{len(self.symbolic.essential) if self.symbolic else 0} essential "
            f"states ({len(self.uncovered)} uncovered, {len(self.vacuous)} vacuous)"
        )


def cross_validate(
    spec: ProtocolSpec,
    ns: tuple[int, ...] = (1, 2, 3, 4),
    *,
    augmented: bool = True,
    symbolic: ExpansionResult | None = None,
) -> CrossValResult:
    """Check Theorem 1 for *spec* over the cache counts *ns*.

    ``symbolic`` may be supplied to reuse an existing expansion result.
    Counting equivalence is used for the concrete enumeration -- instance
    checks are permutation-invariant, so this loses nothing.  Both
    searches run unguarded, to their fixpoints.
    """
    if symbolic is None:
        symbolic = explore(spec, augmented=augmented)
    result = CrossValResult(spec=spec, ns=tuple(ns), augmented=augmented, symbolic=symbolic)
    witnessed: set[CompositeState] = set()

    for n in ns:
        enumeration = enumerate_space(
            spec,
            n,
            equivalence=Equivalence.COUNTING,
            check_errors=False,
        )
        result.checked[n] = len(enumeration.states)
        for concrete in enumeration.states:
            homes = [
                ess
                for ess in symbolic.essential
                if is_instance(concrete, ess, spec, augmented=augmented)
            ]
            if homes:
                witnessed.update(homes)
            else:
                result.uncovered.append(concrete)

    result.vacuous = [ess for ess in symbolic.essential if ess not in witnessed]
    return result
