"""The differential oracle: do the two engines agree about a spec?

Every specification -- generated, shipped or replayed from the corpus
-- runs through both verification engines and the Theorem 1 coverage
check:

* the **symbolic** Figure 3 expansion (:func:`repro.core.essential.explore`),
  whose verdict quantifies over *every* cache count;
* the **concrete** Figure 2 enumeration
  (:func:`repro.enumeration.exhaustive.enumerate_space`) for each small
  ``n``, under counting equivalence (Definition 5) so instance checks
  lose nothing;
* the **coverage** direction of the cross-validation
  (:func:`repro.enumeration.crossval.is_instance`): every reachable
  concrete state must be an instance of some essential state.

Three disagreement kinds, all of which falsify a theorem if real:

========== ==========================================================
kind        meaning
========== ==========================================================
completeness  the symbolic expansion verified the protocol but a
              concrete ``n``-cache system reaches an erroneous state
              (Theorem 1's completeness direction is broken)
coverage      a reachable concrete state is an instance of *no*
              essential composite state (the characterization leaks)
soundness     the symbolic expansion rejected the protocol but no
              concrete system with ``n`` up to the soundness bound
              exhibits any violation (the rejection is unwitnessed --
              possible in principle for tiny bounds, so campaigns keep
              the bound at 5, matching the property suite)
========== ==========================================================

Every search runs under a :class:`~repro.engine.guard.Guard` budget
and degrades to a ``skipped`` (inconclusive) outcome instead of
hanging: a fuzz campaign must never wedge on one adversarial draw.

The symbolic half can be supplied externally -- as a live
:class:`~repro.core.essential.ExpansionResult` or as the serialized
payload a batch-engine job produced -- so campaigns dispatch the
expensive expansions through the engine (workers, cache, journal) and
only the concrete comparison runs in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.composite import CompositeState
from ..core.essential import ExpansionResult, explore
from ..core.protocol import ProtocolSpec
from ..core.serialize import state_from_dict
from ..engine.guard import Budget, Guard
from ..enumeration.crossval import is_instance
from ..enumeration.exhaustive import Equivalence, enumerate_space
from ..obs.collector import count as _count
from .diff import Finding

__all__ = [
    "OracleBudget",
    "SymbolicView",
    "OracleReport",
    "symbolic_view",
    "run_oracle",
]

#: Disagreement kinds (the ``kind`` of an oracle :class:`Finding`).
KINDS = ("completeness", "coverage", "soundness")


@dataclass(frozen=True)
class OracleBudget:
    """Resource budgets for one oracle run (all guards, never raises)."""

    #: Cache counts checked for completeness + coverage.
    ns: tuple[int, ...] = (1, 2, 3)
    #: Cache counts searched for a witness of a symbolic rejection.
    soundness_ns: tuple[int, ...] = (1, 2, 3, 4, 5)
    #: Visit budget for the symbolic expansion.
    symbolic_visits: int = 60_000
    #: Visit budget for each concrete enumeration.
    concrete_visits: int = 400_000
    #: Optional wall-clock budget (seconds) per search.
    deadline: float | None = None

    def symbolic_guard(self) -> Guard:
        """A fresh guard for the symbolic expansion."""
        return Guard(
            Budget(deadline=self.deadline, max_visits=self.symbolic_visits)
        )

    def concrete_guard(self) -> Guard:
        """A fresh guard for one concrete enumeration."""
        return Guard(
            Budget(deadline=self.deadline, max_visits=self.concrete_visits)
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (corpus metadata, findings files)."""
        return {
            "ns": list(self.ns),
            "soundness_ns": list(self.soundness_ns),
            "symbolic_visits": self.symbolic_visits,
            "concrete_visits": self.concrete_visits,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "OracleBudget":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ns=tuple(payload["ns"]),
            soundness_ns=tuple(payload["soundness_ns"]),
            symbolic_visits=int(payload["symbolic_visits"]),
            concrete_visits=int(payload["concrete_visits"]),
            deadline=payload.get("deadline"),
        )


@dataclass(frozen=True)
class SymbolicView:
    """The slice of a symbolic result the oracle compares against.

    Built from a live :class:`ExpansionResult` or from the serialized
    payload of a batch-engine job (:func:`symbolic_view`), so the
    oracle does not care where the expansion ran.
    """

    complete: bool
    violating: bool
    essential: tuple[CompositeState, ...]

    @property
    def verified(self) -> bool:
        """True iff the expansion completed and found no violation."""
        return self.complete and not self.violating


def symbolic_view(
    symbolic: "ExpansionResult | dict[str, Any]",
) -> SymbolicView:
    """Normalize a symbolic result (live or serialized) for the oracle."""
    if isinstance(symbolic, ExpansionResult):
        return SymbolicView(
            complete=not symbolic.partial,
            violating=bool(symbolic.violations),
            essential=symbolic.essential,
        )
    return SymbolicView(
        complete="partial" not in symbolic,
        violating=bool(symbolic["violations"]),
        essential=tuple(
            state_from_dict(entry) for entry in symbolic["essential_states"]
        ),
    )


@dataclass
class OracleReport:
    """Outcome of one differential comparison."""

    spec_name: str
    #: ``"agree"``, ``"disagree"`` or ``"skipped"`` (inconclusive).
    outcome: str
    #: The candidate theorem falsifier, when the engines disagree.
    disagreement: Finding | None = None
    #: Why an inconclusive run stopped (``None`` otherwise).
    skipped: str | None = None
    #: Cache counts whose enumeration ran to completion.
    checked_ns: tuple[int, ...] = ()
    #: The symbolic verdict that was compared (``None`` when skipped
    #: before the symbolic run finished).
    symbolic_verified: bool | None = None
    #: Concrete states checked for coverage, per completed n.
    covered: dict[int, int] = field(default_factory=dict)

    @property
    def agreed(self) -> bool:
        """True iff both engines agreed on everything checked."""
        return self.outcome == "agree"

    def describe(self) -> str:
        """One-line summary for logs and tables."""
        if self.outcome == "disagree":
            finding = self.disagreement
            assert finding is not None
            where = f" (n={finding.n})" if finding.n is not None else ""
            return (
                f"{self.spec_name}: DISAGREE -- "
                f"{finding.kind}{where}: {finding.detail}"
            )
        if self.outcome == "skipped":
            return f"{self.spec_name}: skipped ({self.skipped})"
        return (
            f"{self.spec_name}: agree "
            f"({'verified' if self.symbolic_verified else 'rejected'}, "
            f"n={list(self.checked_ns)})"
        )


def run_oracle(
    spec: ProtocolSpec,
    *,
    budget: OracleBudget | None = None,
    symbolic: "ExpansionResult | dict[str, Any] | SymbolicView | None" = None,
    augmented: bool = True,
) -> OracleReport:
    """Differentially compare both engines on *spec*.

    ``symbolic`` optionally supplies a pre-computed symbolic result
    (live or serialized batch payload); otherwise the expansion runs
    here, under the budget's guard.
    """
    budget = budget or OracleBudget()
    if symbolic is None:
        symbolic = explore(
            spec, augmented=augmented, guard=budget.symbolic_guard()
        )
    view = (
        symbolic
        if isinstance(symbolic, SymbolicView)
        else symbolic_view(symbolic)
    )
    report = OracleReport(spec_name=spec.name, outcome="agree")
    if not view.complete:
        report.outcome = "skipped"
        report.skipped = "symbolic budget exhausted"
        _count("testkit.oracle.skipped")
        return report
    report.symbolic_verified = view.verified

    # Completeness + coverage over the small-n range.  Coverage holds
    # for *incorrect* protocols too (Theorem 1 characterizes
    # reachability, not correctness), so it is checked regardless of
    # the verdict.
    witnessed_violation: int | None = None
    checked: list[int] = []
    for n in budget.ns:
        concrete = enumerate_space(
            spec,
            n,
            equivalence=Equivalence.COUNTING,
            guard=budget.concrete_guard(),
        )
        if concrete.violations and witnessed_violation is None:
            witnessed_violation = n
        if concrete.partial:
            # Definitive facts found before exhaustion (violations)
            # were kept above; the full-space checks need completion.
            continue
        checked.append(n)
        if view.verified and concrete.violations:
            report.outcome = "disagree"
            report.disagreement = Finding(
                kind="completeness",
                spec=spec.name,
                n=n,
                detail=(
                    f"symbolic expansion verified {spec.name} but the "
                    f"concrete {n}-cache system is erroneous: "
                    f"{concrete.violations[0].message}"
                ),
            )
            break
        uncovered = [
            state
            for state in concrete.states
            if not any(
                is_instance(state, essential, spec, augmented=augmented)
                for essential in view.essential
            )
        ]
        report.covered[n] = len(concrete.states) - len(uncovered)
        if uncovered:
            report.outcome = "disagree"
            report.disagreement = Finding(
                kind="coverage",
                spec=spec.name,
                n=n,
                detail=(
                    f"reachable concrete state {uncovered[0]} is an "
                    "instance of no essential composite state"
                ),
            )
            break
    report.checked_ns = tuple(checked)

    # Soundness of a symbolic rejection: search upward for a concrete
    # witness (symbolic claims quantify over all n, so small-n clean
    # runs alone do not contradict it).
    if report.outcome == "agree" and view.violating:
        if witnessed_violation is None:
            inconclusive = False
            for n in budget.soundness_ns:
                if n in budget.ns:
                    continue  # already enumerated above
                concrete = enumerate_space(
                    spec,
                    n,
                    equivalence=Equivalence.COUNTING,
                    guard=budget.concrete_guard(),
                )
                if concrete.violations:
                    witnessed_violation = n
                    break
                if concrete.partial:
                    inconclusive = True
                    break
            if witnessed_violation is None:
                if inconclusive or any(
                    n not in checked for n in budget.ns
                ):
                    report.outcome = "skipped"
                    report.skipped = "concrete budget exhausted"
                else:
                    report.outcome = "disagree"
                    report.disagreement = Finding(
                        kind="soundness",
                        spec=spec.name,
                        n=max(budget.soundness_ns),
                        detail=(
                            f"symbolic rejection of {spec.name} is not "
                            f"witnessed by any concrete system with "
                            f"n <= {max(budget.soundness_ns)}"
                        ),
                    )
    elif report.outcome == "agree" and not view.violating:
        # A verified protocol whose small-n checks all ran out of
        # budget proves nothing either way.
        if not checked:
            report.outcome = "skipped"
            report.skipped = "concrete budget exhausted"

    if report.outcome == "disagree":
        _count("testkit.disagreements")
    elif report.outcome == "skipped":
        _count("testkit.oracle.skipped")
    return report
