"""Theorem 1, checked: the symbolic expansion against exhaustive enumeration.

Theorem 1 claims the essential composite states *completely*
characterize every state an exhaustive enumeration can reach, for any
number of caches.  :func:`run_oracle` checks that claim for one spec,
comparing

* the **symbolic** Figure 3 expansion (:func:`repro.core.essential.explore`),
  whose verdict quantifies over *every* cache count, against
* the **concrete** Figure 2 enumeration (:func:`.exhaustive.enumerate_space`)
  for each small ``n``, under counting equivalence (Definition 5) so
  instance checks (:func:`is_instance`) lose nothing.

It reports four results.  The first three are disagreements, each of
which falsifies a theorem if real:

============= ==========================================================
result        meaning
============= ==========================================================
completeness  the symbolic expansion verified the protocol but a
              concrete ``n``-cache system reaches an erroneous state
coverage      a reachable concrete state is an instance of *no*
              essential composite state (the characterization leaks);
              checked whatever the verdict, since Theorem 1 is about
              reachability, not correctness
soundness     the symbolic expansion rejected the protocol but no
              concrete system with ``n`` up to the soundness bound
              exhibits any violation (the rejection is unwitnessed --
              possible in principle for tiny bounds, so campaigns keep
              the bound at 5, matching the property suite)
non-vacuity   every essential state has a reachable concrete instance
              at some completed ``n`` (:attr:`OracleReport.vacuous`)
============= ==========================================================

Non-vacuity is recorded, never a disagreement: below some ``n`` a
vacuous state is inconclusive (verified ``mesif`` has 1 of 7 essential
states vacuous at ``n <= 2`` and none at ``n <= 3``), and the specs
with vacuous states at ``n <= 3`` are all ones the expansion rejects.
``repro crossval`` fails on it; ``repro diff`` and ``repro fuzz`` do not.

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

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..core.composite import CompositeState, Label
from ..core.essential import ExpansionResult, explore
from ..core.operators import interval_of
from ..core.protocol import ProtocolSpec
from ..core.serialize import state_from_dict
from ..engine.guard import Budget, Guard
from ..obs.collector import count as _count
from .exhaustive import EnumerationResult, Equivalence, enumerate_space
from .product import ConcreteState

__all__ = [
    "Finding",
    "OracleBudget",
    "OracleReport",
    "SymbolicView",
    "is_instance",
    "run_oracle",
    "symbolic_view",
]


@dataclass(frozen=True)
class Finding:
    """One broken claim: a check's (or the oracle's) counterexample."""

    kind: str
    spec: str
    detail: str
    #: The cache count the claim broke at, when there is one.
    n: int | None = None

    def __str__(self) -> str:
        where = f" (n={self.n})" if self.n is not None else ""
        return f"[{self.kind}] {self.spec}{where}: {self.detail}"


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


@dataclass(frozen=True)
class OracleBudget:
    """Resource budgets for one oracle run (all guards, never raises)."""

    #: Cache counts checked for completeness, coverage and non-vacuity.
    ns: tuple[int, ...] = (1, 2, 3)
    #: Cache counts searched for a witness of a symbolic rejection.
    soundness_ns: tuple[int, ...] = (1, 2, 3, 4, 5)
    #: Visit budget for the symbolic expansion.
    symbolic_visits: int = 60_000
    #: Visit budget for each concrete enumeration.
    concrete_visits: int = 400_000
    #: Optional wall-clock budget (seconds) per search.
    deadline: float | None = None

    def __post_init__(self) -> None:
        for name in ("ns", "soundness_ns"):
            values = getattr(self, name)
            if not values or min(values) < 1:
                raise ValueError(
                    f"{name} must be one or more cache counts >= 1, "
                    f"not {list(values)}"
                )

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
    """Outcome of one Theorem 1 check."""

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
    #: Concrete states covered by an essential state, per completed n.
    covered: dict[int, int] = field(default_factory=dict)
    #: Reachable concrete states covered by no essential state (those
    #: of the first n that had any: the check stops there).
    uncovered: list[ConcreteState] = field(default_factory=list)
    #: Essential states compared against (0 when skipped before the
    #: symbolic run finished).
    essential: int = 0
    #: Essential states no completed n witnessed (recorded, never a
    #: disagreement: see the module docstring).
    vacuous: list[CompositeState] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True iff both engines agreed on everything checked."""
        return self.outcome == "agree"

    @property
    def concrete(self) -> int:
        """Concrete states checked for coverage, over every n."""
        return sum(self.covered.values()) + len(self.uncovered)

    def describe(self) -> str:
        """The ``repro crossval`` summary line (plus any disagreement)."""
        if self.outcome == "skipped":
            return f"{self.spec_name}: cross-validation skipped ({self.skipped})"
        status = "OK" if self.agreed and not self.vacuous else "MISMATCH"
        line = (
            f"{self.spec_name}: cross-validation {status} -- "
            f"{self.concrete} concrete states over "
            f"n={list(self.checked_ns)} vs {self.essential} "
            f"essential states ({len(self.uncovered)} uncovered, "
            f"{len(self.vacuous)} vacuous)"
        )
        if self.disagreement is not None:
            line += f"\n  {self.disagreement}"
        return line


def _enumerate(spec: ProtocolSpec, n: int, budget: OracleBudget) -> EnumerationResult:
    return enumerate_space(
        spec, n, equivalence=Equivalence.COUNTING, guard=budget.concrete_guard()
    )


def run_oracle(
    spec: ProtocolSpec,
    *,
    budget: OracleBudget | None = None,
    symbolic: "ExpansionResult | dict[str, Any] | SymbolicView | None" = None,
    augmented: bool = True,
) -> OracleReport:
    """Check Theorem 1 for *spec*: both engines, every small ``n``.

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
    report.essential = len(view.essential)

    # Completeness, coverage and non-vacuity over the small-n range;
    # the first disagreement ends the range.  A concrete state is
    # tested against the essential states no state has witnessed yet
    # (all its homes among them), then for any home at all.
    witnessed_violation: int | None = None
    unwitnessed = list(view.essential)
    checked: list[int] = []
    for n in budget.ns:
        concrete = _enumerate(spec, n, budget)
        if concrete.violations and witnessed_violation is None:
            witnessed_violation = n
        if concrete.partial:
            # Definitive facts found before exhaustion (violations)
            # were kept above; the full-space checks need completion.
            continue
        checked.append(n)
        for state in concrete.states:
            homes = [
                essential
                for essential in unwitnessed
                if is_instance(state, essential, spec, augmented=augmented)
            ]
            if homes:
                unwitnessed = [e for e in unwitnessed if e not in homes]
            elif not any(
                is_instance(state, essential, spec, augmented=augmented)
                for essential in view.essential
            ):
                report.uncovered.append(state)
        report.covered[n] = len(concrete.states) - len(report.uncovered)
        if view.verified and concrete.violations:
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
        elif report.uncovered:
            report.disagreement = Finding(
                kind="coverage",
                spec=spec.name,
                n=n,
                detail=(
                    f"reachable concrete state {report.uncovered[0]} is an "
                    "instance of no essential composite state"
                ),
            )
        if report.disagreement is not None:
            report.outcome = "disagree"
            break
    report.checked_ns = tuple(checked)
    report.vacuous = unwitnessed

    # Soundness of a symbolic rejection: search upward for a concrete
    # witness (symbolic claims quantify over all n, so small-n clean
    # runs alone do not contradict it).
    if report.agreed and view.violating and witnessed_violation is None:
        inconclusive = False
        for n in budget.soundness_ns:
            if n in budget.ns:
                continue  # already enumerated above
            concrete = _enumerate(spec, n, budget)
            if concrete.violations:
                witnessed_violation = n
                break
            if concrete.partial:
                inconclusive = True
                break
        if witnessed_violation is None:
            if inconclusive or len(checked) < len(budget.ns):
                report.outcome = "skipped"
                report.skipped = "concrete budget exhausted"
            else:
                bound = max(budget.soundness_ns)
                report.outcome = "disagree"
                report.disagreement = Finding(
                    kind="soundness",
                    spec=spec.name,
                    n=bound,
                    detail=(
                        f"symbolic rejection of {spec.name} is not "
                        f"witnessed by any concrete system with n <= {bound}"
                    ),
                )
    elif report.agreed and not view.violating and not checked:
        # A verified protocol whose small-n checks all ran out of
        # budget proves nothing either way.
        report.outcome = "skipped"
        report.skipped = "concrete budget exhausted"

    if report.outcome == "disagree":
        _count("testkit.disagreements")
    elif report.outcome == "skipped":
        _count("testkit.oracle.skipped")
    return report
