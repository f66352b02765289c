"""What one expansion produces: the result types both engines share.

The interpreter (:mod:`repro.core.essential`) and the compiled kernel
(:mod:`repro.kernel`) both return an :class:`ExpansionResult` of
essential states and :class:`SymbolicTransition` edges, starting from
the same :func:`initial_state`.  Keeping these types apart from the
interpreter's search lets everything that only *reads* a result -- the
kernel, serialization, the verifier, the liveness pass -- load without
the interpreter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .composite import CompositeState, Label, make_state
from .errors import Violation, Witness
from .operators import Rep
from .protocol import ProtocolSpec
from .symbols import DataValue, Op, SharingLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Exhaustion
    from ..liveness.model import LivenessReport
    from .essential import TraceEntry

__all__ = [
    "ExpansionResult",
    "ExpansionSemanticsError",
    "ExpansionStats",
    "PruningMode",
    "SymbolicTransition",
    "TransitionLabel",
    "initial_state",
]


class ExpansionSemanticsError(Exception):
    """The expansion produced a state the abstraction cannot classify."""


class PruningMode(str, enum.Enum):
    """How redundant composite states are pruned during expansion."""

    #: Only exact duplicates are dropped (no use of Definition 9).
    DUPLICATES = "duplicates"
    #: Full containment pruning as in Figure 3.
    CONTAINMENT = "containment"


@dataclass(frozen=True)
class TransitionLabel:
    """Label of a global transition, e.g. ``W_shared``.

    Matches the paper's Figure 4 notation: the operation letter with the
    initiator's pre-transition state as a subscript.
    """

    op: Op
    initiator: str

    def __str__(self) -> str:
        return f"{self.op.value}_{self.initiator.lower()}"


@dataclass(frozen=True)
class SymbolicTransition:
    """One edge of the global (symbolic) transition system."""

    source: CompositeState
    label: TransitionLabel
    target: CompositeState

    def __str__(self) -> str:
        return f"{self.source.pretty()} --{self.label}--> {self.target.pretty()}"


def initial_state(spec: ProtocolSpec, augmented: bool) -> CompositeState:
    """The paper's initial state: every cache Invalid, memory fresh.

    Rendered ``(Invalid+)`` -- an arbitrary positive number of caches,
    none holding a copy.
    """
    return make_state(
        [(Label(spec.invalid, DataValue.NODATA if augmented else None), Rep.PLUS)],
        sharing=SharingLevel.NONE if spec.uses_sharing_detection else None,
        mdata=DataValue.FRESH if augmented else None,
    )


@dataclass
class ExpansionStats:
    """Instrumentation counters for one expansion run."""

    #: States generated during expansion (the paper's "state visits").
    visits: int = 0
    #: Working states popped and (at least partially) expanded.
    expanded: int = 0
    #: Generated states discarded because contained in a known state.
    discarded_contained: int = 0
    #: Known states removed because contained in a new state.
    removed_superseded: int = 0
    #: Exact duplicates dropped.
    duplicates: int = 0
    #: Scenario case-splits evaluated.
    scenarios: int = 0
    #: Peak size of the working list.
    max_worklist: int = 0
    #: Wall-clock seconds.
    elapsed: float = 0.0


@dataclass
class ExpansionResult:
    """Everything produced by one run of the Figure 3 expansion."""

    spec: ProtocolSpec
    augmented: bool
    pruning: PruningMode
    initial: CompositeState
    essential: tuple[CompositeState, ...]
    transitions: tuple[SymbolicTransition, ...]
    stats: ExpansionStats
    violations: tuple[Violation, ...]
    witnesses: tuple[Witness, ...]
    trace: "tuple[TraceEntry, ...]" = field(default_factory=tuple)
    #: True when a guard budget expired before the fixpoint: the
    #: essential set is a sound *prefix* (every listed state is
    #: reachable) but may be incomplete, and ``transitions`` is empty.
    partial: bool = False
    #: Why the run stopped early (``None`` for complete runs).
    exhausted: "Exhaustion | None" = None
    #: Unexplored working states at the moment the budget expired
    #: (first entry: the state whose expansion was interrupted).
    frontier: tuple[CompositeState, ...] = field(default_factory=tuple)
    #: Liveness verdict attached by the liveness post-pass
    #: (:func:`repro.liveness.analyze_liveness`); ``None`` when the
    #: verification ran in safety-only mode.
    liveness: "LivenessReport | None" = None

    @property
    def ok(self) -> bool:
        """True iff the protocol is *proven* correct: the expansion ran
        to its fixpoint, no erroneous state is reachable, and (when the
        liveness pass ran) no pending request can starve.  A partial
        run is never ``ok`` -- unvisited states could still be
        erroneous -- though any violations it did find are definitive.
        """
        return (
            not self.violations
            and not self.partial
            and (self.liveness is None or not self.liveness.violations)
        )

    @property
    def live(self) -> bool | None:
        """Liveness verdict: ``True``/``False`` when the liveness pass
        ran to a conclusion, ``None`` when it did not run (safety mode)
        or was inconclusive (partial expansion)."""
        if self.liveness is None or not self.liveness.checked:
            return None
        return not self.liveness.violations

    def essential_by_render(self) -> dict[str, CompositeState]:
        """Map from pretty-rendering to state, for report lookups."""
        return {s.pretty(): s for s in self.essential}

    def summary(self) -> str:
        """One-paragraph textual summary of the verification run."""
        if self.violations:
            verdict = f"FAILED ({len(self.violations)} violations)"
        elif self.liveness is not None and self.liveness.violations:
            verdict = (
                f"NOT LIVE ({len(self.liveness.violations)} starvable "
                "requests)"
            )
        elif self.partial:
            reason = self.exhausted.reason if self.exhausted else "budget"
            verdict = (
                f"PARTIAL ({reason}; {len(self.frontier)} frontier states "
                "unexplored)"
            )
        else:
            verdict = "VERIFIED"
        return (
            f"{self.spec.full_name or self.spec.name}: {verdict}; "
            f"{len(self.essential)} essential states, "
            f"{self.stats.visits} state visits, "
            f"{len(self.transitions)} global transitions"
        )
