"""Systematic protocol perturbation and criticality analysis.

Where :mod:`repro.protocols.mutations` injects a small catalog of
*classic* bugs, this module explores the neighbourhood of a protocol
systematically: every combination of a trigger (state, operation,
sharing condition) and an edit kind (reroute a transition, drop the
observers, kill a write-back, ...) yields a :class:`PerturbedProtocol`
that the verifier can judge.

Two consumers:

* the engine-agreement fuzz tests draw random perturbations and check
  that the symbolic and concrete verdicts coincide;
* :func:`criticality_profile` sweeps the whole neighbourhood and
  reports *which parts of a protocol are load-bearing* -- how many
  single-point edits at each (state, operation) survive verification
  (benign redundancy) versus break coherence.  Protocol designers read
  this as a fragility map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..core.essential import ExpansionLimitError, explore
from ..core.protocol import ProtocolDefinitionError, ProtocolSpec
from ..core.reactions import Ctx, ObserverReaction, Outcome
from ..core.symbols import Op

__all__ = [
    "PERTURBATION_KINDS",
    "Perturbation",
    "PerturbedProtocol",
    "all_perturbations",
    "CriticalityReport",
    "criticality_profile",
]

#: Every supported single-point edit.
PERTURBATION_KINDS = (
    "reroute-initiator",
    "drop-observers",
    "reroute-observer",
    "drop-writeback",
    "toggle-write-through",
    "drop-load-demotion",
)


@dataclass(frozen=True)
class Perturbation:
    """One single-point edit, fired at one trigger condition.

    ``pick`` disambiguates multi-choice kinds (which state to reroute
    to, which observer entry to touch).
    """

    kind: str
    trigger_state: str
    trigger_op: Op
    trigger_any: bool
    pick: int = 0

    def describe(self) -> str:
        """One-line human-readable description."""
        where = (
            f"{self.trigger_op.value} from {self.trigger_state} "
            f"({'sharing' if self.trigger_any else 'alone'})"
        )
        return f"{self.kind} at {where} [pick={self.pick}]"


class PerturbedProtocol(ProtocolSpec):
    """A base protocol with one :class:`Perturbation` applied."""

    def __init__(self, base: ProtocolSpec, perturbation: Perturbation) -> None:
        self.base = base
        self.perturbation = perturbation
        self.name = f"{base.name}~{perturbation.kind}"
        self.full_name = f"{base.full_name} perturbed: {perturbation.describe()}"
        self.states = base.states
        self.invalid = base.invalid
        self.uses_sharing_detection = base.uses_sharing_detection
        self.operations = base.operations
        self.error_patterns = base.error_patterns
        self.owner_states = base.owner_states
        self.exclusive_states = base.exclusive_states
        self.shared_fill_state = base.shared_fill_state

    def applicable(self, state: str, op: Op) -> bool:
        """Operation applicability; see :meth:`ProtocolSpec.applicable`."""
        return self.base.applicable(state, op)

    def react(self, state: str, op: Op, ctx: Ctx) -> Outcome:
        """Protocol reaction; see :meth:`ProtocolSpec.react`."""
        outcome = self.base.react(state, op, ctx)
        p = self.perturbation
        if (
            state != p.trigger_state
            or op is not p.trigger_op
            or ctx.any_copy != p.trigger_any
        ):
            return outcome
        return self._edit(outcome)

    def _edit(self, outcome: Outcome) -> Outcome:
        p = self.perturbation
        states = list(self.states)
        if outcome.stalled:
            return outcome
        if p.kind == "reroute-initiator":
            return replace(outcome, next_state=states[p.pick % len(states)])
        if p.kind == "drop-observers":
            return replace(outcome, observers={})
        if p.kind == "reroute-observer":
            if not outcome.observers:
                return outcome
            keys = sorted(outcome.observers)
            victim = keys[p.pick % len(keys)]
            observers = dict(outcome.observers)
            observers[victim] = ObserverReaction(states[p.pick % len(states)])
            return replace(outcome, observers=observers)
        if p.kind == "drop-writeback":
            return replace(outcome, writeback_from=None)
        if p.kind == "toggle-write-through":
            return replace(outcome, write_through=not outcome.write_through)
        if p.kind == "drop-load-demotion":
            observers = {
                k: r
                for k, r in outcome.observers.items()
                if r.next_state == self.invalid
            }
            return replace(outcome, observers=observers)
        raise ValueError(f"unknown perturbation kind {p.kind!r}")


def all_perturbations(
    spec: ProtocolSpec, *, picks: int = 3
) -> list[Perturbation]:
    """The systematic neighbourhood of *spec* (deterministic order)."""
    return [
        Perturbation(kind, state, op, any_copy, pick)
        for kind, state, op, any_copy, pick in itertools.product(
            PERTURBATION_KINDS,
            spec.states,
            spec.operations,
            (False, True),
            range(picks),
        )
    ]


@dataclass
class CriticalityReport:
    """Aggregated verdicts of a perturbation sweep."""

    protocol: str
    #: Total perturbations attempted.
    attempted: int = 0
    #: Rejected by spec validation (structurally ill-formed edits).
    ill_formed: int = 0
    #: Verified despite the edit (redundant/benign edits).
    survived: int = 0
    #: Rejected by the verifier.
    broken: int = 0
    #: (trigger_state, trigger_op) -> (broken, judged) counts.
    by_site: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    #: violation kind -> count over all broken perturbations.
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def fragility(self) -> float:
        """Fraction of well-formed edits that break the protocol."""
        judged = self.survived + self.broken
        return self.broken / judged if judged else 0.0

    def site_rows(self) -> list[list[str]]:
        """Table rows: where is the protocol most fragile?"""
        rows = []
        for (state, op), (broken, judged) in sorted(self.by_site.items()):
            rows.append(
                [state, op, f"{broken}/{judged}", f"{broken / judged:.0%}" if judged else "-"]
            )
        return rows


def _record_verdict(
    report: CriticalityReport,
    perturbation: Perturbation,
    ok: bool,
    kinds: set[str],
) -> None:
    """Fold one judged perturbation into the aggregate report."""
    site = (perturbation.trigger_state, perturbation.trigger_op.value)
    broken_at_site, judged_at_site = report.by_site.get(site, (0, 0))
    if ok:
        report.survived += 1
        report.by_site[site] = (broken_at_site, judged_at_site + 1)
    else:
        report.broken += 1
        report.by_site[site] = (broken_at_site + 1, judged_at_site + 1)
        for kind in kinds:
            report.by_kind[kind] = report.by_kind.get(kind, 0) + 1


def criticality_profile(
    spec: ProtocolSpec,
    *,
    picks: int = 3,
    max_visits: int = 60_000,
    jobs: int = 1,
) -> CriticalityReport:
    """Verify every systematic perturbation of *spec* and aggregate.

    Ill-formed edits (those the specification validator rejects, or
    whose expansion diverges past ``max_visits``) are excluded from the
    fragility ratio: they could never be implemented, so they say
    nothing about the protocol's robustness.

    ``jobs > 1`` distributes the sweep over the batch engine's worker
    pool (:mod:`repro.engine`); perturbed candidates are plain
    picklable specifications, and verdicts are aggregated in
    deterministic perturbation order either way.
    """
    report = CriticalityReport(protocol=spec.name)
    candidates: list[tuple[Perturbation, PerturbedProtocol]] = []
    for perturbation in all_perturbations(spec, picks=picks):
        report.attempted += 1
        candidate = PerturbedProtocol(spec, perturbation)
        try:
            candidate.validate()
        except ProtocolDefinitionError:
            report.ill_formed += 1
            continue
        candidates.append((perturbation, candidate))

    if jobs > 1:
        # Imported lazily: the engine package sits above the protocol
        # layer and pulling it in eagerly would be cyclic.
        from ..core.options import RunOptions
        from ..engine import VerificationJob, run_batch

        options = RunOptions(max_visits=max_visits)
        batch = run_batch(
            [
                VerificationJob(
                    spec=candidate, options=options, label=f"{candidate.name}#{i}"
                )
                for i, (_, candidate) in enumerate(candidates)
            ],
            workers=jobs,
        )
        for (perturbation, _), result in zip(candidates, batch.results):
            if not result.completed:
                report.ill_formed += 1
                continue
            assert result.payload is not None
            kinds = {v["kind"] for v in result.payload["violations"]}
            _record_verdict(
                report, perturbation, result.payload["verified"], kinds
            )
        return report

    for perturbation, candidate in candidates:
        try:
            result = explore(candidate, max_visits=max_visits)
        except ExpansionLimitError:
            report.ill_formed += 1
            continue
        _record_verdict(
            report,
            perturbation,
            result.ok,
            {v.kind.value for v in result.violations},
        )
    return report
