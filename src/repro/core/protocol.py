"""Abstract protocol specification (paper Definition 1).

A protocol is a deterministic per-cache FSM ``M = (Q, Σ, F, δ)``:

* ``Q`` -- :attr:`ProtocolSpec.states` (the first entry by convention is
  the invalid state, also exposed as :attr:`ProtocolSpec.invalid`);
* ``Σ`` -- :attr:`ProtocolSpec.operations` (read, write, replacement);
* ``F`` -- either null or the sharing-detection function, selected by
  :attr:`ProtocolSpec.uses_sharing_detection`;
* ``δ`` -- :meth:`ProtocolSpec.react`, which returns the full
  :class:`~repro.core.reactions.Outcome` of one operation (initiator
  transition, observer transitions and data actions).

Concrete protocols live in :mod:`repro.protocols`.
"""

from __future__ import annotations

import abc
import itertools

from .errors import StatePattern
from .reactions import Ctx, Outcome, INITIATOR, observation_contexts
from .symbols import Op

__all__ = ["ProtocolSpec", "ProtocolDefinitionError"]


class ProtocolDefinitionError(Exception):
    """A protocol specification is internally inconsistent."""


class ProtocolSpec(abc.ABC):
    """Base class for cache coherence protocol specifications.

    Subclasses define the class attributes documented below and
    implement :meth:`react`.  The base class provides structural
    validation (:meth:`validate`) that exercises ``react`` over every
    state/operation/context combination, so malformed specifications
    fail fast rather than mid-verification.
    """

    #: Short identifier used by the CLI and the registry.
    name: str = ""
    #: Human-readable protocol name for reports.
    full_name: str = ""
    #: FSM state symbols ``Q``; must include :attr:`invalid`.
    states: tuple[str, ...] = ()
    #: The state meaning "no valid copy present" (invalidated or absent).
    invalid: str = ""
    #: True when transitions consult the sharing-detection function.
    uses_sharing_detection: bool = False
    #: Operation alphabet ``Σ``.
    operations: tuple[Op, ...] = (Op.READ, Op.WRITE, Op.REPLACE)
    #: Protocol-specific forbidden state combinations.
    error_patterns: tuple[StatePattern, ...] = ()
    #: States whose copy differs from memory (used by reports/examples).
    owner_states: tuple[str, ...] = ()
    #: States implying "the only cached copy in the system".  Used by the
    #: hierarchical substrate: a level-2 cache outside these states means
    #: other clusters may hold the block, so a level-1 fill must not
    #: claim exclusivity.
    exclusive_states: tuple[str, ...] = ()
    #: The state a read miss loads when the (hierarchical) sharing line
    #: is asserted; required for two-level operation of protocols whose
    #: fills are exclusive by default.
    shared_fill_state: str | None = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def react(self, state: str, op: Op, ctx: Ctx) -> Outcome:
        """Full system reaction to *op* issued by a cache in *state*.

        ``ctx`` describes the rest of the system from the initiator's
        perspective; implementations must be deterministic functions of
        ``(state, op, ctx)``.
        """

    def applicable(self, state: str, op: Op) -> bool:
        """Whether a cache in *state* can issue *op*.

        Reads and writes are always possible; replacing a block that is
        not present is meaningless and excluded by default.
        """
        return not (op is Op.REPLACE and state == self.invalid)

    # ------------------------------------------------------------------
    def valid_states(self) -> tuple[str, ...]:
        """All states other than the invalid state."""
        return tuple(s for s in self.states if s != self.invalid)

    def describe(self) -> str:
        """Multi-line textual summary of the specification."""
        lines = [
            f"{self.full_name or self.name} ({self.name})",
            f"  states: {', '.join(self.states)} (invalid: {self.invalid})",
            f"  characteristic function: "
            f"{'sharing-detection' if self.uses_sharing_detection else 'null'}",
            "  forbidden combinations:",
        ]
        for pattern in self.error_patterns:
            lines.append(f"    - {pattern.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the specification for internal consistency.

        Exercises :meth:`react` over every (state, operation) pair in
        every context with at most two present states (the
        well-formedness domain: a ``react`` may reject a larger
        present-set no reachable state produces) and verifies that all
        named states exist, that replacement ends in the invalid state,
        and that observers named in outcomes are valid states.  Raises
        :class:`ProtocolDefinitionError` on the first problem found.
        """
        if not self.name:
            raise ProtocolDefinitionError("protocol has no name")
        if self.invalid not in self.states:
            raise ProtocolDefinitionError(
                f"{self.name}: invalid state {self.invalid!r} not in states"
            )
        if len(set(self.states)) != len(self.states):
            raise ProtocolDefinitionError(f"{self.name}: duplicate state symbols")
        contexts = [
            ctx
            for ctx in observation_contexts(self.valid_states())
            if len(ctx.present) <= 2
        ]
        for state, op in itertools.product(self.states, self.operations):
            if not self.applicable(state, op):
                continue
            for ctx in contexts:
                try:
                    outcome = self.react(state, op, ctx)
                except Exception as exc:  # noqa: BLE001 - reported with context
                    raise ProtocolDefinitionError(
                        f"{self.name}: react({state}, {op}, {ctx}) raised {exc!r}"
                    ) from exc
                self._check_outcome(state, op, ctx, outcome)

    def _check_outcome(self, state: str, op: Op, ctx: Ctx, outcome: Outcome) -> None:
        where = f"{self.name}: react({state}, {op.value}, copies={ctx.copies})"
        if outcome.next_state not in self.states:
            raise ProtocolDefinitionError(
                f"{where} -> unknown next state {outcome.next_state!r}"
            )
        if outcome.stalled:
            if outcome.next_state != state:
                raise ProtocolDefinitionError(
                    f"{where} -> a stalled operation must leave the state "
                    "unchanged"
                )
            return
        if op is Op.REPLACE and outcome.next_state != self.invalid:
            raise ProtocolDefinitionError(
                f"{where} -> replacement must end in {self.invalid}"
            )
        for observer, reaction in outcome.observers.items():
            if observer not in self.states or observer == self.invalid:
                raise ProtocolDefinitionError(
                    f"{where} -> reaction keyed by non-valid state {observer!r}"
                )
            if reaction.next_state not in self.states:
                raise ProtocolDefinitionError(
                    f"{where} -> observer {observer} moves to unknown state "
                    f"{reaction.next_state!r}"
                )
        if outcome.load_from is not None and outcome.load_from.kind == "cache":
            src = outcome.load_from.symbol
            if src not in self.states or src == self.invalid:
                raise ProtocolDefinitionError(
                    f"{where} -> load source {src!r} is not a valid state"
                )
            if not ctx.has(src):
                raise ProtocolDefinitionError(
                    f"{where} -> loads from {src} but the context has none"
                )
        wb = outcome.writeback_from
        if wb is not None and wb != INITIATOR:
            if wb not in self.states or wb == self.invalid:
                raise ProtocolDefinitionError(
                    f"{where} -> writeback source {wb!r} is not a valid state"
                )
            if not ctx.has(wb):
                raise ProtocolDefinitionError(
                    f"{where} -> writes back from {wb} but the context has none"
                )
        if state == self.invalid and outcome.next_state != self.invalid:
            if outcome.load_from is None:
                raise ProtocolDefinitionError(
                    f"{where} -> fills the cache without a data source"
                )
