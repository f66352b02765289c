"""Shared analysis state handed to every lint rule.

A :class:`LintContext` wraps one :class:`~repro.core.protocol.ProtocolSpec`
and derives everything the rules need *without running a symbolic
expansion* from one lowering of the spec to the guarded-action IR
(:func:`repro.kernel.compile_protocol`, cached per spec object, so a
``verify()`` preflight and the kernel share it):

* the **probe table** -- :meth:`~repro.ir.ProtocolIR.behaviour` mapped
  back to names: for every applicable ``(state, op)`` pair and every
  present-set, the selected transition (with the index of the DSL rule
  it came from), the exception ``react`` raises there, or a hole no
  rule covers.  DSL specifications lower by direct translation, so no
  :class:`~repro.core.reactions.Outcome` is materialized and a broken
  ``load cache:`` clause surfaces as a diagnostic instead of an
  exception;
* the Definition 1 **per-cache FSM** (:func:`repro.analysis.fsm.local_fsm`)
  read off the same IR;
* the abstract-reachability **flow analysis** (:mod:`repro.lint.flow`);
* location helpers that produce physical (file/line/column) locations
  for DSL specs and symbolic locations for registry specs.

When lowering fails -- an outcome naming an undeclared state, whose
message PL004 reports, or metadata PL004 flags by itself -- the probe
table is empty and the FSM and flow are ``None``: every IR-backed rule
stays silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..core.protocol import ProtocolSpec
from ..core.reactions import Ctx
from ..core.symbols import Op
from .model import Diagnostic, Location, Severity

__all__ = ["ProbeEntry", "LintContext"]


@dataclass(frozen=True)
class ProbeEntry:
    """One ``(state, op, context)`` cell of the behaviour table."""

    state: str
    op: Op
    ctx: Ctx
    #: Initiator's next state (``None`` when nothing matched / raised).
    next_state: str | None = None
    #: Observer reactions as ``(observer, next, updated)`` triples.
    observers: tuple[tuple[str, str, bool], ...] = ()
    stalled: bool = False
    #: Index into ``DslProtocol._rules`` of the selected rule (DSL only).
    rule_index: int | None = None
    #: The exception ``react`` raises in this context (a ``raises`` entry).
    error: str | None = None

    @property
    def matched(self) -> bool:
        """True iff some behaviour was found for this cell."""
        return self.next_state is not None


class LintContext:
    """Everything one lint run knows about one specification."""

    def __init__(self, spec: ProtocolSpec) -> None:
        from ..protocols.dsl import DslProtocol  # local: avoid cycles

        self.spec = spec
        #: The compiled DSL object, or ``None`` for registry/in-memory
        #: specifications (rules use this to gate DSL-only checks).
        self.dsl: "DslProtocol | None" = (
            spec if isinstance(spec, DslProtocol) else None
        )
        self.flow_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Guarded-action IR and what is read off it
    # ------------------------------------------------------------------
    @cached_property
    def _lowering(self) -> tuple[object, str | None]:
        from ..ir import IRError
        from ..kernel import compile_protocol  # local: avoid import cycles

        try:
            return compile_protocol(self.spec).ir, None
        except IRError as exc:
            return None, str(exc)
        except Exception:  # noqa: BLE001 - bad metadata: PL004's own checks
            return None, None

    @property
    def ir(self):
        """The spec lowered to :class:`~repro.ir.ProtocolIR`, or ``None``.

        ``None`` means lowering failed (a ``react`` that raises lowers
        to ``raises`` entries instead); IR-backed rules stay silent.
        """
        return self._lowering[0]

    @property
    def lowering_error(self) -> str | None:
        """Why lowering failed, when it raised :class:`~repro.ir.IRError`."""
        return self._lowering[1]

    @cached_property
    def probes(self) -> list[ProbeEntry]:
        """The behaviour table of :attr:`ir`, by name (empty without IR)."""
        ir = self.ir
        if ir is None:
            return []
        states, ops = ir.states, tuple(Op(op) for op in ir.ops)
        entries: list[ProbeEntry] = []
        for state, op, ctx, t in ir.behaviour():
            cell = (states[state], ops[op], ctx)
            if t is None:
                entries.append(ProbeEntry(*cell))
            elif t.action.raises is not None:
                entries.append(ProbeEntry(*cell, error=t.action.raises))
            else:
                entries.append(
                    ProbeEntry(
                        *cell,
                        next_state=states[t.action.next_state],
                        observers=tuple(
                            (states[obs], states[nxt], updated)
                            for obs, nxt, updated in t.action.observers
                        ),
                        stalled=t.action.stalled,
                        rule_index=t.origin if self.dsl is not None else None,
                    )
                )
        return entries

    @cached_property
    def fsm(self):
        """The Definition 1 per-cache FSM of :attr:`ir`, or ``None``."""
        from ..analysis.fsm import local_fsm

        return None if self.ir is None else local_fsm(self.spec)

    @cached_property
    def flow(self):
        """The abstract-reachability analysis, or ``None`` on failure."""
        from ..obs import clock
        from .flow import FlowAnalysis

        ir = self.ir
        if ir is None:
            return None
        started = clock.monotonic()
        try:
            return FlowAnalysis(ir)
        except Exception:  # noqa: BLE001 - degrade, never crash
            return None
        finally:
            #: Wall time of the fixpoint alone (obs: lint.flow.elapsed).
            self.flow_seconds = clock.monotonic() - started

    # ------------------------------------------------------------------
    # Location / diagnostic helpers
    # ------------------------------------------------------------------
    @property
    def artifact(self) -> str | None:
        """Path of the DSL source file, when there is one."""
        return self.dsl.source_path if self.dsl is not None else None

    def rule_location(self, rule_index: int) -> Location:
        """Physical location of one compiled DSL rule."""
        assert self.dsl is not None
        dsl_rule = self.dsl._rules[rule_index]
        return Location(
            file=self.artifact,
            line=dsl_rule.line_no,
            col=dsl_rule.col,
            symbol=f"on {dsl_rule.state} {dsl_rule.op.value}",
        )

    def directive_location(self, directive: str) -> Location:
        """Location of a singleton directive (falls back to symbolic)."""
        if self.dsl is not None:
            origin = self.dsl.origins.get(directive)
            if origin is not None:
                return Location(
                    file=self.artifact,
                    line=origin.line,
                    col=origin.col,
                    symbol=directive,
                )
        return Location(symbol=directive)

    def symbolic(self, symbol: str) -> Location:
        """A purely symbolic location (registry specifications)."""
        return Location(symbol=symbol)

    def diag(
        self, rule_id: str, severity: Severity, message: str, location: Location
    ) -> Diagnostic:
        """Build one diagnostic against this specification."""
        return Diagnostic(
            rule=rule_id,
            severity=severity,
            message=message,
            location=location,
            spec_name=self.spec.name,
        )

    # ------------------------------------------------------------------
    def suppressed(self, diagnostic: Diagnostic) -> bool:
        """Whether a ``# lint: ignore[...]`` marker silences the finding."""
        if self.dsl is None or diagnostic.location.line is None:
            return False
        ids = self.dsl.lint_suppressions.get(diagnostic.location.line)
        if ids is None:
            return False
        return not ids or diagnostic.rule in ids
