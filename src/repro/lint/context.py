"""Shared analysis state handed to every lint rule.

A :class:`LintContext` wraps one :class:`~repro.core.protocol.ProtocolSpec`
and precomputes everything the rules need *without running a symbolic
expansion*:

* the **probe table** -- for every applicable ``(state, op)`` pair and
  every present-set (:func:`~repro.core.reactions.observation_contexts`,
  the domain IR lowering enumerates), which DSL rule is selected
  (first-match) or what ``react`` returns.  DSL specifications are
  probed *statically* (guards are evaluated, but no
  :class:`~repro.core.reactions.Outcome` is materialized, so a broken
  ``load cache:`` clause surfaces as a diagnostic instead of an
  exception);
* the per-cache **reachability relation** derived from the probes
  (initiator transitions plus observer reactions);
* location helpers that produce physical (file/line/column) locations
  for DSL specs and symbolic locations for registry specs.

Because every present-set is probed, first-match shadowing analysis
never mistakes a deep guard for dead code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.protocol import ProtocolSpec
from ..core.reactions import Ctx, observation_contexts
from ..core.symbols import Op
from .model import Diagnostic, Location, Severity

__all__ = ["ProbeEntry", "LintContext"]

#: Sentinel for "not computed yet" in the lazy IR/flow slots (``None``
#: is a meaningful cached value: "lowering/analysis failed").
_UNSET = object()


@dataclass(frozen=True)
class ProbeEntry:
    """One probed ``(state, op, context)`` cell of the behaviour table."""

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
    #: ``repr`` of the exception ``react`` raised (registry specs only).
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
        self._probes: list[ProbeEntry] | None = None
        self._edges: dict[str, frozenset[str]] | None = None
        self._reachable: frozenset[str] | None = None
        self._ir: object = _UNSET
        self._flow: object = _UNSET
        self.flow_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Probe table
    # ------------------------------------------------------------------
    @property
    def probes(self) -> list[ProbeEntry]:
        """The (lazily built) behaviour probe table."""
        if self._probes is None:
            self._probes = self._build_probes()
        return self._probes

    def _build_probes(self) -> list[ProbeEntry]:
        spec = self.spec
        contexts = observation_contexts(spec.valid_states())
        entries: list[ProbeEntry] = []
        for state, op in itertools.product(spec.states, spec.operations):
            if not spec.applicable(state, op):
                continue
            for ctx in contexts:
                entries.append(self._probe_one(state, op, ctx))
        return entries

    def _probe_one(self, state: str, op: Op, ctx: Ctx) -> ProbeEntry:
        if self.dsl is not None:
            for index, dsl_rule in enumerate(self.dsl._rules):
                if (
                    dsl_rule.state == state
                    and dsl_rule.op is op
                    and dsl_rule.guard.evaluate(ctx)
                ):
                    return ProbeEntry(
                        state,
                        op,
                        ctx,
                        next_state=dsl_rule.next_state,
                        observers=dsl_rule.observers,
                        stalled=dsl_rule.stalled,
                        rule_index=index,
                    )
            return ProbeEntry(state, op, ctx)
        try:
            outcome = self.spec.react(state, op, ctx)
        except Exception as exc:  # noqa: BLE001 - folded into diagnostics
            return ProbeEntry(state, op, ctx, error=f"{type(exc).__name__}: {exc}")
        return ProbeEntry(
            state,
            op,
            ctx,
            next_state=outcome.next_state,
            observers=tuple(
                (obs, reaction.next_state, reaction.updated)
                for obs, reaction in outcome.observers.items()
            ),
            stalled=outcome.stalled,
        )

    # ------------------------------------------------------------------
    # Guarded-action IR and flow analysis
    # ------------------------------------------------------------------
    @property
    def ir(self):
        """The spec lowered to :class:`~repro.ir.ProtocolIR`, or ``None``.

        ``None`` means lowering failed (e.g. a DSL rule guarding on an
        undeclared state; a ``react`` that raises lowers to ``raises``
        entries instead); flow-sensitive rules stay silent in that case.
        """
        if self._ir is _UNSET:
            from ..ir import lower  # local: avoid import cycles

            try:
                self._ir = lower(self.spec)
            except Exception:  # noqa: BLE001 - degrade, never crash lint
                self._ir = None
        return self._ir

    @property
    def flow(self):
        """The abstract-reachability analysis, or ``None`` on failure."""
        if self._flow is _UNSET:
            from ..obs import clock
            from .flow import FlowAnalysis

            started = clock.monotonic()
            ir = self.ir
            if ir is None:
                self._flow = None
            else:
                try:
                    self._flow = FlowAnalysis(ir)
                except Exception:  # noqa: BLE001 - degrade, never crash
                    self._flow = None
            #: Wall time of lowering + fixpoint (obs: lint.flow.elapsed).
            self.flow_seconds = clock.monotonic() - started
        return self._flow

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    @property
    def edges(self) -> dict[str, frozenset[str]]:
        """Per-cache transition relation derived from the probes.

        Edges are initiator transitions of non-stalled probes plus
        observer reactions whose observer is present in the probed
        context (a cache must actually be in a state to snoop from it).
        """
        if self._edges is None:
            edges: dict[str, set[str]] = {s: set() for s in self.spec.states}
            for entry in self.probes:
                if entry.stalled or entry.next_state is None:
                    continue
                if entry.next_state in edges:
                    edges[entry.state].add(entry.next_state)
                for obs, nxt, _updated in entry.observers:
                    if entry.ctx.has(obs) and obs in edges and nxt in edges:
                        edges[obs].add(nxt)
            self._edges = {s: frozenset(t) for s, t in edges.items()}
        return self._edges

    def reachable_from(self, start: str) -> frozenset[str]:
        """States reachable from *start* (inclusive) via :attr:`edges`."""
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nxt in self.edges.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    @property
    def reachable(self) -> frozenset[str]:
        """States reachable from the invalid state via probed behaviour."""
        if self._reachable is None:
            self._reachable = self.reachable_from(self.spec.invalid)
        return self._reachable

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
