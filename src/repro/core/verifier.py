"""High-level verification API.

:func:`verify` is the one-call entry point a protocol designer uses:
give it a protocol (or its registry name) and it runs the symbolic
expansion with context variables, evaluates every erroneous-state
condition, and returns a :class:`VerificationReport` with the verdict,
the essential states, the global transition diagram and -- when the
protocol is broken -- counterexample paths from the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .errors import Violation, Witness
from .options import RunOptions
from .protocol import ProtocolSpec, reaction_table
from .result import ExpansionResult, PruningMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Guard
    from ..lint.model import LintReport
    from ..liveness.model import LivenessReport

__all__ = ["VerificationReport", "verify"]


def __getattr__(name: str) -> Any:
    """PEP 562: ``explore`` (the interpreter's Figure 3 search) stays
    importable from here, where profiling harnesses wrap it by name,
    but loads only on first access -- :func:`verify` never runs it."""
    if name != "explore":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .essential import explore

    globals()["explore"] = explore
    return explore


@dataclass
class VerificationReport:
    """Human-oriented wrapper around an :class:`ExpansionResult`."""

    result: ExpansionResult
    #: Static-analysis findings collected by the ``preflight`` option
    #: (``None`` when verification ran without a preflight).
    lint: "LintReport | None" = None

    @property
    def ok(self) -> bool:
        """True iff the protocol satisfies all correctness conditions.

        In liveness modes this includes deadlock freedom: a safety-clean
        protocol with a starvable request is not ``ok``.
        """
        return self.result.ok

    @property
    def liveness(self) -> "LivenessReport | None":
        """Liveness verdict (``None`` for safety-only verifications)."""
        return self.result.liveness

    @property
    def partial(self) -> bool:
        """True iff a guard budget expired before the fixpoint."""
        return self.result.partial

    @property
    def spec(self) -> ProtocolSpec:
        """The verified protocol specification."""
        return self.result.spec

    @property
    def violations(self) -> tuple[Violation, ...]:
        """Coherence violations recorded so far."""
        return self.result.violations

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        """Counterexample paths for every erroneous state found."""
        return self.result.witnesses

    def render(self, *, diagram: bool = True, max_witnesses: int = 3) -> str:
        """Full multi-line report: verdict, states, diagram, witnesses."""
        res = self.result
        live = res.liveness
        starved = live is not None and bool(live.violations)
        if self.ok:
            verdict = "VERIFIED -- no erroneous state is reachable"
            if live is not None and live.checked:
                verdict += "; every pending request is eventually served"
        elif res.partial and not res.violations:
            why = res.exhausted.describe() if res.exhausted else "budget exhausted"
            verdict = (
                f"PARTIAL -- {why}; no erroneous state found in the "
                f"explored prefix ({len(res.frontier)} frontier states "
                "unexplored)"
            )
        elif res.violations:
            verdict = "FAILED -- erroneous states are reachable"
        else:
            verdict = (
                "NOT LIVE -- a pending request can be stalled forever"
            )
        lines = [
            "=" * 72,
            f"Verification of {res.spec.full_name or res.spec.name}",
            "=" * 72,
            res.spec.describe(),
            "",
            f"Verdict: {verdict}",
            f"Essential states: {len(res.essential)}    "
            f"state visits: {res.stats.visits}    "
            f"elapsed: {res.stats.elapsed*1000:.1f} ms",
        ]
        if live is not None:
            lines.append(live.summary())
        lines.append("")
        if diagram:
            from .graph import ascii_diagram

            lines.append(ascii_diagram(res))
            lines.append("")
        if res.violations:
            lines.append(f"Violations ({len(res.violations)}):")
            for violation in res.violations:
                lines.append(f"  - {violation}")
            lines.append("")
            for witness in res.witnesses[:max_witnesses]:
                lines.append("Counterexample:")
                lines.append(witness.render())
                lines.append("")
            if len(res.witnesses) > max_witnesses:
                lines.append(
                    f"... and {len(res.witnesses) - max_witnesses} further "
                    "counterexamples omitted."
                )
        if starved:
            assert live is not None
            lines.append(f"Starvable requests ({len(live.violations)}):")
            for violation in live.violations:
                lines.append(f"  - {violation}")
            lines.append("")
            for lasso in live.lassos[:max_witnesses]:
                lines.append("Lasso counterexample:")
                lines.append(lasso.render())
                lines.append("")
            if len(live.lassos) > max_witnesses:
                lines.append(
                    f"... and {len(live.lassos) - max_witnesses} further "
                    "lassos omitted."
                )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.result.summary()


def verify(
    protocol: ProtocolSpec | str,
    *,
    options: RunOptions = RunOptions(),
    guard: "Guard | None" = None,
) -> VerificationReport:
    """Verify a protocol; the library's main entry point.

    ``protocol`` may be a :class:`~repro.core.protocol.ProtocolSpec`
    instance or a registry name such as ``"illinois"``; ``options``
    says how (see :class:`~repro.core.options.RunOptions`):

    * ``preflight`` runs the static analyzer (:mod:`repro.lint`) first:
      ``"reject"`` raises :class:`~repro.lint.model.LintError` when an
      error-severity rule fires, ``"annotate"`` only attaches the
      findings to the report's ``lint`` field;
    * ``mode="liveness"`` additionally runs the starvation analysis
      (:mod:`repro.liveness`) over the completed expansion and attaches
      its verdict -- including lasso-shaped counterexamples -- to
      ``result.liveness``.  The expansion, and so the safety check, is
      the same in both modes; see ``docs/LIVENESS.md``;
    * the budgets (``max_visits``, ``deadline``, ``max_states``,
      ``max_rss_mb``) arm a :class:`~repro.engine.guard.Guard` over
      the whole run: an exhausted budget yields a *partial* report
      (``report.partial``), never an exception.  An explicit ``guard``
      replaces that one and owns every budget.

    The spec is validated (:meth:`~repro.core.protocol.ProtocolSpec.validate`,
    raising :class:`~repro.core.protocol.ProtocolDefinitionError`) from
    its behaviour table, which is built under the run's guard: a guard
    that trips there skips validation and yields a partial report.
    The expansion runs on the compiled kernel (:mod:`repro.kernel`),
    which reports what the interpreter
    (:func:`~repro.core.essential.explore`) does.
    """
    if isinstance(protocol, str):
        # Imported lazily: the registry lives above the core package.
        from ..protocols.registry import get_protocol

        spec = get_protocol(protocol)
    else:
        spec = protocol
    lint_report = None
    if options.preflight != "off":
        # Imported lazily: the linter lives above the core package.
        from ..lint import LintError, lint_spec

        lint_report = lint_spec(spec)
        if options.preflight == "reject" and not lint_report.ok:
            raise LintError(lint_report)
    if guard is None:
        # Imported lazily: the guard lives in the engine, above core.
        from ..engine.guard import Guard

        guard = Guard(options.budget())
    if reaction_table(spec, guard) is not None:  # else the kernel's PARTIAL
        spec.validate()
    # Imported lazily: the kernel lives above the core package.
    from .. import kernel

    result = kernel.explore(
        spec,
        augmented=options.augmented,
        pruning=PruningMode(options.pruning),
        guard=guard,
    )
    if options.mode == "liveness":
        # Imported lazily: the liveness pass lives above the core
        # package.  It reads its facts from the same compiled kernel
        # (a cache hit here); `repro diff` checks it against the
        # interpreter-built oracle.
        from ..liveness import analyze_liveness

        result.liveness = analyze_liveness(result)
    return VerificationReport(result, lint=lint_report)
