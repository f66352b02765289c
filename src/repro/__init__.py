"""repro -- symbolic verification of cache coherence protocols.

A from-scratch reproduction of Fong Pong and Michel Dubois, "The
Verification of Cache Coherence Protocols", SPAA 1993: composite states
with repetition operators, containment-pruned symbolic state-space
expansion to essential states, data-consistency checking through
context variables, plus the exhaustive-enumeration baselines the paper
compares against and an executable snooping-bus multiprocessor that
runs the same protocol specifications.

Quickstart::

    from repro import verify

    report = verify("illinois")
    print(report.render())

Profiling a verification (see ``docs/OBSERVABILITY.md``)::

    from repro import Collector, use_collector, verify

    collector = Collector("illinois")
    with use_collector(collector):
        verify("illinois")
    print(collector.span_totals())
"""

from ._lazy import lazy_exports

__version__ = "1.9.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core.composite": ("CompositeState",),
        "core.essential": ("explore",),
        "core.operators": ("Rep",),
        "core.options": ("RunOptions",),
        "core.protocol": ("ProtocolSpec",),
        "core.result": ("ExpansionResult", "PruningMode"),
        "core.symbols": ("DataValue", "Op", "SharingLevel"),
        "core.verifier": ("VerificationReport", "verify"),
        "engine.batch": ("BatchReport", "run_batch"),
        "engine.cache": ("ResultCache",),
        "engine.job": ("VerificationJob",),
        "engine.journal": ("RunJournal",),
        "lint.api": ("lint_all", "lint_spec"),
        "lint.model": ("LintError", "LintReport"),
        "liveness.analyze": ("analyze_liveness",),
        "liveness.model": ("LassoWitness", "LivenessReport"),
        "liveness.replay": ("replay_lasso",),
        "obs.collector": ("Collector", "use_collector"),
        "obs.profile": ("render_report",),
        "protocols.registry": ("all_protocols", "get_protocol", "protocol_names"),
    },
)
__all__.append("__version__")
