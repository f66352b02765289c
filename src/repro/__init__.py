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

from .core import (
    CompositeState,
    DataValue,
    ExpansionResult,
    Op,
    ProtocolSpec,
    PruningMode,
    Rep,
    RunOptions,
    SharingLevel,
    VerificationReport,
    explore,
    verify,
)
from .engine import BatchReport, ResultCache, RunJournal, VerificationJob, run_batch
from .lint import LintError, LintReport, lint_all, lint_spec
from .liveness import LassoWitness, LivenessReport, analyze_liveness, replay_lasso
from .obs import Collector, render_report, use_collector
from .protocols import all_protocols, get_protocol, protocol_names

__version__ = "1.9.0"

__all__ = [
    "BatchReport",
    "Collector",
    "CompositeState",
    "DataValue",
    "ExpansionResult",
    "LassoWitness",
    "LintError",
    "LintReport",
    "LivenessReport",
    "Op",
    "ProtocolSpec",
    "PruningMode",
    "Rep",
    "ResultCache",
    "RunJournal",
    "RunOptions",
    "SharingLevel",
    "VerificationJob",
    "VerificationReport",
    "__version__",
    "all_protocols",
    "analyze_liveness",
    "explore",
    "get_protocol",
    "lint_all",
    "lint_spec",
    "protocol_names",
    "render_report",
    "replay_lasso",
    "run_batch",
    "use_collector",
    "verify",
]
