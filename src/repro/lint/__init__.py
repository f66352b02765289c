"""repro.lint -- static analysis of protocol specifications.

The paper's conclusion (Section 5) proposes a formal specification
language "to reduce the possibility of transcription errors"; this
package is the accompanying checker.  It inspects
:class:`~repro.core.protocol.ProtocolSpec` objects and DSL sources
*without running a symbolic expansion*: a pluggable rule registry
(:func:`~repro.lint.registry.rule`), a diagnostics model with physical
(DSL line/column) and symbolic locations, three renderers (text, JSON,
SARIF 2.1.0) and sixteen ``PLxxx`` rules grounded in the paper's FSM
model, all read off one lowering to the guarded-action IR -- including
the flow-sensitive rules powered by abstract reachability over it
(:mod:`repro.lint.flow`).
See ``docs/LINT.md`` for the rule catalog and ``docs/IR.md`` for the
IR format.

Entry points::

    from repro.lint import lint_spec, lint_all, render_text

    report = lint_spec(get_protocol("illinois"))
    print(render_text([report]))

The batch engine and ``verify()`` use the same API as their
``preflight`` implementation; the CLI exposes it as ``repro lint``.
"""

from .._lazy import lazy_exports

# Populate RULES with the built-in rule set at import time: the dict is
# part of the public surface, so it must never be observed half-empty.
from . import rules as _builtin_rules  # noqa: E402,F401

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": (
            "lint_all",
            "lint_builtin",
            "lint_path",
            "lint_protocol",
            "lint_source",
            "lint_spec",
        ),
        "context": ("LintContext", "ProbeEntry"),
        "flow": ("FlowAnalysis",),
        "model": ("Diagnostic", "LintError", "LintReport", "Location", "Severity"),
        "registry": ("RULES", "SYNTAX_RULE", "LintRule", "rule", "selected_rules"),
        "render": ("RENDERERS", "render_json", "render_sarif", "render_text"),
    },
)
