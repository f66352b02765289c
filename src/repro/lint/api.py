"""Front end of the static protocol analyzer.

The functions here are what the CLI, the ``verify()`` preflight and the
batch engine call: lint a live :class:`ProtocolSpec`, a DSL source
string, a file on disk, a registry name, or the whole shipped zoo.
Syntax errors in DSL sources are folded into the report as the reserved
``PL000`` diagnostic instead of raising, so one broken file cannot
abort a multi-spec run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..core.protocol import ProtocolSpec
from .context import LintContext
from .model import Diagnostic, LintReport, Location, Severity, sort_diagnostics
from .registry import SYNTAX_RULE, resolve_codes, selected_rules

__all__ = [
    "lint_spec",
    "lint_source",
    "lint_path",
    "lint_protocol",
    "lint_builtin",
    "lint_all",
]


def lint_spec(
    spec: ProtocolSpec,
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    target: str | None = None,
) -> LintReport:
    """Run every selected rule over one specification object."""
    from .. import obs

    context = LintContext(spec)
    found: list[Diagnostic] = []
    for registered in selected_rules(select, ignore):
        found.extend(registered.check(context))
    reported: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for diagnostic in found:
        (suppressed if context.suppressed(diagnostic) else reported).append(
            diagnostic
        )
    if reported:
        obs.count("lint.findings", len(reported))
    if "flow" in vars(context):  # a flow-sensitive rule ran
        obs.observe("lint.flow.elapsed", context.flow_seconds)
        if context.flow is None:
            obs.count("lint.flow.degraded")
        else:
            obs.count("lint.flow.configs", len(context.flow.configs))
    return LintReport(
        target=target or spec.name or "<spec>",
        artifact=context.artifact,
        diagnostics=sort_diagnostics(reported),
        suppressed=sort_diagnostics(suppressed),
    )


def _syntax_selected(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> bool:
    """Whether ``--select``/``--ignore`` keep the PL000 pseudo-rule."""
    keep = resolve_codes(select)
    drop = resolve_codes(ignore) or frozenset()
    return (keep is None or SYNTAX_RULE in keep) and SYNTAX_RULE not in drop


def lint_source(
    text: str,
    *,
    name: str = "unnamed",
    path: str | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint a DSL source string (parse errors become PL000 findings)."""
    from ..protocols.dsl import DslError, parse_protocol

    target = path or name
    try:
        spec = parse_protocol(text, default_name=name, source_path=path)
    except DslError as exc:
        diagnostics: tuple[Diagnostic, ...] = ()
        if _syntax_selected(select, ignore):
            diagnostics = (
                Diagnostic(
                    rule=SYNTAX_RULE,
                    severity=Severity.ERROR,
                    message=str(exc),
                    location=Location(
                        file=path, line=exc.line_no, col=exc.col
                    ),
                    spec_name=name,
                ),
            )
        return LintReport(target=target, artifact=path, diagnostics=diagnostics)
    return lint_spec(spec, select=select, ignore=ignore, target=target)


def lint_path(
    path: str | Path,
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint a specification file (``OSError`` propagates: usage error)."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(
        text,
        name=Path(path).stem,
        path=str(path),
        select=select,
        ignore=ignore,
    )


def lint_protocol(
    name: str,
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint a registry protocol by name (``KeyError`` when unknown)."""
    from ..protocols.registry import get_protocol

    return lint_spec(get_protocol(name), select=select, ignore=ignore)


def lint_builtin(
    name: str,
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint a DSL specification shipped inside the package."""
    from importlib import resources

    from ..protocols.dsl import builtin_spec_names

    specs = resources.files("repro.protocols") / "specs"
    candidate = specs / f"{name}.proto"
    try:
        text = candidate.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(builtin_spec_names())
        raise KeyError(f"unknown builtin spec {name!r}; known: {known}") from None
    return lint_source(
        text,
        name=f"{name}-dsl",
        path=str(candidate),
        select=select,
        ignore=ignore,
    )


def lint_all(
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[LintReport]:
    """Lint the whole shipped zoo: registry protocols + builtin specs."""
    from ..protocols.dsl import builtin_spec_names
    from ..protocols.registry import protocol_names

    reports = [
        lint_protocol(name, select=select, ignore=ignore)
        for name in protocol_names()
    ]
    reports.extend(
        lint_builtin(name, select=select, ignore=ignore)
        for name in builtin_spec_names()
    )
    return reports
