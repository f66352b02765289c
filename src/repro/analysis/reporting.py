"""Textual report generation: the paper's tables and listings.

Everything here renders deterministic, alignment-padded ASCII so that
benchmark output can be eyeballed against the paper's artifacts:

* :func:`figure4_table` -- the per-state ``sharing(F) / cdata / mdata``
  table printed under Figure 4;
* :func:`expansion_listing` -- the Appendix A.2 step-by-step expansion
  trace;
* :func:`format_table` -- the generic table formatter used by every
  benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..core.composite import CompositeState
from ..core.symbols import SharingLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.essential import ExpansionResult

__all__ = [
    "format_table",
    "figure4_table",
    "expansion_listing",
    "essential_state_rows",
    "batch_summary_table",
    "lint_table",
]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _sharing_tuple(state: CompositeState, invalid: str) -> str:
    """Per-class sharing-detection values, as in the Figure 4 table.

    ``f_i`` is true iff another cache holds a valid copy: for a class
    member holding a copy that means "at least two copies overall"; for
    an invalid cache it means "at least one copy overall".
    """
    if state.sharing is None:
        return "n/a"
    values = []
    for label, _rep in state.items():
        if label.symbol == invalid:
            values.append(str(state.sharing is not SharingLevel.NONE).lower())
        else:
            values.append(str(state.sharing is SharingLevel.MANY).lower())
    return "(" + ", ".join(values) + ")"


def _cdata_tuple(state: CompositeState) -> str:
    """Per-class cdata values, as in the Figure 4 table."""
    values = [
        label.data.value if label.data is not None else "?"
        for label, _ in state.items()
    ]
    return "(" + ", ".join(values) + ")"


def essential_state_rows(result: ExpansionResult) -> list[list[str]]:
    """Rows of the Figure 4 table for every essential state."""
    rows = []
    for state in result.essential:
        rows.append(
            [
                state.pretty(annotations=False),
                _sharing_tuple(state, result.spec.invalid),
                _cdata_tuple(state),
                state.mdata.value if state.mdata is not None else "n/a",
            ]
        )
    return rows


def figure4_table(result: ExpansionResult) -> str:
    """The table printed under the paper's Figure 4."""
    return format_table(
        ["state", "sharing(F)", "cdata", "mdata"],
        essential_state_rows(result),
        title=f"Figure 4 table -- {result.spec.full_name or result.spec.name}",
    )


def batch_summary_table(
    rows: Sequence[Sequence[object]],
    *,
    title: str = "Batch verification summary",
) -> str:
    """The end-of-run table of the batch engine.

    ``rows`` come from :meth:`repro.engine.BatchReport.rows`: one row
    per job with verdict, essential-state count, state visits, wall
    time and result source (fresh run vs cache replay).
    """
    return format_table(
        ["job", "verdict", "essential", "visits", "time", "source"],
        rows,
        title=title,
    )


def lint_table(
    rows: Sequence[Sequence[object]],
    *,
    title: str = "Static-analysis findings (preflight)",
) -> str:
    """The lint-findings table attached to batch reports.

    ``rows`` come from :meth:`repro.engine.BatchReport.lint_rows`: one
    row per finding with the owning job, rule id, severity, location
    and message.
    """
    return format_table(
        ["job", "rule", "severity", "location", "message"],
        rows,
        title=title,
    )


def expansion_listing(result: ExpansionResult) -> str:
    """The Appendix A.2-style expansion trace.

    Requires the expansion to have been run with ``keep_trace=True``.
    """
    if not result.trace:
        raise ValueError("expansion was run without keep_trace=True")
    lines = [
        f"Expansion steps for {result.spec.full_name or result.spec.name} "
        f"({result.stats.visits} state visits):"
    ]
    for entry in result.trace:
        lines.append("  " + entry.render())
    return "\n".join(lines)
