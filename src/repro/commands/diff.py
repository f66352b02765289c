"""``repro diff``: every differential check over every spec source."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_STATUS_DOC, EXIT_VIOLATION


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Run every differential check (IR against react() cell "
        "by cell, flow over-approximation, kernel/interpreter parity, "
        "witnessed liveness verdicts, the Theorem 1 oracle) over every "
        "spec source (zoo, builtin DSL specs, mutants, starvation mutants, "
        "the tests/corpus regression corpus, seeded generated specs).  "
        "Prints every spec with a finding or a skipped check, then one "
        "summary line; exits 1 on any finding.  Takes no options."
    )
    parser.epilog = EXIT_STATUS_DOC
    parser.formatter_class = argparse.RawDescriptionHelpFormatter


def run(args: argparse.Namespace) -> int:
    from ..testkit.diff import CHECKS, SOURCES, run_diff

    reports = run_diff()
    for report in reports:
        if report.findings or report.skipped:
            print(report.describe())
    failed = sum(1 for r in reports if not r.ok)
    skipped = sum(1 for r in reports if r.skipped)
    print(
        f"{len(reports)} specs from {len(SOURCES)} sources x "
        f"{len(CHECKS)} checks ({', '.join(CHECKS)}): "
        f"{skipped} with skipped checks, {failed} with findings"
    )
    return EXIT_OK if failed == 0 else EXIT_VIOLATION
