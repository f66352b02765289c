"""``repro verify``: symbolic verification with report and diagram."""

from __future__ import annotations

import argparse

from ..analysis.reporting import expansion_listing, figure4_table
from ..cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION
from ..core.options import RunOptions
from ..core.serialize import result_to_json
from ..core.verifier import verify
from ..protocols.dsl import parse_protocol_file

#: ``--mutant`` choices: the keys of both catalogs in
#: :mod:`repro.protocols.mutations` (safety bugs and the safety-clean
#: starvation bugs only liveness modes reject), spelled out so building
#: the parser does not import them (a test keeps them equal).
MUTANT_CHOICES = (
    "drop-invalidation",
    "drop-release",
    "drop-update-broadcast",
    "forget-supplier-demotion",
    "ignore-sharing-line",
    "skip-memory-update-on-supply",
    "skip-replacement-writeback",
    "stall-forever",
    "stall-write-miss",
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "protocol",
        nargs="?",
        default="all",
        help="protocol name or 'all' (ignored with --spec-file)",
    )
    parser.add_argument(
        "--spec-file",
        metavar="FILE",
        help="verify a protocol written in the specification language",
    )
    parser.add_argument("--mutant", choices=MUTANT_CHOICES, help="inject a bug first")
    parser.add_argument(
        "--trace", action="store_true", help="print the expansion steps"
    )
    parser.add_argument("--dot", metavar="FILE", help="write the diagram as DOT")
    parser.add_argument("--json", metavar="FILE", help="write the full result as JSON")
    parser.add_argument("--quiet", action="store_true", help="one-line summaries only")
    RunOptions.add_arguments(parser)


def run(args: argparse.Namespace) -> int:
    options = RunOptions.from_args(args)
    partial = violated = False
    if args.spec_file:
        specs = [parse_protocol_file(args.spec_file)]  # verify() validates
    else:
        from ..protocols.registry import resolve_specs

        specs = resolve_specs(args.protocol)
    for spec in specs:
        if args.mutant:
            from ..protocols.mutations import get_mutant

            spec = get_mutant(spec, args.mutant)
        report = verify(spec, options=options)
        if report.lint is not None and not report.lint.clean:
            for diagnostic in report.lint.diagnostics:
                print(f"lint: {diagnostic.render(report.lint.target)}")
        if args.quiet:
            print(report)
        else:
            print(report.render())
            if report.result.augmented:
                print(figure4_table(report.result))
                print()
        if args.trace:
            from ..core.essential import explore
            from ..engine.guard import Guard

            traced = explore(
                spec,
                augmented=options.augmented,
                keep_trace=True,
                guard=Guard(options.budget()),
            )
            print(expansion_listing(traced))
            print()
        if args.dot:
            from ..core.graph import to_dot

            dot = to_dot(report.result)
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
            print(f"DOT diagram written to {args.dot}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(result_to_json(report.result) + "\n")
            print(f"JSON result written to {args.json}")
        # Classified as a batch classifies a job: violations found
        # before a budget expired are definitive, and a partial run
        # without any cannot claim a verdict.
        if report.partial and not report.result.violations:
            partial = True
        elif not report.ok:
            violated = True
    if partial:
        return EXIT_ERROR
    return EXIT_VIOLATION if violated else EXIT_OK
