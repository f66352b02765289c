"""``repro profile``: verify under ``repro.obs`` instrumentation."""

from __future__ import annotations

import argparse

from ..analysis.reporting import format_table
from ..core.options import RunOptions
from .verify import MUTANT_CHOICES

#: ``--format`` choices: the sorted keys of
#: :data:`repro.obs.export.EXPORTERS` (a test keeps them equal).
EXPORT_CHOICES = ("chrome-trace", "json", "prometheus")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Run protocols (or DSL specs) through the verification "
        "pipeline with repro.obs instrumentation enabled: spans around "
        "expansion, pruning, witness search and engine phases, plus "
        "visit/prune/cache counters.  Prints a text report and writes "
        "the full trace in the chosen export format (chrome-trace "
        "output loads in Perfetto / chrome://tracing).  The batch runs "
        "on the engine users run (the compiled kernel); one traced "
        "interpreter run per job follows, and an interpreter-vs-kernel "
        "wall-time/visits table is printed."
    )
    parser.add_argument(
        "protocol",
        nargs="*",
        default=[],
        help="protocol names or 'all'",
    )
    parser.add_argument(
        "--spec-file",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally profile a DSL specification (repeatable)",
    )
    parser.add_argument("--mutant", choices=MUTANT_CHOICES, help="inject a bug first")
    parser.add_argument(
        "--mutants",
        action="store_true",
        help="also profile every applicable injected-bug mutant",
    )
    RunOptions.add_arguments(parser, only=("augmented",))
    parser.add_argument(
        "--format",
        choices=EXPORT_CHOICES,
        default="chrome-trace",
        help="trace export format (default: chrome-trace)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="trace file path (default: profile-<label> with the "
        "format's conventional extension)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="also write the text report to this file",
    )


def run(args: argparse.Namespace) -> int:
    from ..engine import RunJournal, VerificationJob, registry_jobs, run_batch
    from ..obs.collector import Collector, use_collector
    from ..obs.export import EXPORT_EXTENSIONS, EXPORTERS
    from ..obs.profile import render_report

    options = RunOptions.from_args(args)
    jobs = registry_jobs(
        args.protocol, options, mutant=args.mutant, mutants=args.mutants
    )
    for path in args.spec_file:
        jobs.append(VerificationJob(spec_file=path, options=options))
    if not jobs:
        raise ValueError(
            "nothing to profile: give protocol names, 'all' or --spec-file"
        )

    label = jobs[0].label if len(jobs) == 1 else f"batch-{len(jobs)}"
    collector = Collector(label)
    # Serial, cache-less, in-process: every expansion span lands in
    # this collector instead of a worker's (parallel workers would
    # keep their spans to themselves) and nothing short-circuits the
    # work being measured.  The batch runs the engine users run (the
    # kernel); one interpreter pass per job then adds the span tree a
    # profile explains (expand.step, witness.check, prune.*).
    with use_collector(collector), collector.span("profile", jobs=len(jobs)):
        report = run_batch(jobs, workers=1, cache=None, journal=RunJournal())
        comparison = _engine_comparison(collector, report.results)

    output = args.output or f"profile-{label}{EXPORT_EXTENSIONS[args.format]}"
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(EXPORTERS[args.format](collector))
    text = render_report(collector, title=f"repro profile -- {label}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    print()
    print(comparison)
    print()
    print(report.counts_line())
    print(f"{args.format} export written to {output}")
    return report.exit_code


def _engine_comparison(collector, results: list) -> str:
    """Run the interpreter once per batch result; pair the root spans.

    The serial batch records each job's ``kernel.expand`` root span
    before that job's ``engine.job`` span.  The interpreter's
    ``expand`` root span for the same spec and budgets, recorded here
    under the same collector, is the other column.
    """
    from ..core.essential import PruningMode, explore
    from ..engine.guard import Guard

    batch_roots: list = []
    root = None
    for record in collector.spans:
        if record.name == "kernel.expand" and root is None:
            root = record
        elif record.name == "engine.job":
            batch_roots.append(root)
            root = None
    rows = []
    for result, batch in zip(results, batch_roots):
        if result.summary is None or batch is None:
            continue  # nothing was expanded: the batch table says why
        options = result.job.options
        mark = len(collector.spans)
        explore(
            result.job.resolve_spec(),
            augmented=options.augmented,
            pruning=PruningMode(options.pruning),
            guard=Guard(options.budget()),
        )
        interp = collector.spans[mark]
        rows.append(
            [
                result.job.label,
                f"{interp.duration * 1000.0:.2f}",
                f"{batch.duration * 1000.0:.2f}",
                f"{interp.duration / batch.duration:.1f}x" if batch.duration else "-",
                interp.attrs["visits"],
                batch.attrs["visits"],
            ]
        )
    return format_table(
        [
            "protocol",
            "interp ms",
            "kernel ms",
            "speedup",
            "interp visits",
            "kernel visits",
        ],
        rows,
        title="interpreter vs kernel (one traced run each)",
    )
