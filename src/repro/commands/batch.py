"""``repro batch``: many specs through the cached, journaled batch engine."""

from __future__ import annotations

import argparse
import signal

from ..cli import EXIT_STATUS_DOC, _signal_to_interrupt
from ..core.options import RunOptions


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Verify many specifications through the batch engine: "
        "a multiprocessing worker pool with per-job timeouts, bounded "
        "retries and crash isolation, a persistent content-addressed "
        "result cache keyed by spec fingerprint, and a structured JSONL "
        "run journal.  Results are journaled and cached incrementally, "
        "so an interrupted run (Ctrl-C exits with status 130 after "
        "flushing a run_aborted journal event) keeps everything finished "
        "so far and can be continued with --resume JOURNAL, which "
        "re-dispatches only unfinished jobs."
    )
    parser.epilog = EXIT_STATUS_DOC
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=["all"],
        metavar="NAME",
        help="protocol names, 'all', or 'none' for spec-file-only runs "
        "(default: all)",
    )
    parser.add_argument(
        "--mutants",
        action="store_true",
        help="also verify every applicable injected-bug mutant",
    )
    parser.add_argument(
        "--spec-file",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally verify a DSL specification (repeatable)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process fallback)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default: ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--journal", metavar="FILE", help="write the JSONL run journal here"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        help="per-job wall-clock budget in seconds (forces worker processes)",
    )
    parser.add_argument(
        "--grace",
        type=float,
        help="soft-cancel window for timed-out jobs: seconds granted to "
        "emit a partial result before SIGKILL (default: 1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retry budget for timed-out/crashed jobs (default: 1)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        metavar="SECONDS",
        help="base delay for exponential retry backoff with "
        "deterministic jitter (attempt n waits ~SECONDS*2^(n-2), "
        "capped at 30s); default: retries re-dispatch immediately",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        metavar="N",
        help="trip a per-spec circuit breaker after N consecutive "
        "crashes/timeouts: further attempts are quarantined "
        "(status QUARANTINED, never cached) until the cooldown "
        "half-opens the breaker; default: no breaker",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds a tripped breaker stays open before admitting "
        "one half-open probe (default: 30)",
    )
    parser.add_argument(
        "--resume",
        metavar="JOURNAL",
        help="continue an interrupted run: replay finished jobs from "
        "this journal (and the cache), re-dispatch only the rest; "
        "appends to the same journal file",
    )
    RunOptions.add_arguments(parser)


def run(args: argparse.Namespace) -> int:
    from ..engine import (
        BackoffPolicy,
        CircuitBreaker,
        RunJournal,
        VerificationJob,
        registry_jobs,
        run_batch,
    )

    options = RunOptions.from_args(args)
    jobs = registry_jobs(
        # ``none`` names no protocol: spec-file-only batches.
        [name for name in args.protocols if name != "none"],
        options,
        mutants=args.mutants,
    )
    for path in args.spec_file:
        jobs.append(VerificationJob(spec_file=path, options=options))

    cache = None
    if not args.no_cache:
        from ..engine.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    resume_events = None
    journal_path = args.journal
    journal_mode = "new"
    if args.resume:
        if args.journal and args.journal != args.resume:
            raise ValueError(
                "--resume continues the given journal; do not also pass "
                "a different --journal"
            )
        resume_events = RunJournal.read(args.resume)
        journal_path = args.resume
        journal_mode = "append"
    backoff = (
        BackoffPolicy(base=args.backoff) if args.backoff is not None else None
    )
    breaker = (
        CircuitBreaker(
            threshold=args.breaker_threshold, cooldown=args.breaker_cooldown
        )
        if args.breaker_threshold is not None
        else None
    )
    # A container orchestrator's SIGTERM aborts the run exactly like
    # Ctrl-C: journal flushed, exit 128+15.  Restored afterwards so
    # the handler never leaks into other subcommands run in the same
    # interpreter (tests).
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _signal_to_interrupt)
    except ValueError:  # not the main thread; keep the default handler
        previous_sigterm = None
    try:
        with RunJournal(journal_path, mode=journal_mode) as journal:
            report = run_batch(
                jobs,
                workers=args.jobs,
                cache=cache,
                journal=journal,
                timeout=args.timeout,
                retries=args.retries,
                grace=args.grace,
                resume=resume_events,
                backoff=backoff,
                breaker=breaker,
            )
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    print(report.summary_table())
    lint_findings = report.lint_table()
    if lint_findings:
        print()
        print(lint_findings)
    print()
    print(report.counts_line())
    if journal_path:
        print(f"journal written to {journal_path}")
    return report.exit_code
