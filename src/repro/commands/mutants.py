"""``repro mutants``: verify every injected-bug variant of a protocol."""

from __future__ import annotations

import argparse

from ..analysis.reporting import format_table
from ..cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol", help="protocol name or 'all'")
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="reuse cached verdicts from this result-cache directory",
    )


def run(args: argparse.Namespace) -> int:
    from ..engine import ResultCache, VerificationJob, run_batch
    from ..protocols.mutations import mutants_for
    from ..protocols.registry import resolve_specs

    jobs = []
    for spec in resolve_specs(args.protocol):
        for mutant in mutants_for(spec):
            jobs.append(
                VerificationJob(protocol=spec.name, mutant=mutant.mutation.key)
            )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    report = run_batch(jobs, workers=args.jobs, cache=cache)

    rows = []
    escaped = 0
    errors = 0
    for result in report.results:
        if not result.completed:
            errors += 1
            rows.append([result.job.label, result.verdict, "-", result.error or "-"])
            continue
        payload = result.payload
        assert payload is not None
        if payload["verified"]:
            escaped += 1
        kinds = ",".join(sorted({v["kind"] for v in payload["violations"]})) or "-"
        rows.append(
            [
                result.job.label,
                "KILLED" if not payload["verified"] else "SURVIVED",
                payload["stats"]["visits"],
                kinds,
            ]
        )
    print(
        format_table(
            ["mutant", "verdict", "visits", "violation kinds"],
            rows,
            title="Injected-bug detection by the symbolic verifier",
        )
    )
    if errors:
        print(f"\nERROR: {errors} mutant jobs did not complete")
        return EXIT_ERROR
    if escaped:
        print(f"\nWARNING: {escaped} mutants escaped the verifier")
        return EXIT_VIOLATION
    return EXIT_OK
