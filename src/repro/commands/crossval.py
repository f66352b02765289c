"""``repro crossval``: the Theorem 1 check; exit 2 when a budget trips."""

from __future__ import annotations

import argparse

from ..cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION

#: Largest ``--max-n``.  The visit budget bounds each concrete
#: enumeration, not their number, and counting-equivalence spaces grow
#: slowly with ``n``: without a cap the run grows without limit
#: (``dragon --max-n 40`` takes seconds); ``all --max-n 8`` takes well
#: under one.
CROSSVAL_MAX_N = 8


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol", help="protocol name or 'all'")
    parser.add_argument("--max-n", type=int, default=4)


def run(args: argparse.Namespace) -> int:
    from ..enumeration.crossval import OracleBudget, run_oracle
    from ..protocols.registry import resolve_specs

    if args.max_n > CROSSVAL_MAX_N:
        raise ValueError(f"--max-n must be at most {CROSSVAL_MAX_N}")
    budget = OracleBudget(ns=tuple(range(1, args.max_n + 1)))
    mismatch = partial = False
    for spec in resolve_specs(args.protocol):
        report = run_oracle(spec, budget=budget)
        print(report.describe())
        missing = [n for n in budget.ns if n not in report.checked_ns]
        if report.outcome == "disagree":
            mismatch = True
        elif report.outcome == "skipped":
            partial = True
        elif missing:
            partial = True
            print(f"  concrete budget exhausted at n={missing}: inconclusive")
        elif report.vacuous:
            mismatch = True
    if mismatch:
        return EXIT_VIOLATION
    return EXIT_ERROR if partial else EXIT_OK
