"""``repro fuzz``: differential fuzzing with shrinking and a corpus."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_STATUS_DOC, EXIT_VIOLATION
from ..core.options import RunOptions


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Draw seeded well-formed protocol specifications, "
        "verify each with the symbolic expansion (dispatched through the "
        "batch engine) and the exhaustive small-n enumeration, and flag "
        "any verdict or Theorem 1 coverage disagreement.  Disagreements "
        "are auto-shrunk to a minimal specification and persisted to the "
        "regression corpus; --replay re-verifies the stored corpus.  "
        "Here --max-visits defaults to 60000 and --deadline bounds every "
        "search, symbolic and concrete (exhausted comparisons are "
        "reported as skipped, never as findings)."
    )
    parser.epilog = EXIT_STATUS_DOC
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--count", type=int, default=20, help="specifications to draw"
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=3,
        help="largest cache count enumerated for completeness/coverage",
    )
    parser.add_argument(
        "--soundness-max-n",
        type=int,
        default=5,
        help="largest cache count searched for a rejection witness",
    )
    parser.add_argument(
        "--concrete-visits",
        type=int,
        default=400_000,
        help="visit budget for each concrete enumeration",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the symbolic batch (1 = serial)",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default="tests/corpus",
        help="regression corpus directory (default: tests/corpus)",
    )
    parser.add_argument(
        "--no-persist",
        action="store_true",
        help="do not write findings into the corpus",
    )
    parser.add_argument(
        "--findings",
        metavar="FILE",
        help="write the deterministic findings document (JSON) here",
    )
    parser.add_argument(
        "--journal", metavar="FILE", help="write the run journal here"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="reuse cached symbolic verdicts from this result cache "
        "(default: no cache, so repeated runs journal identically)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="re-verify every corpus entry instead of fuzzing",
    )
    RunOptions.add_arguments(parser, only=("mode", "max_visits", "deadline"))
    parser.add_argument(
        "--p-stall",
        type=float,
        default=0.0,
        metavar="P",
        help="probability of stalling rules in generated specs (0 "
        "disables; raise it in liveness modes so the generator actually "
        "draws starvable protocols)",
    )


def run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from ..engine import ResultCache, RunJournal
    from ..testkit import (
        CampaignConfig,
        Corpus,
        GeneratorConfig,
        OracleBudget,
        run_campaign,
    )

    if args.replay:
        corpus = Corpus(args.corpus)
        entries = corpus.entries()
        if not entries:
            raise ValueError(f"no corpus entries under {args.corpus}")
        replay = corpus.replay()
        print(replay.describe())
        return EXIT_OK if replay.ok else EXIT_VIOLATION

    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if not 1 <= args.max_n <= 5:
        raise ValueError("--max-n must be between 1 and 5")
    if args.soundness_max_n < args.max_n:
        raise ValueError("--soundness-max-n must be at least --max-n")
    options = RunOptions.from_args(args, base=RunOptions(max_visits=60_000))
    budget = OracleBudget(
        ns=tuple(range(1, args.max_n + 1)),
        soundness_ns=tuple(range(1, args.soundness_max_n + 1)),
        symbolic_visits=options.max_visits,
        concrete_visits=args.concrete_visits,
        deadline=options.deadline,
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    with RunJournal(args.journal) as journal:
        report = run_campaign(
            CampaignConfig(
                seed=args.seed,
                count=args.count,
                options=options,
                generator=GeneratorConfig(p_stall=args.p_stall),
                budget=budget,
                workers=args.jobs,
                corpus_dir=None if args.no_persist else args.corpus,
                journal=journal,
                cache=cache,
            )
        )
    print(report.describe())
    if args.findings:
        Path(args.findings).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"findings written to {args.findings}")
    if args.journal:
        print(f"journal written to {args.journal}")
    return EXIT_OK if report.ok else EXIT_VIOLATION
