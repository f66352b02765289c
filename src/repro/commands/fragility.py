"""``repro fragility``: verify every single-point edit of a protocol."""

from __future__ import annotations

import argparse

from ..analysis.reporting import format_table
from ..cli import EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol", help="protocol name or 'all'")
    parser.add_argument("--picks", type=int, default=2)
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the edit sweep (1 = serial)",
    )


def run(args: argparse.Namespace) -> int:
    from ..protocols.perturb import criticality_profile
    from ..protocols.registry import resolve_specs

    for spec in resolve_specs(args.protocol):
        report = criticality_profile(spec, picks=args.picks, jobs=args.jobs)
        print(
            format_table(
                ["state", "op", "broken/judged", "fragility"],
                report.site_rows(),
                title=f"fragility map -- {spec.full_name or spec.name}",
            )
        )
        print(
            f"  {report.attempted} edits, {report.ill_formed} ill-formed, "
            f"{report.survived} survived, {report.broken} broke coherence "
            f"({report.fragility:.0%} fragility)\n"
        )
    return EXIT_OK
