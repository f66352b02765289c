"""``repro sweep``: bus traffic across machine sizes."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_VIOLATION
from .simulate import WORKLOAD_CHOICES


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol", help="protocol name or 'all'")
    parser.add_argument(
        "-w", "--workload", choices=WORKLOAD_CHOICES, default="hot-block"
    )
    parser.add_argument("-p", "--processors", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("-l", "--length", type=int, default=8000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)


def run(args: argparse.Namespace) -> int:
    from ..analysis.sweeps import sweep_table, traffic_sweep
    from ..protocols.registry import resolve_specs

    points = traffic_sweep(
        resolve_specs(args.protocol),
        [args.workload],
        args.processors,
        length=args.length,
        seed=args.seed,
        workers=args.workers,
    )
    print(sweep_table(points, workload=args.workload))
    return EXIT_OK if all(p.violations == 0 for p in points) else EXIT_VIOLATION
