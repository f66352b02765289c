"""``repro list``: the protocol zoo, mutation catalogs and workloads."""

from __future__ import annotations

import argparse

from ..analysis.reporting import format_table
from ..cli import EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """``repro list`` takes no arguments."""


def run(args: argparse.Namespace) -> int:
    from ..protocols.mutations import LIVENESS_MUTATIONS, MUTATIONS
    from ..protocols.registry import all_protocols
    from ..simulator.workloads import WORKLOADS

    rows = []
    for spec in all_protocols():
        rows.append(
            [
                spec.name,
                spec.full_name,
                len(spec.states),
                "sharing-detection" if spec.uses_sharing_detection else "null",
            ]
        )
    print(format_table(["name", "protocol", "|Q|", "F"], rows))
    print()
    print("mutations:", ", ".join(MUTATIONS))
    print("liveness mutations:", ", ".join(LIVENESS_MUTATIONS))
    print("workloads:", ", ".join(WORKLOADS))
    return EXIT_OK
