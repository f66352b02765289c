"""``repro fsm``: Definition 1 checks on each cache FSM."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_VIOLATION


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol", help="protocol name or 'all'")


def run(args: argparse.Namespace) -> int:
    from ..analysis.fsm import check_definition_1
    from ..protocols.registry import resolve_specs

    status = EXIT_OK
    for spec in resolve_specs(args.protocol):
        problems = check_definition_1(spec)
        if problems:
            status = EXIT_VIOLATION
            print(f"{spec.name}: Definition 1 VIOLATED")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{spec.name}: cache FSM strongly connected (Definition 1 ok)")
    return status
