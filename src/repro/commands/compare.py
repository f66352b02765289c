"""``repro compare``: diagram similarity of two protocols."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("a")
    parser.add_argument("b")


def run(args: argparse.Namespace) -> int:
    from ..analysis.compare import compare_protocols
    from ..core.essential import explore
    from ..protocols.registry import resolve_specs

    [spec_a] = resolve_specs(args.a)
    [spec_b] = resolve_specs(args.b)
    result_a = explore(spec_a)
    result_b = explore(spec_b)
    print(compare_protocols(result_a, result_b).render())
    return EXIT_OK
