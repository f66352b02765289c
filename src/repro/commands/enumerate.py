"""``repro enumerate``: the explicit Figure 2 state enumeration baseline."""

from __future__ import annotations

import argparse

from ..cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION
from ..core.options import RunOptions


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol")
    parser.add_argument("-n", type=int, default=3, help="number of caches")
    parser.add_argument(
        "--counting", action="store_true", help="Definition 5 equivalence"
    )
    parser.add_argument("--show-states", action="store_true")
    RunOptions.add_arguments(parser, only=("deadline",))


def run(args: argparse.Namespace) -> int:
    from ..enumeration.exhaustive import Equivalence
    from ..kernel import enumerate_space
    from ..protocols.registry import resolve_specs

    [spec] = resolve_specs(args.protocol)
    options = RunOptions.from_args(args)
    equivalence = Equivalence.COUNTING if args.counting else Equivalence.STRICT
    guard = None
    if options.deadline is not None:
        from ..engine.guard import Budget, Guard

        guard = Guard(Budget(deadline=options.deadline))
    result = enumerate_space(spec, args.n, equivalence=equivalence, guard=guard)
    if result.partial:
        why = result.exhausted.describe() if result.exhausted else "budget"
        verdict = (
            f"PARTIAL ({why}; {len(result.frontier)} frontier states "
            "unexpanded)"
        )
    else:
        verdict = "no violations" if result.ok else "VIOLATIONS FOUND"
    print(
        f"{spec.name}, n={args.n}, {equivalence.value} equivalence: "
        f"{result.stats.unique_states} states, {result.stats.visits} visits, "
        f"{verdict}"
    )
    if result.violations and result.partial:
        print("  (violations found before exhaustion are definitive)")
    if args.show_states:
        for state in result.states:
            print("  ", state.pretty())
    if result.violations:
        return EXIT_VIOLATION
    return EXIT_ERROR if result.partial else EXIT_OK
