"""``repro simulate``: run the executable multiprocessor on a workload."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_VIOLATION
from .verify import MUTANT_CHOICES

#: ``--workload`` choices: the keys of
#: :data:`repro.simulator.workloads.WORKLOADS`, spelled out so building
#: the parser does not import the simulator (a test keeps them equal).
WORKLOAD_CHOICES = ("hot-block", "migratory", "producer-consumer", "uniform")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("protocol")
    parser.add_argument(
        "-w", "--workload", choices=WORKLOAD_CHOICES, default="hot-block"
    )
    parser.add_argument("-p", "--processors", type=int, default=4)
    parser.add_argument("-l", "--length", type=int, default=10000)
    parser.add_argument("--sets", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mutant", choices=MUTANT_CHOICES)
    parser.add_argument("--stop-on-violation", action="store_true")
    parser.add_argument("--trace-file", metavar="FILE", help="replay a saved trace")
    parser.add_argument("--save-trace", metavar="FILE", help="save the trace used")


def run(args: argparse.Namespace) -> int:
    from ..simulator.system import System
    from ..simulator.traceio import load_trace, save_trace
    from ..protocols.mutations import get_mutant
    from ..protocols.registry import resolve_specs
    from ..simulator.workloads import make_workload

    [spec] = resolve_specs(args.protocol)
    if args.mutant:
        spec = get_mutant(spec, args.mutant)
    if args.trace_file:
        trace = load_trace(args.trace_file)
        if trace.processors > args.processors:
            args.processors = trace.processors
    else:
        trace = make_workload(
            args.workload, args.processors, args.length, seed=args.seed
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"trace written to {args.save_trace}")
    system = System(spec, args.processors, num_sets=args.sets, strict=False)
    report = system.run(trace, stop_on_violation=args.stop_on_violation)
    print(f"{spec.name} on {trace.describe()}")
    print(report.summary())
    for violation in report.violations[:5]:
        print("  ", violation)
    return EXIT_OK if report.ok else EXIT_VIOLATION
