"""E6 -- bug detection: symbolic verification vs random testing.

The paper's introduction argues simulation-based validation is
incomplete: "a protocol passing the test is only shown to be correct
for the particular simulation runs".  This benchmark quantifies that:
every injected bug is killed by the symbolic verifier in milliseconds
and a bounded number of state visits, while random simulation detects
the same bugs only probabilistically -- late on sharing-heavy
workloads, and often never on private-data workloads.

Expected shape: 100% symbolic kill rate; simulation detection latency
spans orders of magnitude and drops to 0% detection for the private
workload.
"""

from __future__ import annotations

import random


from repro.analysis.reporting import format_table
from repro.core.essential import explore
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import mutants_for
from repro.protocols.registry import all_protocols
from repro.simulator import Access, AccessKind, System, Trace, make_workload

SIM_LENGTH = 30_000
SEEDS = (0, 1, 2)


def private_workload(n_processors: int, length: int, seed: int) -> Trace:
    """Each processor touches only its own block: no sharing at all."""
    rng = random.Random(seed)
    accesses = []
    for _ in range(length):
        pid = rng.randrange(n_processors)
        kind = AccessKind.WRITE if rng.random() < 0.4 else AccessKind.READ
        accesses.append(Access(pid, kind, 1000 + pid))
    return Trace(accesses)


def _simulate_detection(mutant, trace) -> int | None:
    system = System(mutant, 4, num_sets=4, strict=False)
    report = system.run(trace)
    return report.first_violation


def _collect_detection_rows():
    rows = []
    symbolic_kills = 0
    total = 0
    for spec in all_protocols():
        for mutant in mutants_for(spec):
            total += 1
            symbolic = explore(mutant)
            if not symbolic.ok:
                symbolic_kills += 1

            detections = [
                _simulate_detection(
                    mutant, make_workload("hot-block", 4, SIM_LENGTH, seed=s)
                )
                for s in SEEDS
            ]
            found = [d for d in detections if d is not None]
            sim_hot = (
                f"{min(found)}..{max(found)}"
                if len(found) == len(SEEDS)
                else f"{len(found)}/{len(SEEDS)} runs"
            )
            private = _simulate_detection(
                mutant, private_workload(4, SIM_LENGTH, seed=0)
            )
            rows.append(
                [
                    mutant.name,
                    "KILLED" if not symbolic.ok else "ESCAPED",
                    symbolic.stats.visits,
                    f"{symbolic.stats.elapsed * 1000:.0f} ms",
                    sim_hot,
                    "missed" if private is None else f"#{private}",
                ]
            )
    return rows, symbolic_kills, total


def test_mutation_detection_table(benchmark, emit):
    rows, symbolic_kills, total = benchmark.pedantic(
        _collect_detection_rows, rounds=1, iterations=1
    )
    emit(
        "E6 -- injected-bug detection: symbolic vs random simulation\n"
        + format_table(
            [
                "mutant",
                "symbolic",
                "visits",
                "time",
                "sim hot-block (1st stale read)",
                "sim private",
            ],
            rows,
        )
        + f"\n\nsymbolic kill rate: {symbolic_kills}/{total}"
    )
    assert symbolic_kills == total  # verification is exhaustive...
    # ...while testing with no sharing detects nothing (incompleteness).
    assert all(row[-1] == "missed" for row in rows)


def test_symbolic_kill_cost(benchmark):
    """Time to reject one representative buggy protocol."""
    mutant = mutants_for(IllinoisProtocol())[0]
    result = benchmark(lambda: explore(mutant))
    assert not result.ok


def test_simulation_detection_cost(benchmark):
    """Time for random testing to catch the same bug (one seed)."""
    mutant = mutants_for(IllinoisProtocol())[0]
    trace = make_workload("hot-block", 4, SIM_LENGTH, seed=0)
    first = benchmark(lambda: _simulate_detection(mutant, trace))
    assert first is not None
