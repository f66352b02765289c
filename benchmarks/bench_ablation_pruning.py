"""E8 -- ablation: the value of containment pruning (Definition 9).

Runs the symbolic worklist algorithm with full containment pruning (the
paper's Figure 3) and with exact-duplicate detection only, across the
zoo.  Containment is what turns the symbolic state space into a handful
of essential states; without it the worklist keeps every incomparable
annotation variant.

Expected shape: containment never visits more states than
duplicates-only and always reports no more (usually fewer) final
states; on the richer protocols the visit reduction exceeds 2x.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table
from repro.core.essential import PruningMode, explore
from repro.protocols.registry import all_protocols, get_protocol


def test_pruning_ablation_table(benchmark, emit):
    def measure():
        rows = []
        reductions = []
        for spec in all_protocols():
            pruned = explore(spec, pruning=PruningMode.CONTAINMENT)
            plain = explore(spec, pruning=PruningMode.DUPLICATES)
            assert pruned.ok and plain.ok
            assert pruned.stats.visits <= plain.stats.visits
            assert len(pruned.essential) <= len(plain.essential)
            reduction = plain.stats.visits / pruned.stats.visits
            reductions.append(reduction)
            rows.append(
                [
                    spec.name,
                    len(pruned.essential),
                    pruned.stats.visits,
                    len(plain.essential),
                    plain.stats.visits,
                    f"{reduction:.2f}x",
                ]
            )
        return rows, reductions

    rows, reductions = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "E8 -- pruning ablation (containment vs duplicates-only)\n"
        + format_table(
            [
                "protocol",
                "ess (containment)",
                "visits (containment)",
                "states (dup-only)",
                "visits (dup-only)",
                "visit reduction",
            ],
            rows,
        )
    )
    assert max(reductions) > 2.0


@pytest.mark.parametrize("mode", [PruningMode.CONTAINMENT, PruningMode.DUPLICATES])
def test_pruning_cost(benchmark, mode):
    benchmark(lambda: explore(get_protocol("dragon"), pruning=mode))
