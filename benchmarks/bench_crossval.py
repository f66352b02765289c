"""E7 -- Theorem 1: completeness of the essential states.

Checks the symbolic expansion against exhaustive enumeration for
n = 1..4 caches over the whole zoo with the one Theorem 1 check
(``run_oracle``): every reachable concrete state must be an instance
of an essential composite state (coverage), the engines' verdicts must
agree, and every essential state must be concretely witnessed
(non-vacuity).

Expected shape: zero uncovered states, zero vacuous essential states,
for every protocol.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.enumeration.crossval import OracleBudget, run_oracle
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.registry import all_protocols

BUDGET = OracleBudget(ns=(1, 2, 3, 4))


def test_crossval_table(benchmark, emit):
    def measure():
        rows = []
        for spec in all_protocols():
            report = run_oracle(spec, budget=BUDGET)
            assert report.agreed, report.describe()
            assert report.checked_ns == BUDGET.ns, report.describe()
            assert not report.vacuous, report.describe()
            rows.append(
                [
                    spec.name,
                    report.concrete,
                    report.essential,
                    len(report.uncovered),
                    len(report.vacuous),
                    "OK",
                ]
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "E7 -- Theorem 1 cross-validation (n = 1..4)\n"
        + format_table(
            [
                "protocol",
                "concrete states",
                "essential states",
                "uncovered",
                "vacuous",
                "verdict",
            ],
            rows,
        )
    )


def test_crossval_cost(benchmark):
    report = benchmark(lambda: run_oracle(IllinoisProtocol(), budget=BUDGET))
    assert report.agreed and not report.vacuous
