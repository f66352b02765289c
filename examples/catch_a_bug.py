#!/usr/bin/env python3
"""Catch a protocol bug three ways: symbolically, concretely, live.

We inject a classic design error into the Illinois protocol -- writes no
longer invalidate remote copies -- and then:

1. the **symbolic verifier** rejects the protocol instantly, with a
   counterexample path from the all-invalid initial state;
2. the **exhaustive enumeration** (Figure 2 baseline, n = 3) confirms
   the erroneous state is concretely reachable;
3. the **executable multiprocessor** eventually reads stale data under
   a random workload -- but only after hundreds of accesses, and only
   if the workload shares data at all: the incompleteness of testing
   the paper's introduction warns about.

Run:  python examples/catch_a_bug.py
"""

from repro import verify
from repro.enumeration.exhaustive import enumerate_space
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant
from repro.simulator import System, make_workload


def main() -> None:
    mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
    print(f"Injected bug: {mutant.full_name}\n")

    # 1. Symbolic verification: immediate, exhaustive, with witness.
    report = verify(mutant)
    assert not report.ok
    print("=== 1. Symbolic verifier ===")
    print(
        f"verdict: FAILED after {report.result.stats.visits} state visits "
        f"({report.result.stats.elapsed * 1000:.1f} ms)"
    )
    print("first counterexample:")
    print(report.witnesses[0].render())

    # 2. Concrete enumeration agrees.
    print("\n=== 2. Exhaustive enumeration (n = 3) ===")
    concrete = enumerate_space(mutant, 3)
    print(
        f"verdict: {'ok' if concrete.ok else 'FAILED'} after "
        f"{concrete.stats.visits} state visits"
    )
    print(f"example erroneous concrete state: {concrete.erroneous[0]}")

    # 3. Random testing: detection is probabilistic and late.
    print("\n=== 3. Random simulation ===")
    for workload in ("hot-block", "uniform"):
        system = System(mutant, 4, num_sets=4, strict=False)
        result = system.run(make_workload(workload, 4, 50_000, seed=1))
        where = (
            f"first stale read at access #{result.first_violation}"
            if not result.ok
            else "bug NOT detected in 50,000 accesses"
        )
        print(f"{workload:>12s}: {where}")

    print(
        "\nThe verifier needs milliseconds and no luck; "
        "testing needs sharing-heavy traffic and patience."
    )


if __name__ == "__main__":
    main()
