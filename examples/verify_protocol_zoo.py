#!/usr/bin/env python3
"""Verify the whole Archibald & Baer protocol zoo -- through the engine.

The paper's companion tech report applies the methodology to every
protocol of the Archibald & Baer survey; this example regenerates that
table -- essential states, state visits and verdict per protocol --
using the batch-verification engine (``repro.engine``): every protocol
is a :class:`VerificationJob`, the run is journaled, and repeated runs
replay from the persistent result cache instead of re-verifying.  It
then uses the global diagrams to show similarities and disparities
between protocol families (the paper's Section 5 claim).

Run:  python examples/verify_protocol_zoo.py
      REPRO_ZOO_JOBS=4 python examples/verify_protocol_zoo.py   # parallel
"""

import os

from repro import protocol_names
from repro.analysis.compare import compare_protocols
from repro.analysis.reporting import format_table
from repro.core.essential import explore
from repro.engine import VerificationJob, run_batch
from repro.protocols.registry import get_protocol


def main() -> None:
    jobs = [
        VerificationJob(protocol=name)
        for name in protocol_names()
    ]
    report = run_batch(jobs, workers=int(os.environ.get("REPRO_ZOO_JOBS", "1")))

    rows = []
    for result in report.results:
        spec = get_protocol(result.job.protocol)
        payload = result.payload
        assert payload is not None, result.error
        rows.append(
            [
                spec.name,
                "sharing" if spec.uses_sharing_detection else "null",
                len(spec.states),
                len(payload["essential_states"]),
                payload["stats"]["visits"],
                len(payload["transitions"]),
                "VERIFIED" if payload["verified"] else "FAILED",
            ]
        )
    print(
        format_table(
            ["protocol", "F", "|Q|", "essential", "visits", "edges", "verdict"],
            rows,
            title="Symbolic verification of the protocol zoo",
        )
    )
    print(f"\n({report.counts_line()})")

    print("\nEvery global state space collapses to a handful of essential")
    print("states, independent of the number of caches in the machine.\n")

    # Similarities and disparities (Section 5) -- these need the full
    # in-memory expansion results, which are milliseconds to recompute.
    results = {
        name: explore(get_protocol(name))
        for name in ("msi", "synapse", "illinois", "firefly", "dragon", "moesi")
    }
    print("=== MSI vs Synapse (two three-state invalidate protocols) ===")
    print(compare_protocols(results["msi"], results["synapse"]).render())
    print()
    print("=== Illinois vs Firefly (invalidate vs update) ===")
    print(compare_protocols(results["illinois"], results["firefly"]).render())
    print()
    print("=== Dragon vs MOESI (five-state update vs invalidate) ===")
    print(compare_protocols(results["dragon"], results["moesi"]).render())


if __name__ == "__main__":
    main()
