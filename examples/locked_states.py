#!/usr/bin/env python3
"""Protocols with locked states -- the paper's Section 5 extension.

The paper closes by noting the methodology's reduced complexity makes
verification of "protocols with locked states" practical.  This example
does exactly that with the shipped ``lock-msi`` protocol, which extends
MSI with a pinning ``Locked`` state and ``LOCK``/``UNLOCK`` operations:

1. symbolic verification proves mutual exclusion (at most one Locked
   copy ever) *and* data consistency, for any number of caches;
2. the executable multiprocessor demonstrates the blocking behaviour
   concretely: contending lock acquisitions stall until the release;
3. a mutated variant whose LOCK forgets to invalidate the sharers is
   rejected with a counterexample.

Run:  python examples/locked_states.py
"""

from repro import verify
from repro.core.graph import ascii_diagram
from repro.protocols.lock_msi import LockMsiProtocol
from repro.protocols.mutations import get_mutant
from repro.simulator import System, locking


def main() -> None:
    spec = LockMsiProtocol()

    # 1. Symbolic verification with the extended operation alphabet.
    report = verify(spec)
    assert report.ok
    print(ascii_diagram(report.result))
    print()
    for state in report.result.essential:
        lo, hi = state.symbol_interval("Locked")
        assert hi is None or hi <= 1
    print("mutual exclusion holds in every reachable global state;")
    print(f"verified in {report.result.stats.visits} state visits.\n")

    # 2. Concrete blocking behaviour.
    system = System(spec, 2)
    assert system.lock(0, 0)
    print("P0 acquired the lock on block 0")
    print(f"P1 lock attempt succeeds? {system.lock(1, 0)}")
    print(f"P1 read attempt returns:  {system.read(1, 0)} (None = stalled)")
    system.write(0, 0)
    system.unlock(0, 0)
    print("P0 wrote and released")
    print(f"P1 lock attempt now:      {system.lock(1, 0)}")
    print(f"P1 state for block 0:     {system.caches[1].state_of(0)}\n")

    # A contended workload, fully checked by the golden-value oracle.
    stress = System(spec, 8, num_sets=4)
    sim = stress.run(locking(8, 20_000, seed=21))
    assert sim.ok
    print(f"locking workload: {sim.summary()}")
    print(f"lock contention stalls on the bus: {sim.bus.stalls}\n")

    # 3. A broken locking protocol is caught symbolically.
    buggy = get_mutant(spec, "drop-invalidation")
    buggy_report = verify(buggy)
    assert not buggy_report.ok
    print(f"{buggy.full_name}:")
    print(buggy_report.witnesses[0].render())


if __name__ == "__main__":
    main()
