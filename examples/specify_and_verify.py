#!/usr/bin/env python3
"""The protocol specification language (paper Section 5's proposal).

The paper's conclusion calls for "a formal specification language
capable of describing both the protocol behavior and the processes
implementing it ... [to] reduce the possibility of errors".  This
example exercises exactly that workflow:

1. load the Illinois protocol from its textual specification and show
   it produces *the same five essential states* as the hand-written
   Python specification;
2. load a Firefly-style write-broadcast specification, verify it and
   run it on the executable multiprocessor;
3. load a deliberately buggy MESI specification and watch the verifier
   reject it with a counterexample -- a transcription error caught
   before implementation.

Run:  python examples/specify_and_verify.py   (from the repo root)
"""

from pathlib import Path

from repro import verify
from repro.core.essential import explore
from repro.protocols import get_protocol
from repro.protocols.dsl import load_builtin, load_protocol
from repro.simulator import System, make_workload

SPEC_DIR = Path(__file__).parent / "specs"


def main() -> None:
    # 1. The DSL and the Python specification agree exactly.
    dsl_illinois = load_builtin("illinois")
    dsl_result = explore(dsl_illinois)
    py_result = explore(get_protocol("illinois"))
    dsl_states = {s.pretty() for s in dsl_result.essential}
    py_states = {s.pretty() for s in py_result.essential}
    assert dsl_states == py_states
    print("DSL Illinois == Python Illinois:")
    for state in sorted(dsl_states):
        print("   ", state)

    # 2. A write-broadcast protocol from a spec file, verified and run.
    firefly_like = load_protocol(SPEC_DIR / "firefly_like.proto")
    report = verify(firefly_like)
    print(f"\n{report}")
    system = System(firefly_like, 4)
    sim = system.run(make_workload("producer-consumer", 4, 5000, seed=9))
    print(f"simulated: {sim.summary()}")
    assert report.ok and sim.ok

    # 3. A buggy spec is rejected before any hardware exists.
    broken = load_protocol(SPEC_DIR / "broken_mesi.proto")
    broken_report = verify(broken)
    print(f"\n{broken_report}")
    assert not broken_report.ok
    print("\nFirst counterexample for the buggy specification:")
    print(broken_report.witnesses[0].render())


if __name__ == "__main__":
    main()
