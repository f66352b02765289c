"""Integration: the three engines must agree on every protocol.

The symbolic verifier, the concrete enumeration and the executable
simulator all consume the same :class:`ProtocolSpec`.  These tests pin
the global agreement property: a protocol is declared correct by the
symbolic expansion if and only if the concrete engines never observe an
erroneous state either (for the system sizes / workloads they explore).
"""

from __future__ import annotations

import pytest

from repro.core.essential import explore
from repro.enumeration.exhaustive import enumerate_space
from repro.protocols.mutations import mutants_for
from repro.protocols.registry import all_protocols
from repro.simulator import System, make_workload

CASES = [(spec, None) for spec in all_protocols()] + [
    (mutant, mutant.mutation.key)
    for spec in all_protocols()
    for mutant in mutants_for(spec)
]


@pytest.mark.parametrize(
    "spec", [c[0] for c in CASES], ids=[c[0].name for c in CASES]
)
class TestSymbolicVsConcrete:
    def test_verdicts_agree_with_enumeration(self, spec):
        """Symbolic verdict == concrete verdict at n=3.

        n=3 suffices for every bug in the catalog: each needs at most a
        writer, a stale reader, and one further cache.
        """
        symbolic_ok = explore(spec).ok
        concrete_ok = enumerate_space(spec, 3).ok
        assert symbolic_ok == concrete_ok, spec.name


class TestSymbolicVsSimulation:
    def test_verified_protocols_never_fail_in_simulation(self):
        for spec in all_protocols():
            assert explore(spec).ok
            system = System(spec, 4, num_sets=4, strict=False)
            report = system.run(
                make_workload("hot-block", 4, 4000, seed=13),
                stop_on_violation=False,
            )
            assert report.ok, spec.name

    def test_rejected_protocols_eventually_fail_in_simulation(self):
        """Every mutant the verifier kills is also (eventually) caught
        by a sufficiently sharing-heavy random test -- the two oracles
        agree; the verifier is just immediate and exhaustive."""
        for spec in all_protocols():
            for mutant in mutants_for(spec):
                caught = False
                for seed in range(6):
                    system = System(mutant, 4, num_sets=2, strict=False)
                    report = system.run(
                        make_workload("hot-block", 4, 8000, seed=seed)
                    )
                    if not report.ok:
                        caught = True
                        break
                assert caught, f"{mutant.name} never caught by simulation"


class TestWitnessReplay:
    """Counterexamples from the symbolic engine are concretely real."""

    def test_witness_violation_reachable_concretely(self):
        from repro.enumeration.exhaustive import concrete_violations
        from repro.protocols.illinois import IllinoisProtocol
        from repro.protocols.mutations import get_mutant

        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        result = enumerate_space(mutant, 3)
        assert not result.ok
        # The concrete search found an erroneous state whose violation
        # kinds overlap the symbolic report.
        symbolic = explore(mutant)
        symbolic_kinds = {v.kind for v in symbolic.violations}
        concrete_kinds = {
            v.kind
            for state in result.erroneous
            for v in concrete_violations(mutant, state)
        }
        assert concrete_kinds & symbolic_kinds
