"""Randomized end-to-end properties of the concrete engines."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enumeration.exhaustive import Equivalence, enumerate_space
from repro.protocols.registry import get_protocol, protocol_names
from repro.simulator import System, make_workload
from repro.simulator.hierarchy import HierarchicalSystem

SIMPLE_PROTOCOLS = tuple(n for n in protocol_names() if n != "lock-msi")
HIER_PROTOCOLS = ("illinois", "msi", "moesi", "mesif")
WORKLOADS = ("uniform", "hot-block", "migratory", "producer-consumer")


class TestRandomizedSimulation:
    """A verified protocol must never return stale data, for any trace
    shape, machine size or cache geometry hypothesis can invent."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(SIMPLE_PROTOCOLS),
        workload=st.sampled_from(WORKLOADS),
        n=st.integers(min_value=1, max_value=6),
        num_sets=st.integers(min_value=1, max_value=8),
        assoc=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_flat_system_never_violates(self, name, workload, n, num_sets, assoc, seed):
        system = System(
            get_protocol(name), n, num_sets=num_sets, assoc=assoc, strict=False
        )
        report = system.run(
            make_workload(workload, n, 600, seed=seed), stop_on_violation=False
        )
        assert report.ok, (name, workload, n, num_sets, assoc, seed)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(HIER_PROTOCOLS),
        workload=st.sampled_from(WORKLOADS),
        clusters=st.integers(min_value=1, max_value=3),
        l1s=st.integers(min_value=1, max_value=3),
        l2_sets=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_hierarchical_system_never_violates(
        self, name, workload, clusters, l1s, l2_sets, seed
    ):
        system = HierarchicalSystem(
            get_protocol(name),
            clusters,
            l1s,
            l1_sets=2,
            l2_sets=l2_sets,
            l2_assoc=2,
            strict=False,
        )
        trace = make_workload(workload, system.n_processors, 500, seed=seed)
        violations, _ = system.run(trace)
        assert violations == 0, (name, workload, clusters, l1s, l2_sets, seed)
        assert system.audit() == []


class TestEquivalenceConsistency:
    """The two explicit-search equivalences must describe the same
    reachable space: canonicalizing the strict space yields exactly the
    counting space."""

    @pytest.mark.parametrize("name", protocol_names())
    def test_strict_canonicalizes_to_counting(self, name):
        spec = get_protocol(name)
        strict = enumerate_space(spec, 3)
        counting = enumerate_space(spec, 3, equivalence=Equivalence.COUNTING)
        # The counting search keeps first-seen representatives, so both
        # sides are canonicalized before comparing.
        assert {s.canonical() for s in strict.states} == {
            s.canonical() for s in counting.states
        }

    @pytest.mark.parametrize("name", ["illinois", "msi"])
    def test_verdicts_agree_between_equivalences(self, name):
        from repro.protocols.mutations import mutants_for

        for mutant in mutants_for(get_protocol(name)):
            strict = enumerate_space(mutant, 3)
            counting = enumerate_space(
                mutant, 3, equivalence=Equivalence.COUNTING
            )
            assert strict.ok == counting.ok, mutant.name
