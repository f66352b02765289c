"""Tests for cooperative budgets and first-class partial results.

Covers the :mod:`repro.engine.guard` primitives (budget validation,
stickiness, cancellation, the RSS probe) and the graceful-degradation
contract end to end: an exhausted budget turns a symbolic expansion,
an exhaustive enumeration or an engine job into a structured *partial*
result -- essential-set prefix, frontier, exhaustion reason -- instead
of an exception, while complete runs serialize exactly as before.
"""

from __future__ import annotations

import threading

import pytest

from repro import kernel
from repro.core.essential import explore
from repro.core.serialize import result_to_dict
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.engine import (
    Budget,
    Guard,
    JobStatus,
    VerificationJob,
    current_rss_mb,
    execute_job,
    job_key,
    spec_fingerprint,
)
from repro.engine.guard import ExhaustionReason
from repro.enumeration.exhaustive import enumerate_space
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant
from repro.protocols.registry import get_protocol


# ----------------------------------------------------------------------
class TestBudget:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValueError):
            Budget(deadline=0)
        with pytest.raises(ValueError):
            Budget(max_visits=-1)

    def test_bounded_property(self):
        assert not Budget().bounded
        assert Budget(max_states=10).bounded

    def test_empty_guard_never_trips(self):
        guard = Guard()
        assert not guard.active
        for _ in range(200):
            assert guard.check(visits=10**9, states=10**9) is None

    def test_visits_budget_trips(self):
        guard = Guard(Budget(max_visits=5))
        assert guard.check(visits=4) is None
        exhausted = guard.check(visits=5)
        assert exhausted is not None
        assert exhausted.reason == ExhaustionReason.VISITS
        assert exhausted.observed == 5

    def test_exhaustion_is_sticky(self):
        guard = Guard(Budget(max_states=1))
        first = guard.check(states=7)
        assert first is not None
        # Later polls with innocent totals still report the same trip.
        assert guard.check(states=0) is first

    def test_cancel_flag_trips(self):
        flag = threading.Event()
        guard = Guard(cancel=flag)
        assert guard.check() is None
        flag.set()
        exhausted = guard.check()
        assert exhausted is not None
        assert exhausted.reason == ExhaustionReason.CANCELLED
        assert "cancelled" in exhausted.describe()

    def test_deadline_trips(self):
        guard = Guard(Budget(deadline=1e-9))
        exhausted = guard.check()
        assert exhausted is not None
        assert exhausted.reason == ExhaustionReason.DEADLINE
        assert "deadline" in exhausted.describe()

    def test_rss_probe_reads_procfs(self):
        rss = current_rss_mb()
        if rss is None:
            pytest.skip("no procfs on this platform")
        assert rss > 1.0  # a Python process is bigger than a megabyte

    def test_rss_budget_trips_with_stride_one(self):
        if current_rss_mb() is None:
            pytest.skip("no procfs on this platform")
        guard = Guard(Budget(max_rss_mb=0.001), rss_stride=1)
        exhausted = guard.check()
        assert exhausted is not None
        assert exhausted.reason == ExhaustionReason.RSS

    def test_exhaustion_serializes(self):
        guard = Guard(Budget(max_visits=1))
        exhausted = guard.check(visits=1)
        payload = exhausted.to_dict()
        assert payload == {"reason": "visits", "limit": 1, "observed": 1.0}


# ----------------------------------------------------------------------
class TestPartialExpansion:
    def test_visits_budget_yields_partial_prefix(self):
        guard = Guard(Budget(max_visits=5))
        result = explore(IllinoisProtocol(), guard=guard)
        assert result.partial
        assert not result.ok
        assert result.exhausted is not None
        assert result.exhausted.reason == ExhaustionReason.VISITS
        assert result.essential  # non-empty essential-set prefix
        assert result.frontier  # and unexplored work remains
        assert "PARTIAL" in result.summary()

    def test_complete_run_unchanged_by_guard(self):
        free = explore(IllinoisProtocol())
        guarded = explore(IllinoisProtocol(), guard=Guard(Budget(max_visits=10**9)))
        assert not guarded.partial
        assert [s.pretty() for s in guarded.essential] == [
            s.pretty() for s in free.essential
        ]

    def test_partial_payload_has_partial_key(self):
        partial = explore(IllinoisProtocol(), guard=Guard(Budget(max_visits=5)))
        payload = result_to_dict(partial)
        assert payload["partial"]["reason"] == "visits"
        assert payload["partial"]["frontier"]
        assert payload["verified"] is False

    def test_complete_payload_has_no_partial_key(self):
        complete = explore(IllinoisProtocol())
        assert "partial" not in result_to_dict(complete)

    def test_violations_found_before_exhaustion_are_definitive(self):
        mutant = get_mutant(get_protocol("illinois"), "drop-invalidation")
        complete = explore(mutant)
        assert complete.violations
        # Generous enough to reach the violation, too small to finish.
        budget = complete.stats.visits - 1
        partial = explore(mutant, guard=Guard(Budget(max_visits=budget)))
        assert partial.partial
        assert partial.violations

    def test_verify_arms_the_options_visit_budget(self):
        # No explicit guard: verify() arms one from its options, so
        # max_visits alone is a partial, as in a batch job.
        report = verify("illinois", options=RunOptions(max_visits=10))
        assert report.partial
        assert report.result.exhausted.reason == ExhaustionReason.VISITS
        assert report.result.stats.visits == 10

    def test_verify_renders_partial_verdict(self):
        report = verify(
            "illinois", guard=Guard(Budget(max_visits=5))
        )
        assert report.partial
        assert not report.ok
        assert "PARTIAL" in report.render(diagram=False)


# ----------------------------------------------------------------------
class TestPartialEnumeration:
    def test_deadline_exhausted_enumeration_returns_prefix(self):
        # The acceptance scenario: Figure 2 at large n under a tight
        # wall-clock budget degrades into a partial prefix instead of
        # raising or running away.
        guard = Guard(Budget(deadline=0.05))
        result = enumerate_space(IllinoisProtocol(), 8, guard=guard)
        assert result.partial
        assert not result.ok
        assert result.exhausted.reason == ExhaustionReason.DEADLINE
        assert result.states  # non-empty reachable prefix
        assert result.frontier

    def test_complete_enumeration_not_partial(self):
        result = enumerate_space(
            IllinoisProtocol(), 2, guard=Guard(Budget(deadline=60.0))
        )
        assert not result.partial
        assert result.ok


# ----------------------------------------------------------------------
#: The four search loops; each takes a spec and keyword arguments.
SEARCHES = {
    "interp-explore": explore,
    "kernel-explore": kernel.explore,
    "interp-enumerate": lambda spec, **kw: enumerate_space(spec, 4, **kw),
    "kernel-enumerate": lambda spec, **kw: kernel.enumerate_space(spec, 4, **kw),
}


class TestOneBudgetMechanism:
    """The guard is the only way a search stops before its fixpoint."""

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    @pytest.mark.parametrize("budget", [1, 10])
    def test_visit_budget_is_a_partial_at_visit_n(self, name, budget):
        search = SEARCHES[name]
        result = search(IllinoisProtocol(), guard=Guard(Budget(max_visits=budget)))
        assert result.partial
        assert result.exhausted.reason == ExhaustionReason.VISITS
        assert result.stats.visits == budget
        assert result.frontier
        # There is no raising budget beside the guard.
        with pytest.raises(TypeError):
            search(IllinoisProtocol(), max_visits=budget)


# ----------------------------------------------------------------------
class TestPartialJobs:
    def test_visits_budget_job_is_partial_not_error(self):
        job = VerificationJob(protocol="illinois", options=RunOptions(max_visits=5))
        result = execute_job(job)
        assert result.status == JobStatus.PARTIAL
        assert result.partial
        assert not result.ok
        assert result.exhausted_reason == "visits"
        assert "visits" in result.error
        assert result.payload["partial"]["frontier"]
        assert result.verdict == "PARTIAL"

    def test_violation_beats_partial(self):
        complete = execute_job(
            VerificationJob(protocol="illinois", mutant="drop-invalidation")
        )
        assert complete.status == JobStatus.VIOLATION
        budget = complete.payload["stats"]["visits"] - 1
        partial = execute_job(
            VerificationJob(
                protocol="illinois",
                mutant="drop-invalidation",
                options=RunOptions(max_visits=budget),
            )
        )
        assert partial.status == JobStatus.VIOLATION

    def test_cancel_flag_yields_cancelled_partial(self):
        flag = threading.Event()
        flag.set()
        result = execute_job(VerificationJob(protocol="illinois"), cancel=flag)
        assert result.status == JobStatus.PARTIAL
        assert result.exhausted_reason == "cancelled"

    def test_job_key_depends_on_budgets(self):
        fp = spec_fingerprint(get_protocol("msi"))
        base = VerificationJob(protocol="msi")
        assert job_key(fp, base) != job_key(
            fp, VerificationJob(protocol="msi", options=RunOptions(deadline=1.0))
        )
        assert job_key(fp, base) != job_key(
            fp, VerificationJob(protocol="msi", options=RunOptions(max_states=100))
        )
        assert job_key(fp, base) == job_key(fp, VerificationJob(protocol="msi"))

    def test_budget_round_trip(self):
        job = VerificationJob(
            protocol="msi",
            options=RunOptions(deadline=2.0, max_states=7, max_rss_mb=512.0),
        )
        budget = job.options.budget()
        assert budget.deadline == 2.0
        assert budget.max_states == 7
        assert budget.max_rss_mb == 512.0
        assert budget.max_visits == job.options.max_visits
        meta = job.to_meta()
        assert meta["deadline"] == 2.0
        assert meta["max_states"] == 7
        assert meta["max_rss_mb"] == 512.0
