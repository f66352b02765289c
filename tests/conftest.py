"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal

import pytest
from hypothesis import HealthCheck, settings

from repro.core.essential import ExpansionResult, explore
from repro.protocols.registry import all_protocols, get_protocol, protocol_names


from tests.helpers import build_state  # noqa: F401  (re-exported fixture helper)

# Deterministic hypothesis profiles, selected via HYPOTHESIS_PROFILE.
# "ci" (the default, pinned in the CI workflow) is derandomized with a
# bounded example budget so a red property test reproduces identically
# on any machine; "dev" spends a larger budget with fresh randomness
# for local exploration.
_HEALTH = [HealthCheck.too_slow, HealthCheck.data_too_large]
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=_HEALTH,
)
settings.register_profile(
    "dev",
    max_examples=100,
    deadline=None,
    suppress_health_check=_HEALTH,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: Per-test wall-clock ceiling (seconds); 0 disables the watchdog.
_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "180"))


@pytest.fixture(autouse=True)
def _test_watchdog(request):
    """SIGALRM backstop so a hung worker can never wedge the suite.

    The chaos tests deliberately spawn workers that hang; if teardown
    logic regressed, a test could block forever.  When the
    ``pytest-timeout`` plugin is installed (CI) it owns this job;
    locally this fixture arms an interval timer instead.  Disable with
    ``REPRO_TEST_TIMEOUT=0``.
    """
    if (
        _TEST_TIMEOUT <= 0
        or not hasattr(signal, "SIGALRM")
        or request.config.pluginmanager.hasplugin("timeout")
    ):
        yield
        return

    def _timed_out(signum, frame):
        pytest.fail(
            f"test exceeded the {_TEST_TIMEOUT:g}s watchdog "
            "(REPRO_TEST_TIMEOUT)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _fresh_fingerprint_memo():
    """Start every test with no memoized registry fingerprint.

    Batch admission hashes each registry job's spec once per process;
    clearing that memo keeps a test's hashing (and what it counts) from
    depending on which tests ran before it.
    """
    from repro.engine import batch

    batch._REGISTRY_FINGERPRINTS.clear()
    yield


@pytest.fixture(scope="session")
def illinois():
    return get_protocol("illinois")


@pytest.fixture(scope="session")
def every_protocol():
    return all_protocols()


@pytest.fixture(scope="session")
def explored_augmented() -> dict[str, ExpansionResult]:
    """Augmented expansion results for every protocol (computed once)."""
    return {name: explore(get_protocol(name)) for name in protocol_names()}


@pytest.fixture(scope="session")
def explored_structural() -> dict[str, ExpansionResult]:
    """Structural (non-augmented) expansion results for every protocol."""
    return {
        name: explore(get_protocol(name), augmented=False)
        for name in protocol_names()
    }


@pytest.fixture(scope="session")
def illinois_result(explored_augmented) -> ExpansionResult:
    return explored_augmented["illinois"]
