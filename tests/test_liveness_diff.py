"""Property tests for the liveness invariants of the differential gate.

Hypothesis drives the generator across seeds and stall densities,
re-executing every lasso through the reaction semantics, so the
``liveness`` check of :mod:`repro.testkit.diff` holds on protocols
nobody wrote.  The gate over the shipped sources is in ``test_diff.py``.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.essential import explore
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.engine.guard import Budget, Guard
from repro.liveness import analyze_liveness, replay_lasso
from repro.testkit import Case, GeneratorConfig, SpecGenerator
from repro.testkit.diff import Context, run_check


# ----------------------------------------------------------------------
# Property tests: hypothesis drives the generator
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10)
def test_property_stall_free_draws_are_live(seed):
    # The default generator never draws a stall, so the static
    # approximation is exact: every draw must be dynamically live.
    generator = SpecGenerator(seed=seed)
    _, spec = generator.draw_checked()
    report = verify(spec, options=RunOptions(mode="liveness"))
    assert report.liveness is not None
    if report.liveness.checked:
        assert report.liveness.live, report.liveness.summary()


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_stall=st.floats(min_value=0.2, max_value=0.9),
)
@settings(max_examples=10)
def test_property_lassos_always_reexecute(seed, p_stall):
    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    _, spec = generator.draw_checked()
    result = explore(spec, augmented=True, guard=Guard(Budget(max_visits=60_000)))
    assume(not result.partial)
    liveness = analyze_liveness(result)
    if not liveness.checked:
        return
    # Witnessed verdicts: one lasso per violation, every lasso runs.
    assert len(liveness.lassos) == len(liveness.violations)
    for lasso in liveness.lassos:
        ok, reason = replay_lasso(result, lasso)
        assert ok, f"{spec.name}: {lasso.signature}: {reason}"


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_stall=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=10)
def test_property_analysis_is_a_pure_function(seed, p_stall):
    import json

    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    _, spec = generator.draw_checked()
    result = explore(spec, augmented=True, guard=Guard(Budget(max_visits=60_000)))
    assume(not result.partial)
    first = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    second = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    assert first == second


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=5)
def test_property_generated_specs_pass_the_full_gate(seed):
    generator = SpecGenerator(seed=seed, config=GeneratorConfig(p_stall=0.5))
    for _ in range(2):
        _, spec = generator.draw_checked()
        found, _ = run_check("liveness", Context(Case("generated", spec)))
        assert not found, "\n".join(map(str, found))
