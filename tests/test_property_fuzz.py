"""Protocol fuzzing: verdict agreement under arbitrary perturbations.

The strongest trust argument for the reproduction: take a correct
protocol, apply a *random* semantic perturbation (reroute a transition,
drop observers, kill a write-back, flip write-through...), and check
that the symbolic verifier and the concrete exhaustive enumeration
agree on the verdict:

* **completeness** (Theorem 1): if any concrete n-cache system reaches
  an erroneous state, the symbolic expansion must reject the protocol
  -- hard assertion, no exceptions;
* **soundness of rejection**: if the symbolic expansion rejects, some
  concrete system with n ≤ 5 caches must exhibit an erroneous state
  (symbolic claims quantify over all n, so small-n clean runs alone do
  not contradict it -- we search upward).

Unlike the hand-written mutation catalog, hypothesis explores the
perturbation space systematically, including pointless and bizarre
edits, which is exactly what shakes out abstraction bugs.
"""

from __future__ import annotations

from hypothesis import assume, given

from repro.core.essential import explore
from repro.core.protocol import ProtocolDefinitionError
from repro.engine.guard import Budget, Guard
from repro.enumeration.exhaustive import enumerate_space

from tests.helpers import perturbed_protocols


# Example budget, determinism and health-check policy come from the
# hypothesis profiles registered in conftest.py (HYPOTHESIS_PROFILE).
@given(perturbed_protocols())
def test_symbolic_and_concrete_verdicts_agree(spec):
    # Reject structurally ill-formed perturbations (e.g. a fill with no
    # data source); both engines would crash identically on those.
    try:
        spec.validate()
    except ProtocolDefinitionError:
        assume(False)

    symbolic = explore(spec, guard=Guard(Budget(max_visits=60_000)))
    assume(not symbolic.partial)

    concrete3 = enumerate_space(spec, 3, guard=Guard(Budget(max_visits=400_000)))
    assert not concrete3.partial, f"{spec.name}: n=3 search over budget"

    if symbolic.ok:
        # Completeness: the symbolic expansion covers every concrete
        # reachable state, so no concrete system may be erroneous.
        assert concrete3.ok, (
            f"{spec.name}: concrete n=3 found errors the symbolic "
            f"expansion missed: {[str(v) for v in concrete3.violations[:3]]}"
        )
    else:
        # Soundness of rejection: some finite system exhibits the error.
        for n in (3, 4, 5):
            result = enumerate_space(
                spec, n, guard=Guard(Budget(max_visits=1_500_000))
            )
            # Violations found before a budget expired are definitive.
            if result.violations:
                return
        raise AssertionError(
            f"{spec.name}: symbolic rejection not witnessed by any "
            f"concrete system with n <= 5; violations: "
            f"{[str(v) for v in symbolic.violations[:3]]}"
        )
