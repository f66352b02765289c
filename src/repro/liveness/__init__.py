"""Liveness and deadlock-freedom verification (ROADMAP item 4).

The safety verifier answers "is an erroneous state reachable?"; this
package answers "can a pending request be refused forever?".  It is a
post-pass over a completed symbolic expansion: the essential-state
graph, closed under the ``contains`` covering, is turned into a
product automaton tracking one blocked cache, and every stallable
request is checked for a reachable serving state.  Failures come back
as lasso-shaped witnesses (``stem`` + ``loop``) that replay through
the ordinary reaction semantics.

Selected end to end by the ``mode="liveness"`` run option
(:class:`repro.core.options.RunOptions`) on :func:`repro.verify`,
verification jobs, batch runs, the campaign server and the CLI; see
``docs/LIVENESS.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analyze": ("analyze_liveness",),
        "model": ("LassoStep", "LassoWitness", "LivenessReport", "retry_label"),
        "replay": ("replay_lasso",),
    },
)
