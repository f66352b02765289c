"""Explicit-state baselines: the Figure 2 exhaustive search and the
Definition 5 counting-equivalence pruning, plus the one Theorem 1
check that compares them with the symbolic expansion
(:func:`~repro.enumeration.crossval.run_oracle`: completeness,
coverage, soundness and non-vacuity, under a guard)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "crossval": (
            "Finding",
            "OracleBudget",
            "OracleReport",
            "SymbolicView",
            "is_instance",
            "run_oracle",
            "symbolic_view",
        ),
        "exhaustive": (
            "EnumerationResult",
            "EnumerationStats",
            "Equivalence",
            "concrete_violations",
            "enumerate_space",
        ),
        "product": (
            "ConcreteState",
            "ConcreteTransition",
            "concrete_successors",
            "initial_concrete",
        ),
    },
)
