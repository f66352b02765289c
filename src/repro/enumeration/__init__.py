"""Explicit-state baselines: the Figure 2 exhaustive search and the
Definition 5 counting-equivalence pruning, plus the Theorem 1
cross-validation harness."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "crossval": ("CrossValResult", "cross_validate", "is_instance"),
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
