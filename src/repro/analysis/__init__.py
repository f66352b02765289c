"""Analysis and reporting: complexity model, protocol comparison, tables.

Every name is imported on first access, so the batch engine's use of
:mod:`repro.analysis.reporting` loads neither the other analyses nor,
through the traffic sweeps (:mod:`repro.analysis.sweeps`), the
simulator.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "compare": (
            "ComparisonReport",
            "DiagramShape",
            "compare_protocols",
            "diagram_shape",
        ),
        "fsm": ("LocalFsm", "check_definition_1", "local_fsm"),
        "complexity": (
            "GrowthFit",
            "fit_exponential_growth",
            "max_states",
            "visit_lower_bound",
        ),
        "reporting": (
            "essential_state_rows",
            "expansion_listing",
            "figure4_table",
            "format_table",
        ),
        "sweeps": ("TrafficPoint", "metric_series", "sweep_table", "traffic_sweep"),
    },
)
