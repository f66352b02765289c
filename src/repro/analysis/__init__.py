"""Analysis and reporting: complexity model, protocol comparison, tables.

The traffic-sweep names (:mod:`repro.analysis.sweeps`) run the simulator
and are imported on first access, so the batch engine's use of
:mod:`repro.analysis.reporting` does not load the simulator.
"""

from .compare import ComparisonReport, DiagramShape, compare_protocols, diagram_shape
from .fsm import LocalFsm, check_definition_1, local_fsm
from .complexity import (
    GrowthFit,
    fit_exponential_growth,
    max_states,
    visit_lower_bound,
)
from .reporting import (
    essential_state_rows,
    expansion_listing,
    figure4_table,
    format_table,
)

__all__ = [
    "ComparisonReport",
    "DiagramShape",
    "GrowthFit",
    "LocalFsm",
    "check_definition_1",
    "compare_protocols",
    "diagram_shape",
    "essential_state_rows",
    "expansion_listing",
    "figure4_table",
    "fit_exponential_growth",
    "format_table",
    "local_fsm",
    "TrafficPoint",
    "max_states",
    "metric_series",
    "sweep_table",
    "traffic_sweep",
    "visit_lower_bound",
]

_SWEEP_NAMES = ("TrafficPoint", "metric_series", "sweep_table", "traffic_sweep")


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from . import sweeps

        return getattr(sweeps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
