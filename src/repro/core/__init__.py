"""Symbolic verification engine for cache coherence protocols.

Implements the methodology of Pong & Dubois (SPAA 1993): composite
states with repetition operators, structural covering and containment,
symbolic state-space expansion to essential states, and data-consistency
checking through context variables.
"""

from .composite import CompositeState, Label, make_state, parse_class_spec
from .covering import contains, is_essential_among, structurally_covers
from .errors import (
    ErrorKind,
    ForbidMultiple,
    ForbidState,
    ForbidTogether,
    StatePattern,
    Violation,
    Witness,
)
from .essential import (
    Disposition,
    ExpansionResult,
    ExpansionStats,
    PruningMode,
    TraceEntry,
    explore,
)
from .expansion import SymbolicExpander, SymbolicTransition, TransitionLabel
from .graph import GlobalGraph, ascii_diagram, build_graph, to_dot
from .operators import Rep, aggregate, leq, remove_one
from .protocol import ProtocolDefinitionError, ProtocolSpec
from .serialize import result_to_dict, result_to_json, state_from_dict, state_to_dict
from .reactions import (
    INITIATOR,
    Ctx,
    LoadFrom,
    MEMORY,
    ObserverReaction,
    Outcome,
    from_cache,
    stay,
)
from .symbols import CountCase, DataValue, Op, SharingLevel
from .options import RunOptions
from .verifier import VerificationReport, verify

__all__ = [
    "CompositeState",
    "CountCase",
    "Ctx",
    "DataValue",
    "Disposition",
    "ErrorKind",
    "ExpansionResult",
    "GlobalGraph",
    "ExpansionStats",
    "ForbidMultiple",
    "ForbidState",
    "ForbidTogether",
    "INITIATOR",
    "Label",
    "LoadFrom",
    "MEMORY",
    "ObserverReaction",
    "Op",
    "Outcome",
    "ProtocolDefinitionError",
    "ProtocolSpec",
    "PruningMode",
    "Rep",
    "RunOptions",
    "SharingLevel",
    "StatePattern",
    "SymbolicExpander",
    "SymbolicTransition",
    "TraceEntry",
    "TransitionLabel",
    "VerificationReport",
    "Violation",
    "Witness",
    "aggregate",
    "ascii_diagram",
    "build_graph",
    "contains",
    "explore",
    "from_cache",
    "is_essential_among",
    "leq",
    "make_state",
    "parse_class_spec",
    "remove_one",
    "result_to_dict",
    "result_to_json",
    "state_from_dict",
    "state_to_dict",
    "stay",
    "structurally_covers",
    "to_dot",
    "verify",
]
