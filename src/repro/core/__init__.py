"""Symbolic verification engine for cache coherence protocols.

Implements the methodology of Pong & Dubois (SPAA 1993): composite
states with repetition operators, structural covering and containment,
symbolic state-space expansion to essential states, and data-consistency
checking through context variables.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "composite": ("CompositeState", "Label", "make_state", "parse_class_spec"),
        "covering": ("contains", "is_essential_among", "structurally_covers"),
        "errors": (
            "ErrorKind",
            "ForbidMultiple",
            "ForbidState",
            "ForbidTogether",
            "StatePattern",
            "Violation",
            "Witness",
        ),
        "essential": (
            "Disposition",
            "ExpansionResult",
            "ExpansionStats",
            "PruningMode",
            "TraceEntry",
            "explore",
        ),
        "expansion": ("SymbolicExpander", "SymbolicTransition", "TransitionLabel"),
        "graph": ("GlobalGraph", "ascii_diagram", "build_graph", "to_dot"),
        "operators": ("Rep", "aggregate", "leq", "remove_one"),
        "protocol": ("ProtocolDefinitionError", "ProtocolSpec"),
        "serialize": (
            "result_to_dict",
            "result_to_json",
            "state_from_dict",
            "state_to_dict",
        ),
        "reactions": (
            "INITIATOR",
            "Ctx",
            "LoadFrom",
            "MEMORY",
            "ObserverReaction",
            "Outcome",
            "from_cache",
            "stay",
        ),
        "symbols": ("CountCase", "DataValue", "Op", "SharingLevel"),
        "options": ("RunOptions",),
        "verifier": ("VerificationReport", "verify"),
    },
)
