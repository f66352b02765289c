"""repro.ir -- canonical guarded-action IR for protocol behaviour.

Lower any specification (DSL or registry) to a flat, integer-interned
decision list of guarded transitions; serialize it deterministically
with a stable SHA-256 fingerprint; read its whole behaviour back, cell
by cell, with :meth:`ProtocolIR.behaviour` and :meth:`ProtocolIR.outcome`.

Quickstart::

    from repro.ir import lower
    from repro.protocols import get_protocol

    ir = lower(get_protocol("illinois"))
    print(ir.fingerprint())          # stable across processes
    cells = list(ir.behaviour())     # (state, op, ctx, transition)

The IR is the input format for flow-sensitive lint rules
(:mod:`repro.lint.flow`), the Definition 1 FSM and the compiled
expansion kernel (:mod:`repro.kernel`).  See ``docs/IR.md`` for the
format specification.
"""

# Unlike the other package roots this one imports eagerly: ``lower`` is
# both a function and the submodule defining it, and a lazy root would
# expose the submodule under that name once anything imported
# ``repro.ir.lower`` first.  Every user of the IR lowers anyway.
from .lower import lower, lower_dsl, lower_spec
from .model import (
    IR_SCHEMA,
    SELF,
    IRAction,
    IRError,
    IRGuard,
    IRTransition,
    ProtocolIR,
    canonical_json,
)

__all__ = [
    "IR_SCHEMA",
    "SELF",
    "IRAction",
    "IRError",
    "IRGuard",
    "IRTransition",
    "ProtocolIR",
    "canonical_json",
    "lower",
    "lower_dsl",
    "lower_spec",
]
