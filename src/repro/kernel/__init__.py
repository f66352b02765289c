"""repro.kernel -- a compiled expansion kernel over the guarded-action IR.

The interpreter (:mod:`repro.core.essential`, :mod:`repro.core.expansion`,
:mod:`repro.enumeration`) manipulates composite states as tuples of
frozen dataclasses and re-evaluates protocol reactions on every visit.
This subsystem compiles a :class:`~repro.ir.model.ProtocolIR` into a
packed integer form once and then explores on plain ``int`` tuples:

* symbols, data values and repetition operators are encoded into small
  integers; a composite-state class is one ``int`` and a state is a
  tuple of them plus two annotation codes;
* the reaction/decision table is resolved once per
  ``(state, operation, present-set)`` triple -- guard evaluation,
  cache-supplier fallback chains and observer maps all collapse into a
  single table lookup on the hot path;
* composite states are hash-consed through an intern table, so state
  identity is an ``int`` and decoding to the public
  :class:`~repro.core.composite.CompositeState` happens at most once
  per distinct state;
* the containment lattice (Definition 9) is memoized per interned
  state pair (one byte row per state), making essential-set
  membership a memo lookup plus a small frontier scan.

:func:`explore` and :func:`enumerate_space` mirror the interpreter's
control flow step for step, so verdicts, violation kinds, witness
shapes, essential-state sets and visit counts are identical -- the
differential gate's ``kernel`` check (:mod:`repro.testkit.diff`)
enforces exactly that.
Lowering is total, so every spec runs on the kernel; the interpreter
stays the readable reference it is checked against.  See
``docs/KERNEL.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "compile": ("CompiledProtocol", "compile_protocol"),
        "essential": ("explore",),
        "exhaustive": ("enumerate_space",),
    },
)
