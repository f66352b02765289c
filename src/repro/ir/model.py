"""Canonical guarded-action IR for protocol specifications.

The IR is the repository's exchange format for protocol *behaviour*:
a flat, integer-interned list of guarded transitions

    ``(state, op) : guard -> action``

where a *guard* is a conjunction of atomic context conditions (the
same atoms the DSL exposes: ``any`` / ``none`` / ``has(S)`` /
``!has(S)``) and an *action* is the complete system reaction (next
state, data source, write-back, observer moves), a stall, or the
exception the reaction raises.  This is the "guarded action language"
shape Meunier et al. used to model a coherence protocol for mechanical
analysis, specialised to the paper's per-cache FSM model (Definition
1): because specifications only ever observe the rest of the system
through the present-set (``ctx.has`` / ``ctx.any_copy``), a finite
decision list of guarded transitions describes a protocol *exactly*.

Design points:

* **Interning** -- states and operations are referenced by integer
  index into :attr:`ProtocolIR.states` / :attr:`ProtocolIR.ops`
  everywhere inside transitions, so downstream consumers (the flow
  analyzer, the future compiled expansion kernel) work on small
  tuples of ints instead of strings.
* **Determinism** -- :meth:`ProtocolIR.to_dict` emits a canonical,
  fully-sorted JSON-able dict; :meth:`ProtocolIR.fingerprint` is the
  SHA-256 of its minimal JSON rendering.  Two lowerings of the same
  specification hash identically across processes and Python
  versions.
* **Exactness** -- :meth:`ProtocolIR.behaviour` selects a transition in
  every cell and observation context, and :meth:`ProtocolIR.outcome`
  materializes it; over that whole table a lowered IR agrees with the
  spec's :func:`~repro.core.protocol.reaction_table` (the ``ir`` check
  of ``repro diff`` compares the two cell by cell).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping

from ..core.protocol import ProtocolDefinitionError
from ..core.reactions import (
    INITIATOR,
    MEMORY,
    Ctx,
    ObserverReaction,
    Outcome,
    from_cache,
    observation_contexts,
)
from ..core.symbols import Op

__all__ = [
    "IR_SCHEMA",
    "SELF",
    "IRError",
    "IRGuard",
    "IRAction",
    "IRTransition",
    "ProtocolIR",
    "canonical_json",
]

#: Serialization schema tag; bump on any shape change so stale dumps
#: are never misread.
IR_SCHEMA = "repro-ir/1"

#: Write-back sentinel meaning "the initiator's own copy" (the DSL's
#: ``writeback self``).  State ids are non-negative, so -1 is free.
SELF = -1

#: Guard atom kinds, in canonical order.
_ATOM_KINDS = ("any", "none", "has", "nothas")


class IRError(Exception):
    """An IR document is malformed or cannot be interpreted."""


def canonical_json(payload: Any) -> str:
    """Minimal, key-sorted JSON -- the IR hashing wire format."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IRGuard:
    """A conjunction of atomic conditions over the observation context.

    ``atoms`` are ``(kind, state_id)`` pairs; ``state_id`` is -1 for
    the nullary kinds ``any`` / ``none``.  An empty conjunction is the
    always-true guard.
    """

    atoms: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        for kind, state_id in self.atoms:
            if kind not in _ATOM_KINDS:
                raise IRError(f"unknown guard atom kind {kind!r}")
            if kind in ("any", "none") and state_id != -1:
                raise IRError(f"atom {kind!r} takes no state operand")
            if kind in ("has", "nothas") and state_id < 0:
                raise IRError(f"atom {kind!r} needs a state operand")

    @property
    def always(self) -> bool:
        """True iff this is the unconditional guard."""
        return not self.atoms

    def holds(self, present: frozenset[int]) -> bool:
        """Evaluate over an abstract present-set of state ids.

        ``any``/``none`` are interpreted as "the present set is
        (non-)empty", which coincides with ``ctx.any_copy`` for every
        consistently-built context.
        """
        for kind, state_id in self.atoms:
            if kind == "any" and not present:
                return False
            if kind == "none" and present:
                return False
            if kind == "has" and state_id not in present:
                return False
            if kind == "nothas" and state_id in present:
                return False
        return True

    def render(self, states: tuple[str, ...]) -> str:
        """DSL-style guard text (``always`` for the empty guard)."""
        if not self.atoms:
            return "always"
        parts = []
        for kind, state_id in self.atoms:
            if kind == "any":
                parts.append("any")
            elif kind == "none":
                parts.append("none")
            elif kind == "has":
                parts.append(f"has({states[state_id]})")
            else:
                parts.append(f"!has({states[state_id]})")
        return " & ".join(parts)


# ----------------------------------------------------------------------
# Actions and transitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IRAction:
    """The complete system reaction of one selected transition.

    ``load`` is ``None`` (no fill), ``("memory", ())`` or
    ``("cache", candidate_ids)`` -- the first *present* candidate
    supplies the data, mirroring the DSL's ``cache:A|B`` fallback
    chains.  ``writeback`` is a state id, :data:`SELF`, or ``None``.
    ``observers`` are ``(observer_id, next_id, updated)`` triples,
    sorted by observer id; observers not listed stay put.  ``raises``
    is set (``"RuntimeError: ..."``) when the reaction itself raises in
    this context: the entry has no effect, and reaching it is an error.
    """

    next_state: int
    load: tuple[str, tuple[int, ...]] | None = None
    writeback: int | None = None
    write_through: bool = False
    observers: tuple[tuple[int, int, bool], ...] = ()
    stalled: bool = False
    raises: str | None = None


@dataclass(frozen=True)
class IRTransition:
    """One guarded transition: ``(state, op) : guard -> action``."""

    state: int
    op: int
    guard: IRGuard
    action: IRAction
    #: Index of the DSL rule this transition was lowered from, when the
    #: source was a DSL specification (None for synthesized guards).
    origin: int | None = None


# ----------------------------------------------------------------------
# The IR document
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolIR:
    """A complete protocol in guarded-action form.

    Transition order is significant: like the DSL, the decision list
    is matched first-to-last and the first transition whose
    ``(state, op)`` and guard match wins.
    """

    name: str
    full_name: str
    states: tuple[str, ...]
    invalid: int
    ops: tuple[str, ...]
    uses_sharing_detection: bool
    transitions: tuple[IRTransition, ...]
    owner_states: tuple[int, ...] = ()
    exclusive_states: tuple[int, ...] = ()
    shared_fill_state: int | None = None
    #: ``("multiple", s)`` / ``("together", a, b)`` / ("state", s)``.
    error_patterns: tuple[tuple[Any, ...], ...] = ()
    #: ``(op_id, "only-from"|"not-from", state_ids)`` applicability limits.
    restrictions: tuple[tuple[int, str, tuple[int, ...]], ...] = ()

    # -- interning helpers ---------------------------------------------
    @cached_property
    def _state_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.states)}

    @cached_property
    def _op_ids(self) -> dict[str, int]:
        return {op: i for i, op in enumerate(self.ops)}

    @cached_property
    def _by_cell(self) -> dict[tuple[int, int], tuple[IRTransition, ...]]:
        cells: dict[tuple[int, int], list[IRTransition]] = {}
        for t in self.transitions:
            cells.setdefault((t.state, t.op), []).append(t)
        return {cell: tuple(ts) for cell, ts in cells.items()}

    def state_id(self, name: str) -> int:
        """Intern a state name (raises :class:`IRError` when unknown)."""
        try:
            return self._state_ids[name]
        except KeyError:
            raise IRError(f"{self.name}: unknown state {name!r}") from None

    def op_id(self, op: Op | str) -> int:
        """Intern an operation (raises :class:`IRError` when unknown)."""
        value = op.value if isinstance(op, Op) else op
        try:
            return self._op_ids[value]
        except KeyError:
            raise IRError(f"{self.name}: unknown operation {value!r}") from None

    def valid_ids(self) -> tuple[int, ...]:
        """Ids of every state other than the invalid state."""
        return tuple(i for i in range(len(self.states)) if i != self.invalid)

    def transitions_for(self, state: int, op: int) -> tuple[IRTransition, ...]:
        """Declaration-ordered transitions of one ``(state, op)`` cell."""
        return self._by_cell.get((state, op), ())

    # -- interpretation -------------------------------------------------
    def applicable(self, state: int, op: int) -> bool:
        """Whether a cache in *state* may issue *op* (restriction-aware)."""
        for r_op, mode, members in self.restrictions:
            if r_op != op:
                continue
            if mode == "only-from" and state not in members:
                return False
            if mode == "not-from" and state in members:
                return False
        return not (self.ops[op] == Op.REPLACE.value and state == self.invalid)

    def select(
        self, state: int, op: int, present: frozenset[int]
    ) -> IRTransition | None:
        """First transition matching an abstract present-set, or None."""
        for t in self.transitions_for(state, op):
            if t.guard.holds(present):
                return t
        return None

    def behaviour(self) -> Iterator[tuple[int, int, Ctx, IRTransition | None]]:
        """The full behaviour table, cell by cell.

        Yields ``(state, op, ctx, transition)`` for every applicable
        ``(state, op)`` cell under every observation context
        (:func:`~repro.core.reactions.observation_contexts`), where
        ``transition`` is the one first-match selects there (``None``:
        no transition covers the context).  A cache observes the rest
        of the system only through the present-set (Definition 1), so
        this table is everything the protocol can do: lint's probe
        table and the Definition 1 FSM both read it.
        """
        valid = [self.states[i] for i in self.valid_ids()]
        contexts = [
            (ctx, frozenset(self._state_ids[s] for s in ctx.present))
            for ctx in observation_contexts(valid)
        ]
        for state in range(len(self.states)):
            for op in range(len(self.ops)):
                if self.applicable(state, op):
                    for ctx, present in contexts:
                        yield state, op, ctx, self.select(state, op, present)

    def outcome(self, transition: IRTransition, ctx: Ctx) -> Outcome:
        """What ``react`` returns when *transition* is selected in *ctx*.

        As in the DSL, declared observers are reported whether or not
        *ctx* holds them and a cache-load chain resolves to its first
        present candidate; a ``raises`` entry, or a chain with none
        present, raises :class:`~repro.core.protocol.ProtocolDefinitionError`.
        """
        a = transition.action
        where = (
            f"{self.name}: react({self.states[transition.state]}, "
            f"{self.ops[transition.op]}, present={sorted(ctx.present)})"
        )
        if a.raises is not None:
            raise ProtocolDefinitionError(f"{where} raised {a.raises}")
        next_state = self.states[a.next_state]
        if a.stalled:
            return Outcome(next_state, stalled=True)
        load = None
        if a.load is not None:
            kind, candidates = a.load
            if kind == "memory":
                load = MEMORY
            else:
                names = [self.states[c] for c in candidates]
                present = [name for name in names if ctx.has(name)]
                if not present:
                    raise ProtocolDefinitionError(
                        f"{where} loads from cache:{'|'.join(names)}, "
                        "which holds no copy"
                    )
                load = from_cache(present[0])
        writeback: str | None = None
        if a.writeback == SELF:
            writeback = INITIATOR
        elif a.writeback is not None:
            writeback = self.states[a.writeback]
        return Outcome(
            next_state,
            load_from=load,
            observers={
                self.states[obs]: ObserverReaction(self.states[nxt], updated)
                for obs, nxt, updated in a.observers
            },
            writeback_from=writeback,
            write_through=a.write_through,
        )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able rendering (the fingerprint input).

        An action's ``raises`` key is written only when set, so an IR
        without raise entries renders (and hashes) as it always has.
        """
        return {
            "schema": IR_SCHEMA,
            "name": self.name,
            "full_name": self.full_name,
            "states": list(self.states),
            "invalid": self.invalid,
            "ops": list(self.ops),
            "uses_sharing_detection": self.uses_sharing_detection,
            "owner_states": list(self.owner_states),
            "exclusive_states": list(self.exclusive_states),
            "shared_fill_state": self.shared_fill_state,
            "error_patterns": [list(p) for p in self.error_patterns],
            "restrictions": [
                [op, mode, list(members)] for op, mode, members in self.restrictions
            ],
            "transitions": [
                {
                    "state": t.state,
                    "op": t.op,
                    "guard": [[kind, sid] for kind, sid in t.guard.atoms],
                    "action": {
                        "next": t.action.next_state,
                        "load": (
                            [t.action.load[0], list(t.action.load[1])]
                            if t.action.load
                            else None
                        ),
                        "writeback": t.action.writeback,
                        "write_through": t.action.write_through,
                        "observers": [list(o) for o in t.action.observers],
                        "stalled": t.action.stalled,
                        **(
                            {"raises": t.action.raises}
                            if t.action.raises is not None
                            else {}
                        ),
                    },
                    "origin": t.origin,
                }
                for t in self.transitions
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProtocolIR":
        """Parse a :meth:`to_dict` rendering (raises :class:`IRError`)."""
        try:
            if payload["schema"] != IR_SCHEMA:
                raise IRError(f"unsupported IR schema {payload['schema']!r}")
            transitions = tuple(
                IRTransition(
                    state=t["state"],
                    op=t["op"],
                    guard=IRGuard(
                        tuple((kind, sid) for kind, sid in t["guard"])
                    ),
                    action=IRAction(
                        next_state=t["action"]["next"],
                        load=(
                            (t["action"]["load"][0], tuple(t["action"]["load"][1]))
                            if t["action"]["load"]
                            else None
                        ),
                        writeback=t["action"]["writeback"],
                        write_through=t["action"]["write_through"],
                        observers=tuple(
                            (o[0], o[1], bool(o[2]))
                            for o in t["action"]["observers"]
                        ),
                        stalled=t["action"]["stalled"],
                        raises=t["action"].get("raises"),
                    ),
                    origin=t.get("origin"),
                )
                for t in payload["transitions"]
            )
            return cls(
                name=payload["name"],
                full_name=payload["full_name"],
                states=tuple(payload["states"]),
                invalid=payload["invalid"],
                ops=tuple(payload["ops"]),
                uses_sharing_detection=payload["uses_sharing_detection"],
                transitions=transitions,
                owner_states=tuple(payload["owner_states"]),
                exclusive_states=tuple(payload["exclusive_states"]),
                shared_fill_state=payload["shared_fill_state"],
                error_patterns=tuple(
                    tuple(p) for p in payload["error_patterns"]
                ),
                restrictions=tuple(
                    (op, mode, tuple(members))
                    for op, mode, members in payload["restrictions"]
                ),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise IRError(f"malformed IR document: {exc!r}") from exc

    def fingerprint(self) -> str:
        """Stable content hash (hex SHA-256) of the canonical rendering."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()
