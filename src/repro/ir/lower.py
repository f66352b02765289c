"""Lowering: DSL specs and registry protocols -> :class:`ProtocolIR`.

Two entry points, one dispatcher:

* :func:`lower_dsl` translates a :class:`~repro.protocols.dsl.DslProtocol`
  rule-by-rule.  The DSL is already a guarded decision list, so this is
  a direct interning pass; each transition remembers the index of the
  DSL rule it came from (``origin``), which the lint layer uses to map
  flow findings back to source lines.
* :func:`lower_spec` recovers a decision list from an *opaque*
  :class:`~repro.core.protocol.ProtocolSpec` by reading its
  :func:`~repro.core.protocol.reaction_table` -- ``react()`` over the
  full powerset of valid present-sets.  This is exact, not a sample:
  in the paper's model (Definition 1) a specification only observes
  the rest of the system through the present-set, so the powerset
  enumerates every distinguishable context.  A greedy
  synthesis pass then compresses each ``(state, op)`` cell's outcome
  table back into readable guards (``any``/``none``/``has``/``!has``
  conjunctions), falling back to the exact full conjunction for a
  single present-set — which always exists, so synthesis terminates.
  A ``react`` that raises is one more outcome: the cell records a
  ``raises`` entry, and reaching that context is an error downstream.

Both lowerings are deterministic: the same specification produces the
same transition order, the same synthesized guards and therefore the
same :meth:`ProtocolIR.fingerprint`.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterator

from ..core.errors import ForbidMultiple, ForbidState, ForbidTogether
from ..core.protocol import ProtocolSpec, ReactionTable, reaction_table
from ..core.reactions import INITIATOR, Outcome
from ..core.symbols import Op
from ..protocols.dsl import DslProtocol
from .model import SELF, IRAction, IRError, IRGuard, IRTransition, ProtocolIR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Guard

__all__ = ["lower", "lower_dsl", "lower_spec"]


# ----------------------------------------------------------------------
# Shared scaffolding
# ----------------------------------------------------------------------
def _error_patterns(
    spec: ProtocolSpec, state_id: dict[str, int]
) -> tuple[tuple[object, ...], ...]:
    encoded: list[tuple[object, ...]] = []
    for pattern in spec.error_patterns:
        if isinstance(pattern, ForbidMultiple):
            encoded.append(("multiple", state_id[pattern.symbol]))
        elif isinstance(pattern, ForbidTogether):
            encoded.append(("together", state_id[pattern.a], state_id[pattern.b]))
        elif isinstance(pattern, ForbidState):
            encoded.append(("state", state_id[pattern.symbol]))
        else:  # pragma: no cover - no other patterns exist today
            raise IRError(
                f"{spec.name}: cannot lower error pattern "
                f"{type(pattern).__name__}"
            )
    return tuple(encoded)


def _header(
    spec: ProtocolSpec,
) -> tuple[dict[str, int], dict[str, int], dict[str, int | None | tuple]]:
    state_id = {name: i for i, name in enumerate(spec.states)}
    op_id = {op.value: i for i, op in enumerate(spec.operations)}
    fields = {
        "name": spec.name,
        "full_name": spec.full_name,
        "states": tuple(spec.states),
        "invalid": state_id[spec.invalid],
        "ops": tuple(op.value for op in spec.operations),
        "uses_sharing_detection": spec.uses_sharing_detection,
        "owner_states": tuple(state_id[s] for s in spec.owner_states),
        "exclusive_states": tuple(state_id[s] for s in spec.exclusive_states),
        "shared_fill_state": (
            state_id[spec.shared_fill_state]
            if spec.shared_fill_state is not None
            else None
        ),
        "error_patterns": _error_patterns(spec, state_id),
    }
    return state_id, op_id, fields


# ----------------------------------------------------------------------
# DSL lowering (direct translation)
# ----------------------------------------------------------------------
def lower_dsl(dsl: DslProtocol) -> ProtocolIR:
    """Intern a DSL specification's rule list into a :class:`ProtocolIR`.

    Rules whose operation is outside the declared alphabet are dropped:
    they can never be selected (the linter flags them as PL010), and
    the IR's op table only interns declared operations.
    """
    state_id, op_id, fields = _header(dsl)
    declared = set(op_id)
    transitions: list[IRTransition] = []
    for index, rule in enumerate(dsl._rules):
        if rule.op.value not in declared:
            continue
        atoms = []
        for kind, operand in rule.guard.atoms:
            if operand is None:
                atoms.append((kind, -1))
            else:
                try:
                    atoms.append((kind, state_id[operand]))
                except KeyError:
                    raise IRError(
                        f"{dsl.name}: rule at line {rule.line_no} guards on "
                        f"undeclared state {operand!r}"
                    ) from None
        load = None
        if rule.load is not None:
            if rule.load.kind == "memory":
                load = ("memory", ())
            else:
                load = (
                    "cache",
                    tuple(state_id[c] for c in rule.load.candidates),
                )
        writeback = None
        if rule.writeback == INITIATOR:
            writeback = SELF
        elif rule.writeback is not None:
            writeback = state_id[rule.writeback]
        observers = tuple(
            sorted(
                (state_id[obs], state_id[nxt], updated)
                for obs, nxt, updated in rule.observers
            )
        )
        transitions.append(
            IRTransition(
                state=state_id[rule.state],
                op=op_id[rule.op.value],
                guard=IRGuard(tuple(atoms)),
                action=IRAction(
                    next_state=state_id[rule.next_state],
                    load=load,
                    writeback=writeback,
                    write_through=rule.write_through,
                    observers=observers,
                    stalled=rule.stalled,
                ),
                origin=index,
            )
        )
    restrictions = tuple(
        (op_id[r_op.value], mode, tuple(sorted(state_id[s] for s in members)))
        for r_op, mode, members in dsl._restrictions
    )
    return ProtocolIR(
        transitions=tuple(transitions),
        restrictions=restrictions,
        **fields,  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# Registry lowering (exact probing + guard synthesis)
# ----------------------------------------------------------------------
def _action(
    outcome: Outcome | Exception, state: int, state_id: dict[str, int]
) -> IRAction:
    """The fully-interned action of one reaction-table entry (*state*
    is the cell's, which a ``raises`` entry keeps)."""
    if isinstance(outcome, Exception):
        return IRAction(state, raises=f"{type(outcome).__name__}: {outcome}")
    if outcome.stalled:
        return IRAction(state_id[outcome.next_state], stalled=True)
    load = None
    if outcome.load_from is not None:
        source = outcome.load_from
        if source.kind == "memory":
            load = ("memory", ())
        else:
            load = ("cache", (state_id[source.symbol],))
    writeback = None
    if outcome.writeback_from == INITIATOR:
        writeback = SELF
    elif outcome.writeback_from is not None:
        writeback = state_id[outcome.writeback_from]
    observers = tuple(
        sorted(
            (state_id[obs], state_id[r.next_state], r.updated)
            for obs, r in outcome.observers.items()
        )
    )
    return IRAction(
        next_state=state_id[outcome.next_state],
        load=load,
        writeback=writeback,
        write_through=outcome.write_through,
        observers=observers,
    )


def _candidate_guards(valid_ids: tuple[int, ...]) -> Iterator[IRGuard]:
    """Candidate guards in increasing complexity (the synthesis order)."""
    yield IRGuard(())
    yield IRGuard((("none", -1),))
    yield IRGuard((("any", -1),))
    for v in valid_ids:
        yield IRGuard((("has", v),))
        yield IRGuard((("nothas", v),))
    for v in valid_ids:
        yield IRGuard((("any", -1), ("nothas", v)))
    for a, b in combinations(valid_ids, 2):
        yield IRGuard((("has", a), ("has", b)))
        yield IRGuard((("has", a), ("nothas", b)))
        yield IRGuard((("has", b), ("nothas", a)))
        yield IRGuard((("nothas", a), ("nothas", b)))


def _exact_guard(
    present: frozenset[int], valid_ids: tuple[int, ...]
) -> IRGuard:
    """The full conjunction matched by exactly one present-set."""
    atoms = tuple(
        (("has", v) if v in present else ("nothas", v)) for v in valid_ids
    )
    return IRGuard(atoms)


def _synthesize_cell(
    table: dict[frozenset[int], IRAction],
    valid_ids: tuple[int, ...],
) -> list[tuple[IRGuard, IRAction]]:
    """Compress one cell's outcome table into a first-match guard list.

    Greedy: at each step pick the candidate guard that covers the most
    *remaining* present-sets while all of them share one outcome
    (present-sets already claimed by earlier guards never reach later
    list entries, so they impose no constraint).  The exact conjunction
    of a single present-set is always a valid candidate, so the loop
    terminates.
    """
    remaining = sorted(table, key=lambda p: (len(p), sorted(p)))
    out: list[tuple[IRGuard, IRAction]] = []
    while remaining:
        best: tuple[int, int, IRGuard, IRAction] | None = None
        for order, guard in enumerate(_candidate_guards(valid_ids)):
            covered = [p for p in remaining if guard.holds(p)]
            if not covered:
                continue
            actions = {table[p] for p in covered}
            if len(actions) != 1:
                continue
            key = (-len(covered), order)
            if best is None or key < (best[0], best[1]):
                best = (key[0], key[1], guard, actions.pop())
        if best is None:
            present = remaining[0]
            guard = _exact_guard(present, valid_ids)
            out.append((guard, table[present]))
            remaining = remaining[1:]
            continue
        _, _, guard, action = best
        out.append((guard, action))
        remaining = [p for p in remaining if not guard.holds(p)]
    return out


def _synthesized_restrictions(
    spec: ProtocolSpec,
    table: ReactionTable,
    state_id: dict[str, int],
    op_id: dict[str, int],
) -> tuple[tuple[int, str, tuple[int, ...]], ...]:
    """Recover ``only-from`` limits from a custom ``applicable()``.

    The base :class:`ProtocolSpec` only excludes REPLACE-from-invalid;
    where *table* excludes other cells, an explicit ``only-from``
    restriction makes the IR's :meth:`~ProtocolIR.applicable` agree.
    """
    restrictions: list[tuple[int, str, tuple[int, ...]]] = []
    for op in spec.operations:
        allowed = [state_id[s] for s, o, cell in table if o is op and cell is not None]
        default = [
            state_id[s]
            for s in spec.states
            if not (op is Op.REPLACE and s == spec.invalid)
        ]
        if allowed != default:
            restrictions.append((op_id[op.value], "only-from", tuple(sorted(allowed))))
    return tuple(restrictions)


def lower_spec(spec: ProtocolSpec, guard: "Guard | None" = None) -> ProtocolIR:
    """Recover a :class:`ProtocolIR` from an opaque protocol's behaviour.

    Exact for every specification in the paper's model: ``react`` is a
    pure function of ``(state, op, present-set)``, and the spec's
    :func:`~repro.core.protocol.reaction_table` holds it over every
    present-set; lowering synthesizes guards from that table.  A
    ``react`` that raised becomes a ``raises`` entry (exception type and
    message); an outcome naming an undeclared state cannot be interned
    and raises :class:`IRError` naming the cell.  ``guard`` is polled
    before every probe and every cell's synthesis; a tripped guard
    raises :class:`IRError`.
    """
    table = reaction_table(spec, guard)
    state_id, op_id, fields = _header(spec)
    valid_ids = tuple(state_id[s] for s in spec.valid_states())

    transitions: list[IRTransition] = []
    for state, op, cell in table or ():
        # Synthesis outweighs probing, so the guard is polled per cell too.
        if cell is None or guard is not None and guard.check() is not None:
            continue
        actions: dict[frozenset[int], IRAction] = {}
        for ctx, outcome in cell:
            try:
                action = _action(outcome, state_id[state], state_id)
            except KeyError as exc:
                raise IRError(
                    f"{spec.name}: react({state}, {op.value}, "
                    f"present={sorted(ctx.present)}) names undeclared "
                    f"state {exc.args[0]!r}"
                ) from None
            actions[frozenset(state_id[s] for s in ctx.present)] = action
        transitions.extend(
            IRTransition(state_id[state], op_id[op.value], when, action)
            for when, action in _synthesize_cell(actions, valid_ids)
        )
    if guard is not None and guard.exhausted is not None:
        raise IRError(f"{spec.name}: lowering stopped: {guard.exhausted.describe()}")
    return ProtocolIR(
        transitions=tuple(transitions),
        restrictions=_synthesized_restrictions(spec, table, state_id, op_id),
        **fields,  # type: ignore[arg-type]
    )


def lower(spec: ProtocolSpec, guard: "Guard | None" = None) -> ProtocolIR:
    """Lower any protocol: direct translation for DSL specs, exact
    probing (polling ``guard``, see :func:`lower_spec`) for everything
    else."""
    if isinstance(spec, DslProtocol):
        return lower_dsl(spec)
    return lower_spec(spec, guard)
