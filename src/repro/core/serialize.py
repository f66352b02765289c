"""JSON serialization of verification results and specifications.

Makes expansion results consumable by external tooling (dashboards,
regression trackers, graph viewers): states, transitions, statistics,
violations and witnesses are rendered into plain JSON-compatible
dictionaries.  The representation is stable and documented here; it is
covered by round-trip tests for the state layer.

Every emitted collection is deterministically ordered -- class pieces
by label, transitions by (source, label, target), JSON keys sorted --
so two runs of the same verification produce byte-identical payloads.
The batch engine (:mod:`repro.engine`) relies on this: golden files,
spec fingerprints and cache keys are all hashes of this output.

:func:`spec_to_dict` additionally renders a *protocol specification*
itself into a canonical behavioural table (its
:func:`~repro.core.protocol.reaction_table`), which is what
:func:`repro.engine.fingerprint.spec_fingerprint` hashes.
"""

from __future__ import annotations

import json
from typing import Any

from .composite import CompositeState, Label, make_state
from .errors import Violation, Witness
from .essential import ExpansionResult
from .operators import Rep
from .protocol import ProtocolSpec, reaction_table
from .reactions import Outcome
from .symbols import DataValue, SharingLevel

__all__ = [
    "state_to_dict",
    "state_from_dict",
    "result_to_dict",
    "result_to_json",
    "outcome_to_dict",
    "spec_to_dict",
]


def state_to_dict(state: CompositeState) -> dict[str, Any]:
    """Plain-dict form of a composite state (lossless).

    Class pieces are emitted sorted by ``(symbol, data)`` so the output
    is stable regardless of how the state was constructed.
    """
    ordered = sorted(state.classes, key=lambda piece: piece[0].sort_key)
    return {
        "classes": [
            {
                "symbol": label.symbol,
                "data": label.data.value if label.data is not None else None,
                "rep": rep.value,
            }
            for label, rep in ordered
        ],
        "sharing": state.sharing.value if state.sharing is not None else None,
        "mdata": state.mdata.value if state.mdata is not None else None,
        "pretty": state.pretty(),
    }


def state_from_dict(payload: dict[str, Any]) -> CompositeState:
    """Inverse of :func:`state_to_dict`."""
    pieces = [
        (
            Label(
                entry["symbol"],
                DataValue(entry["data"]) if entry["data"] is not None else None,
            ),
            Rep(entry["rep"]),
        )
        for entry in payload["classes"]
    ]
    return make_state(
        pieces,
        sharing=(
            SharingLevel(payload["sharing"]) if payload["sharing"] is not None else None
        ),
        mdata=DataValue(payload["mdata"]) if payload["mdata"] is not None else None,
    )


def _violation_to_dict(violation: Violation) -> dict[str, Any]:
    return {
        "kind": violation.kind.value,
        "message": violation.message,
        "state": violation.state.pretty() if violation.state is not None else None,
    }


def _witness_to_dict(witness: Witness) -> dict[str, Any]:
    return {
        "steps": [
            {"state": state.pretty(), "label": label}
            for state, label in witness.steps
        ],
        "final": witness.final.pretty(),
        "violations": [_violation_to_dict(v) for v in witness.violations],
    }


def result_to_dict(result: ExpansionResult) -> dict[str, Any]:
    """Plain-dict form of a full verification result.

    Transitions are sorted by ``(source, label, target)`` so the
    payload does not depend on worklist scheduling or dict insertion
    order; repeated runs of the same verification are byte-identical
    (modulo the wall-clock ``elapsed_seconds`` stat).

    Partial results (a guard budget expired before the fixpoint) gain
    one extra ``"partial"`` key carrying the exhaustion reason and the
    unexplored frontier; results of a liveness-mode verification gain a
    ``"liveness"`` key carrying the verdict and its lasso witnesses.
    Complete safety-mode results serialize exactly as before, so
    goldens and fingerprint substrates are unaffected.
    """
    index = {state: i for i, state in enumerate(result.essential)}
    transitions = sorted(
        (
            {
                "source": index[t.source],
                "label": str(t.label),
                "op": t.label.op.value,
                "initiator": t.label.initiator,
                "target": index[t.target],
            }
            for t in result.transitions
        ),
        key=lambda t: (t["source"], t["label"], t["target"]),
    )
    payload: dict[str, Any] = {
        "protocol": result.spec.name,
        "full_name": result.spec.full_name,
        "augmented": result.augmented,
        "pruning": result.pruning.value,
        "verified": result.ok,
        "initial": index.get(result.initial),
        "essential_states": [state_to_dict(s) for s in result.essential],
        "transitions": transitions,
        "stats": {
            "visits": result.stats.visits,
            "expanded": result.stats.expanded,
            "discarded_contained": result.stats.discarded_contained,
            "removed_superseded": result.stats.removed_superseded,
            "scenarios": result.stats.scenarios,
            "max_worklist": result.stats.max_worklist,
            "elapsed_seconds": result.stats.elapsed,
        },
        "violations": [_violation_to_dict(v) for v in result.violations],
        "witnesses": [_witness_to_dict(w) for w in result.witnesses],
    }
    if result.partial:
        payload["partial"] = {
            **(result.exhausted.to_dict() if result.exhausted is not None else {}),
            "frontier": [state_to_dict(s) for s in result.frontier],
        }
    if result.liveness is not None:
        payload["liveness"] = result.liveness.to_dict()
    return payload


def result_to_json(result: ExpansionResult, *, indent: int = 2) -> str:
    """JSON text form of a full verification result (sorted keys)."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Specification serialization (the fingerprint substrate)
# ----------------------------------------------------------------------
def outcome_to_dict(outcome: Outcome) -> dict[str, Any]:
    """Plain-dict form of one protocol reaction outcome.

    Observer reactions are emitted sorted by observer state so the
    representation is canonical.
    """
    return {
        "next": outcome.next_state,
        "stalled": outcome.stalled,
        "load": str(outcome.load_from) if outcome.load_from is not None else None,
        "observers": [
            {"state": state, "next": reaction.next_state, "updated": reaction.updated}
            for state, reaction in sorted(outcome.observers.items())
        ],
        "writeback": outcome.writeback_from,
        "write_through": outcome.write_through,
    }


def spec_to_dict(spec: ProtocolSpec) -> dict[str, Any]:
    """Canonical behavioural rendering of a protocol specification.

    Renders the behaviour table (:func:`~repro.core.protocol.reaction_table`:
    :meth:`ProtocolSpec.react` in every state, operation and
    present-set, in a deterministic order) alongside the structural
    attributes (states, error patterns, characteristic function).  Two
    specifications with the same rendering behave identically on every
    scenario the verifier can pose, which is what makes the rendering a
    sound substrate for content-addressed result caching (see
    :mod:`repro.engine.fingerprint`).

    A reaction that raised is rendered by its exception type name, so
    even pathological specifications fingerprint deterministically.
    """
    reactions: list[dict[str, Any]] = []
    for state, op, cell in reaction_table(spec):
        if cell is None:
            reactions.append({"state": state, "op": op.value, "applicable": False})
            continue
        for ctx, outcome in cell:
            entry: dict[str, Any] = (
                {"raises": type(outcome).__name__}
                if isinstance(outcome, Exception)
                else {"outcome": outcome_to_dict(outcome)}
            )
            reactions.append(
                {
                    "state": state,
                    "op": op.value,
                    "ctx": {
                        "present": sorted(ctx.present),
                        "copies": ctx.copies.value,
                    },
                    **entry,
                }
            )
    return {
        "name": spec.name,
        "full_name": spec.full_name,
        "states": list(spec.states),
        "invalid": spec.invalid,
        "sharing_detection": spec.uses_sharing_detection,
        "operations": [op.value for op in spec.operations],
        "error_patterns": [pattern.describe() for pattern in spec.error_patterns],
        "owner_states": list(spec.owner_states),
        "exclusive_states": list(spec.exclusive_states),
        "shared_fill_state": spec.shared_fill_state,
        "reactions": reactions,
    }
