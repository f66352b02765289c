"""Abstract-reachability dataflow engine over the guarded-action IR.

The probe-based lint rules sample contexts; this module *computes*
them.  An abstract system configuration maps each valid state to a
saturating count -- ``ONE`` (exactly one cache) or ``MANY`` (two or
more) -- the same 0/1/many abstraction the paper's symbolic expansion
uses for composite states.  Starting from the all-invalid
configuration (every cache holds no copy), the engine explores the
finite configuration space to a fixpoint:

* pick an **initiator** state (any state in the configuration, or the
  invalid state -- there is always an unbounded supply of invalid
  caches in the parameterized model);
* when the initiator departs a ``MANY`` class, case-split the
  remainder (exactly one left vs. still many) so reachability is an
  over-approximation, never a guess;
* evaluate the decision list on the resulting present-set, then move
  the initiator and every affected **observer class wholesale** to
  their next states with saturating counts.

The space is bounded by ``3^|valid states|`` configurations, so the
fixpoint always terminates.  Because every abstract step corresponds
to at least one concrete system transition *and* every concrete
transition is covered by an abstract one, the analysis is a sound
over-approximation of reachability: a transition the engine never
selects is selected in **no** reachable concrete context, which is
what makes the dead-transition / vacuous-guard / subsumption rules
free of abstraction-induced false positives.

The engine never materializes outcomes (no load resolution, no
observer dictionaries) -- it only reads guards and interned action
fields -- so statically-broken specifications can still be analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..ir.model import IRTransition, ProtocolIR

__all__ = ["FlowAnalysis", "Config"]

#: An abstract configuration: sorted ``(state_id, many)`` pairs for
#: every *valid* state holding at least one copy.  ``many`` is True
#: for "two or more caches".  The invalid state is implicit (its
#: population is unbounded in the parameterized model).
Config = tuple[tuple[int, bool], ...]

#: Safety valve far above ``3^5`` -- the largest real protocol here
#: has five valid states.  Hitting it means the IR is malformed.
MAX_CONFIGS = 100_000


def _freeze(cfg: dict[int, bool]) -> Config:
    return tuple(sorted(cfg.items()))


def _merge(cfg: dict[int, bool], state: int, many: bool) -> None:
    """Add a class of copies to *cfg* with saturating counts."""
    if state in cfg:
        cfg[state] = True
    else:
        cfg[state] = many


@dataclass
class FlowAnalysis:
    """One fixpoint run over a protocol's abstract configuration space.

    Attributes populated by the run:

    ``configs``
        Every reachable abstract configuration.
    ``reachable_states``
        State ids occurring in some reachable configuration (always
        includes the invalid state).
    ``cell_contexts``
        ``(state, op) -> set of reachable present-sets`` observed at
        that cell (the initiator's view of the rest of the system).
    ``selections``
        ``(state, op) -> set of (present, transition_index)`` pairs:
        which decision-list entry each reachable context selects.
    ``selected``
        Indices into ``ir.transitions`` selected in at least one
        reachable context.
    ``completes`` / ``stalls``
        Cells that complete (non-stall) / stall in at least one
        reachable context.  A selected ``raises`` entry does neither:
        the step has no successor configuration.
    ``holes``
        ``(state, op, present)`` reachable contexts matched by no
        transition (the flow-sensitive counterpart of PL003).
    ``edges``
        Initiator and observer state moves actually applied along
        reachable steps -- the message-flow graph the non-progress
        rule walks.
    """

    ir: ProtocolIR
    configs: set[Config] = field(default_factory=set)
    reachable_states: frozenset[int] = frozenset()
    cell_contexts: dict[tuple[int, int], set[frozenset[int]]] = field(
        default_factory=dict
    )
    selections: dict[tuple[int, int], set[tuple[frozenset[int], int]]] = field(
        default_factory=dict
    )
    selected: set[int] = field(default_factory=set)
    completes: set[tuple[int, int]] = field(default_factory=set)
    stalls: set[tuple[int, int]] = field(default_factory=set)
    holes: set[tuple[int, int, frozenset[int]]] = field(default_factory=set)
    edges: dict[int, set[int]] = field(default_factory=dict)
    transfers: int = 0

    def __post_init__(self) -> None:
        self._by_cell: dict[tuple[int, int], list[tuple[int, IRTransition]]] = {}
        for index, t in enumerate(self.ir.transitions):
            self._by_cell.setdefault((t.state, t.op), []).append((index, t))
        self._run()

    # -- fixpoint -------------------------------------------------------
    def _departures(
        self, cfg: dict[int, bool], initiator: int
    ) -> Iterator[dict[int, bool]]:
        """The possible "rest of the system" views after *initiator*
        leaves one cache out of *cfg* to issue an operation."""
        if initiator == self.ir.invalid:
            yield dict(cfg)
        elif cfg[initiator]:
            # MANY departs one member: one left, or still many.
            yield {**cfg, initiator: False}
            yield dict(cfg)
        else:
            rest = dict(cfg)
            del rest[initiator]
            yield rest

    def _run(self) -> None:
        ir = self.ir
        invalid = ir.invalid
        initial: Config = ()
        work: list[Config] = [initial]
        self.configs.add(initial)
        while work:
            config = work.pop()
            self.transfers += 1
            cfg = dict(config)
            for initiator in sorted(set(cfg) | {invalid}):
                for op in range(len(ir.ops)):
                    if not ir.applicable(initiator, op):
                        continue
                    cell = (initiator, op)
                    for others in self._departures(cfg, initiator):
                        present = frozenset(others)
                        self.cell_contexts.setdefault(cell, set()).add(present)
                        chosen: tuple[int, IRTransition] | None = None
                        for index, t in self._by_cell.get(cell, ()):
                            if t.guard.holds(present):
                                chosen = (index, t)
                                break
                        if chosen is None:
                            self.holes.add((initiator, op, present))
                            continue
                        index, t = chosen
                        self.selections.setdefault(cell, set()).add(
                            (present, index)
                        )
                        self.selected.add(index)
                        if t.action.raises is not None:
                            # The reaction raises: no successor.
                            continue
                        if t.action.stalled:
                            # A stall leaves the system unchanged.
                            self.stalls.add(cell)
                            continue
                        self.completes.add(cell)
                        succ = dict(others)
                        for obs, nxt, _updated in t.action.observers:
                            if obs not in succ:
                                continue
                            many = succ.pop(obs)
                            if nxt != invalid:
                                _merge(succ, nxt, many)
                            self.edges.setdefault(obs, set()).add(nxt)
                        next_state = t.action.next_state
                        self.edges.setdefault(initiator, set()).add(next_state)
                        if next_state != invalid:
                            _merge(succ, next_state, False)
                        frozen = _freeze(succ)
                        if frozen not in self.configs:
                            if len(self.configs) >= MAX_CONFIGS:
                                raise RuntimeError(
                                    f"{ir.name}: abstract configuration "
                                    f"space exceeded {MAX_CONFIGS} entries"
                                )
                            self.configs.add(frozen)
                            work.append(frozen)
        states = {invalid}
        for config in self.configs:
            states.update(state for state, _many in config)
        self.reachable_states = frozenset(states)

    # -- queries --------------------------------------------------------
    def reachable_from(self, state: int) -> frozenset[int]:
        """Transitive closure of :attr:`edges` from *state* (inclusive)."""
        seen = {state}
        work = [state]
        while work:
            for nxt in self.edges.get(work.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return frozenset(seen)

    def contexts_for(self, state: int, op: int) -> frozenset[frozenset[int]]:
        """Reachable present-sets observed at one ``(state, op)`` cell."""
        return frozenset(self.cell_contexts.get((state, op), ()))
