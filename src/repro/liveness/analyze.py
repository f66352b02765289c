"""Starvation analysis over the essential-state graph.

The safety verifier proves that no *reachable* state is erroneous; this
pass proves that no *pending request* can be refused forever.  It runs
as a post-pass over a completed :class:`~repro.core.essential.
ExpansionResult` -- interpreter- or kernel-produced, the decoded result
is identical, which is what gives the two backends liveness parity by
construction.

The model is a product automaton.  A node pairs an essential state
``S`` with the FSM symbol ``q`` of one distinguished cache -- the
*blocked* cache, which issued an operation ``o`` that stalled and keeps
retrying it.  Edges are the global transitions other initiators can
take (closed over the essential set through the ``contains`` covering,
:func:`~repro.core.essential.essential_home`); along an edge the
blocked cache evolves as an observer, ``q -> outcome.observer_for(q)``.
At each node the protocol's reaction table classifies the pending
request:

* **stalling** -- some consistent scenario refuses ``o``;
* **serving** -- some consistent scenario completes ``o``;
* **moot** -- ``o`` is inapplicable from ``q`` or no consistent
  scenario can pose it (the request as issued no longer exists).

A liveness violation is a reachable stalling node from which *no*
serving or moot node is reachable: whatever the other caches do, every
retry stalls, forever.  Because the product graph is finite, every
violation yields a lasso -- a deterministic walk (always the
lexicographically smallest edge) either revisits a node, closing a
**stall cycle**, or reaches a node with no outgoing transition at all,
a **deadlock** whose loop is the retry itself.

Everything is iterated in sorted order (operations in specification
order, states by canonical rendering, symbols alphabetically, edges by
label), so the report is a pure function of the expansion's *graph
content* -- the backends and worklist schedules cannot leak in.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.composite import CompositeState
from ..core.errors import ErrorKind, Violation
from ..core.essential import ExpansionResult, essential_home
from ..core.expansion import SymbolicExpander
from ..core.symbols import Op
from ..obs.collector import active as _active_collector
from .model import LassoStep, LassoWitness, LivenessReport, retry_label

__all__ = ["analyze_liveness"]


@dataclass(frozen=True)
class _Edge:
    """One progress edge of the product graph (blocked cache observing)."""

    label: str
    target: CompositeState
    #: Observer moves of the underlying outcome: sorted (state, next).
    moves: tuple[tuple[str, str], ...]

    def observer_next(self, symbol: str) -> str:
        """Where a blocked cache in *symbol* lands along this edge."""
        for state, nxt in self.moves:
            if state == symbol:
                return nxt
        return symbol


class _Facts:
    """Cached per-state reaction facts over one expansion result."""

    def __init__(self, result: ExpansionResult) -> None:
        self.spec = result.spec
        self.expander = SymbolicExpander(
            result.spec, augmented=result.augmented
        )
        self.essential = result.essential
        self.pruning = result.pruning
        self._base: dict[
            CompositeState,
            tuple[tuple[_Edge, ...], set[tuple[str, Op]], set[tuple[str, Op]]],
        ] = {}
        self._posed: dict[tuple[CompositeState, str, Op], tuple[bool, bool]] = {}
        #: Successor -> its essential home (a linear containment scan).
        self._homes: dict[CompositeState, CompositeState] = {}

    # ------------------------------------------------------------------
    def _scan(
        self, state: CompositeState
    ) -> tuple[tuple[_Edge, ...], set[tuple[str, Op]], set[tuple[str, Op]]]:
        cached = self._base.get(state)
        if cached is not None:
            return cached
        stalls: set[tuple[str, Op]] = set()
        serves: set[tuple[str, Op]] = set()
        edges: dict[tuple[str, CompositeState, tuple], _Edge] = {}
        for event in self.expander.reaction_events(state):
            cell = (event.initiator, event.op)
            if event.outcome.stalled:
                stalls.add(cell)
                continue  # a stalled step changes nothing: no edge
            serves.add(cell)
            moves = tuple(
                sorted(
                    (obs, reaction.next_state)
                    for obs, reaction in event.outcome.observers.items()
                )
            )
            label = str(event.label)
            for target in event.targets:
                home = self._homes.get(target)
                if home is None:
                    home = essential_home(target, self.essential, self.pruning)
                    self._homes[target] = home
                key = (label, home, moves)
                if key not in edges:
                    edges[key] = _Edge(label, home, moves)
        ordered = tuple(
            sorted(
                edges.values(),
                key=lambda e: (e.label, e.target.pretty(), e.moves),
            )
        )
        facts = (ordered, stalls, serves)
        self._base[state] = facts
        return facts

    def edges(self, state: CompositeState) -> tuple[_Edge, ...]:
        """Outgoing progress edges of *state*, in deterministic order."""
        return self._scan(state)[0]

    def request(
        self, state: CompositeState, symbol: str, op: Op
    ) -> tuple[bool, bool]:
        """``(can_stall, can_serve)`` for a pending ``op`` by *symbol*.

        A request neither stallable nor servable is *moot*: it cannot
        even be posed at this node (operation inapplicable, symbol no
        longer realizable, no consistent scenario).
        """
        _, stalls, serves = self._scan(state)
        cell = (symbol, op)
        if any(label.symbol == symbol for label, _rep in state.classes):
            return cell in stalls, cell in serves
        key = (state, symbol, op)
        cached = self._posed.get(key)
        if cached is not None:
            return cached
        answer = self._offclass_request(state, symbol, op)
        self._posed[key] = answer
        return answer

    def _offclass_request(
        self, state: CompositeState, symbol: str, op: Op
    ) -> tuple[bool, bool]:
        """Stall/serve classification when *symbol* labels no class.

        The blocked cache's symbol can be merged away by covering; it
        is then re-posed against the whole state as environment.  An
        unrealizable symbol (the state admits no such cache and it is
        not the ever-available invalid state) is moot.
        """
        if not self.spec.applicable(symbol, op):
            return False, False
        if symbol != self.spec.invalid:
            _lo, hi = state.symbol_interval(symbol)
            if hi == 0:
                return False, False
        can_stall = can_serve = False
        for ctx in self.expander.observation_contexts(state, symbol):
            if self.spec.react(symbol, op, ctx).stalled:
                can_stall = True
            else:
                can_serve = True
        return can_stall, can_serve


_Node = tuple[CompositeState, str]


def _resolvable(
    facts: _Facts, start: _Node, op: Op
) -> tuple[bool, set[_Node]]:
    """Can the pending request reach a serving (or moot) node?"""
    seen: set[_Node] = {start}
    queue: list[_Node] = [start]
    while queue:
        state, symbol = queue.pop(0)
        can_stall, can_serve = facts.request(state, symbol, op)
        if can_serve or not can_stall:
            # Serving, or moot (neither stall nor serve): resolved.
            return True, seen
        for edge in facts.edges(state):
            node = (edge.target, edge.observer_next(symbol))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False, seen


def _extract_lasso(
    facts: _Facts, start: _Node, op: Op
) -> tuple[ErrorKind, list[tuple[_Node, str]], list[tuple[_Node, str]]]:
    """Deterministic walk from *start* until a cycle or a dead node.

    Returns ``(kind, prefix, loop)`` where prefix/loop are
    ``(node, edge-label)`` pairs; the loop's last edge returns to its
    head (for a deadlock, the loop is the retry self-edge).
    """
    path: list[_Node] = [start]
    labels: list[str] = []
    index: dict[_Node, int] = {start: 0}
    while True:
        state, symbol = path[-1]
        edges = facts.edges(state)
        if not edges:
            steps = list(zip(path[:-1], labels))
            loop = [(path[-1], retry_label(op, symbol))]
            return ErrorKind.DEADLOCK, steps, loop
        chosen = min(
            edges,
            key=lambda e: (e.label, e.target.pretty(), e.observer_next(symbol)),
        )
        nxt = (chosen.target, chosen.observer_next(symbol))
        labels.append(chosen.label)
        if nxt in index:
            head = index[nxt]
            steps = list(zip(path, labels))
            return ErrorKind.STALL_CYCLE, steps[:head], steps[head:]
        index[nxt] = len(path)
        path.append(nxt)


def _global_stem(
    result: ExpansionResult, target: CompositeState
) -> list[tuple[CompositeState, str]]:
    """Shortest path of global transitions from the initial cover."""
    start = essential_home(result.initial, result.essential, result.pruning)
    if start == target:
        return []
    adjacency: dict[CompositeState, list[tuple[str, CompositeState]]] = {}
    for t in result.transitions:
        adjacency.setdefault(t.source, []).append((str(t.label), t.target))
    for out in adjacency.values():
        out.sort(key=lambda edge: (edge[0], edge[1].pretty()))
    parent: dict[CompositeState, tuple[CompositeState, str]] = {}
    seen = {start}
    queue = [start]
    while queue:
        state = queue.pop(0)
        for label, succ in adjacency.get(state, ()):
            if succ in seen:
                continue
            seen.add(succ)
            parent[succ] = (state, label)
            if succ == target:
                queue.clear()
                break
            queue.append(succ)
    if target not in parent:
        return []  # disconnected cover (duplicates-mode oddity): no stem
    steps: list[tuple[CompositeState, str]] = []
    cursor = target
    while cursor != start:
        pred, label = parent[cursor]
        steps.append((pred, label))
        cursor = pred
    steps.reverse()
    return steps


def analyze_liveness(result: ExpansionResult) -> LivenessReport:
    """Check every pending request of a completed expansion for progress.

    Returns an unchecked report (``checked=False``) for partial results
    and for expansions stopped at the first safety error: the product
    graph is only sound over the complete essential set.
    """
    if result.partial:
        return LivenessReport(
            checked=False,
            reason="partial expansion: liveness needs the full fixpoint",
        )
    if result.violations and not result.transitions:
        return LivenessReport(
            checked=False,
            reason="expansion stopped at the first error (stop_on_error)",
        )

    coll = _active_collector()
    span = None
    if coll is not None:
        span = coll.span("liveness.check", protocol=result.spec.name)
        span.__enter__()
    try:
        facts = _Facts(result)
        ordered_states = sorted(result.essential, key=lambda s: s.pretty())
        pending = 0
        explored: set[_Node] = set()
        claimed: set[tuple[Op, str]] = set()
        violations: list[Violation] = []
        lassos: list[LassoWitness] = []
        for op in result.spec.operations:
            for state in ordered_states:
                symbols = sorted(
                    {label.symbol for label, _rep in state.classes}
                )
                for symbol in symbols:
                    can_stall, _can_serve = facts.request(state, symbol, op)
                    if not can_stall:
                        continue
                    pending += 1
                    if (op, symbol) in claimed:
                        continue
                    resolvable, seen = _resolvable(facts, (state, symbol), op)
                    explored |= seen
                    if resolvable:
                        continue
                    claimed.add((op, symbol))
                    kind, prefix, loop = _extract_lasso(
                        facts, (state, symbol), op
                    )
                    stem = [
                        LassoStep(s, None, label)
                        for s, label in _global_stem(result, state)
                    ]
                    stem.extend(
                        LassoStep(s, q, label)
                        for (s, q), label in prefix
                    )
                    witness = LassoWitness(
                        op=op,
                        cache=symbol,
                        kind=kind,
                        stem=tuple(stem),
                        loop=tuple(
                            LassoStep(s, q, label) for (s, q), label in loop
                        ),
                    )
                    lassos.append(witness)
                    if kind is ErrorKind.DEADLOCK:
                        detail = (
                            "no transition can serve or unblock it "
                            "(deadlocked retry)"
                        )
                    else:
                        detail = (
                            f"a stall cycle of length {len(loop)} never "
                            "serves it"
                        )
                    violations.append(
                        Violation(
                            kind,
                            f"a cache in {symbol} can be stalled forever "
                            f"on {op.value}: {detail}",
                            state,
                        )
                    )
        report = LivenessReport(
            checked=True,
            pending=pending,
            nodes=len(explored),
            violations=tuple(violations),
            lassos=tuple(lassos),
        )
        if coll is not None:
            coll.count("liveness.pending", pending)
            coll.count("liveness.nodes", len(explored))
            coll.count("liveness.violations", len(violations))
            assert span is not None
            span.set(live=report.live, pending=pending)
        return report
    finally:
        if span is not None:
            span.__exit__(None, None, None)
