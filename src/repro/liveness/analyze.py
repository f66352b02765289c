"""Starvation analysis over the essential-state graph.

The safety verifier proves that no *reachable* state is erroneous; this
pass proves that no *pending request* can be refused forever.  It runs
as a post-pass over a completed :class:`~repro.core.result.
ExpansionResult` and reads its facts -- who stalls, who is served and
where each step lands -- off the compiled kernel
(:meth:`~repro.kernel.compile.CompiledProtocol.reaction_facts`), keyed
by the kernel's interned state ids.  The interpreter never runs here:
an interpreter-built oracle of the same facts lives in
:mod:`repro.testkit.diff`, whose ``liveness`` check requires both to
give byte-identical reports.

The model is a product automaton.  A node pairs an essential state
``S`` with the FSM symbol ``q`` of one distinguished cache -- the
*blocked* cache, which issued an operation ``o`` that stalled and keeps
retrying it.  Edges are the global transitions other initiators can
take (closed over the essential set through the ``contains`` covering,
the essential home of each successor); along an edge the blocked
cache evolves as an observer, ``q -> outcome.observer_for(q)``.  At
each node the protocol's reaction table classifies the pending
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
content* -- the engine that built the facts and its worklist schedule
cannot leak in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Protocol

from ..core.composite import CompositeState
from ..core.errors import ErrorKind, Violation
from ..core.result import ExpansionResult
from ..core.symbols import Op
from ..kernel.compile import compile_protocol
from ..kernel.essential import essential_home_id
from ..obs.collector import active as _active_collector
from .model import LassoStep, LassoWitness, LivenessReport, retry_label

__all__ = ["Edge", "Facts", "analyze_liveness", "check_liveness", "ordered_edges"]


@dataclass(frozen=True)
class Edge:
    """One progress edge of the product graph (blocked cache observing)."""

    label: str
    #: The target's essential-state key, in the facts' own key space.
    target: Hashable
    #: The target's canonical rendering (edge and lasso ordering).
    pretty: str
    #: Declared observer moves of the underlying outcome: sorted
    #: ``(state, next)`` names; undeclared observers stay put.
    moves: tuple[tuple[str, str], ...]

    def observer_next(self, symbol: str) -> str:
        """Where a blocked cache in *symbol* lands along this edge."""
        for state, nxt in self.moves:
            if state == symbol:
                return nxt
        return symbol


def ordered_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """The deterministic edge order both fact sources use."""
    return tuple(sorted(edges, key=lambda e: (e.label, e.pretty, e.moves)))


class Facts(Protocol):
    """Per-state reaction facts over one complete expansion.

    States are addressed by opaque hashable keys: :attr:`states` lists
    the essential states' keys in the result's order, :attr:`initial`
    is the key of the essential state covering the initial one.
    """

    states: tuple[Hashable, ...]
    initial: Hashable

    def state(self, key: Hashable) -> CompositeState:
        """The composite state of one key."""

    def edges(self, key: Hashable) -> tuple[Edge, ...]:
        """Outgoing progress edges, in :func:`ordered_edges` order."""

    def request(self, key: Hashable, symbol: str, op: Op) -> tuple[bool, bool]:
        """``(can_stall, can_serve)`` for a pending ``op`` by *symbol*;
        neither means the request is *moot*."""


class _KernelFacts:
    """:class:`Facts` read off the compiled kernel, keyed by interned id."""

    def __init__(self, result: ExpansionResult) -> None:
        cp = self.cp = compile_protocol(result.spec)
        self.pruning = result.pruning
        self.states = tuple(cp.intern(cp.encode(s)) for s in result.essential)
        self.initial = self._home(cp.intern(cp.encode(result.initial)))
        self._sid = {name: sid for sid, name in enumerate(cp.ir.states)}
        self._opid = {Op(name): opid for opid, name in enumerate(cp.ir.ops)}
        #: id -> (edges, stalled cells, served cells, class symbols).
        self._scans: dict[int, tuple] = {}
        self._homes: dict[int, int] = {}
        self._posed: dict[tuple[int, int, int], tuple[bool, bool]] = {}

    def _home(self, target: int) -> int:
        return essential_home_id(self.cp, target, self.states, self.pruning)

    def state(self, key: int) -> CompositeState:
        return self.cp.decoded(key)

    def _scan(self, key: int) -> tuple:
        cached = self._scans.get(key)
        if cached is not None:
            return cached
        cp = self.cp
        stalls, serves, steps = cp.reaction_facts(key)
        edges: dict[tuple[str, int, tuple], Edge] = {}
        homes = self._homes
        for opid, init_sid, target, moves in steps:
            home = homes.get(target)
            if home is None:
                home = homes[target] = self._home(target)
            label = cp.label_str(opid, init_sid)
            if (label, home, moves) not in edges:
                edges[label, home, moves] = Edge(
                    label, home, cp.decoded(home).pretty(), moves
                )
        symbols = frozenset(label.symbol for label, _ in cp.decoded(key).classes)
        facts = (ordered_edges(edges.values()), stalls, serves, symbols)
        self._scans[key] = facts
        return facts

    def edges(self, key: int) -> tuple[Edge, ...]:
        return self._scan(key)[0]

    def request(self, key: int, symbol: str, op: Op) -> tuple[bool, bool]:
        _, stalls, serves, symbols = self._scan(key)
        cell = (self._sid[symbol], self._opid[op])
        if symbol in symbols:
            return cell in stalls, cell in serves
        posed = (key, *cell)
        answer = self._posed.get(posed)
        if answer is None:
            answer = self._posed[posed] = self.cp.offclass_request(*posed)
        return answer


_Node = tuple[Hashable, str]


def _resolvable(
    facts: Facts, start: _Node, op: Op
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
    facts: Facts, start: _Node, op: Op
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
            key=lambda e: (e.label, e.pretty, e.observer_next(symbol)),
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
    result: ExpansionResult, start: CompositeState, target: CompositeState
) -> list[tuple[CompositeState, str]]:
    """Shortest path of global transitions from *start*, the initial
    state's essential cover."""
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
    graph is only sound over the complete essential set.  The facts
    come from the compiled kernel of ``result.spec`` (the one the
    expansion ran on, so a cache hit).
    """
    return check_liveness(result, _KernelFacts)


def check_liveness(
    result: ExpansionResult, facts_of: Callable[[ExpansionResult], Facts]
) -> LivenessReport:
    """:func:`analyze_liveness` over the facts ``facts_of(result)``
    builds: the one product-graph search, whatever the fact source."""
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
        facts = facts_of(result)
        ordered_states = sorted(
            facts.states, key=lambda key: facts.state(key).pretty()
        )
        start = facts.state(facts.initial)
        pending = 0
        explored: set[_Node] = set()
        claimed: set[tuple[Op, str]] = set()
        violations: list[Violation] = []
        lassos: list[LassoWitness] = []
        for op in result.spec.operations:
            for state in ordered_states:
                symbols = sorted(
                    {label.symbol for label, _rep in facts.state(state).classes}
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
                    composite = facts.state(state)
                    stem = [
                        LassoStep(s, None, label)
                        for s, label in _global_stem(result, start, composite)
                    ]
                    stem.extend(
                        LassoStep(facts.state(s), q, label)
                        for (s, q), label in prefix
                    )
                    witness = LassoWitness(
                        op=op,
                        cache=symbol,
                        kind=kind,
                        stem=tuple(stem),
                        loop=tuple(
                            LassoStep(facts.state(s), q, label)
                            for (s, q), label in loop
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
                            composite,
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
