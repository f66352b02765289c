"""Compiled exhaustive enumeration (Figure 2 on packed cell tuples).

A mirror of :func:`repro.enumeration.exhaustive.enumerate_space` whose
hot loop touches only small ints: a global state is a tuple of packed
cells plus the memory annotation, successor generation is one memoized
:meth:`~repro.kernel.compile.CompiledProtocol.delta` lookup per
``(cell, op, present-mask, mdata)`` and most transitions apply via a
precomputed observer cell map.  Verdicts, violations, visit counts and
partial/guard semantics match the interpreter exactly; states decode to
:class:`~repro.enumeration.product.ConcreteState` only at the edges
(results, erroneous examples, frontier).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..core.protocol import ProtocolSpec
from ..enumeration.exhaustive import (
    EnumerationResult,
    EnumerationStats,
    Equivalence,
)
from ..enumeration.product import initial_concrete
from ..ir.model import IRError
from ..obs.collector import active as _active_collector
from ..obs import clock
from .compile import CompiledProtocol, compile_protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Exhaustion, Guard

__all__ = ["enumerate_space"]

_Cells = tuple[int, ...]


def enumerate_space(
    spec: ProtocolSpec,
    n: int,
    *,
    equivalence: Equivalence = Equivalence.STRICT,
    guard: "Guard | None" = None,
    compiled: CompiledProtocol | None = None,
) -> EnumerationResult:
    """Run the Figure 2 worklist search on the compiled kernel.

    Same contract as the interpreter's
    :func:`~repro.enumeration.exhaustive.enumerate_space` (``guard``
    owns every budget; without one the search runs to its fixpoint,
    however large the state space is for this ``n``); ``compiled``
    short-circuits compilation for callers that already hold one.
    Otherwise the spec is lowered under ``guard``; a guard that trips
    there yields a PARTIAL whose only frontier state is the initial one.
    """
    try:
        cp = compiled if compiled is not None else compile_protocol(spec, guard)
    except IRError:
        if guard is None or guard.exhausted is None:
            raise
        init = initial_concrete(spec, n)
        return EnumerationResult(
            spec=spec, n=n, equivalence=equivalence,
            stats=EnumerationStats(unique_states=1), states=(init,),
            violations=(), partial=True, exhausted=guard.exhausted,
            frontier=(init,),
        )
    stats = EnumerationStats()
    started = clock.monotonic()

    coll = _active_collector()
    if coll is not None:
        root_span = coll.span(
            "kernel.enumerate",
            protocol=spec.name,
            n=n,
            equivalence=equivalence.value,
        )
        root_span.__enter__()

    counting = equivalence is Equivalence.COUNTING
    inv = cp.ir.invalid
    O = cp.op_count
    opids_by_sid = cp._opids
    shift = cp.state_count + 2
    memo = cp._delta
    memo_get = memo.get
    compute_delta = cp._compute_delta
    acts = cp._acts
    acts_get = acts.get
    gvar = cp._gvar
    gvar_get = gvar.get
    compute_variants = cp._compute_variants
    dseq = cp._dcode_seq

    def key(state: _Cells) -> _Cells:
        # Sorting the packed cells is injective on permutation classes
        # (cell ints correspond 1:1 to (state, cdata) pairs), so keys
        # merge exactly the states ConcreteState.canonical() merges.
        if counting:
            return tuple(sorted(state[:n])) + (state[n],)
        return state

    init = cp.initial_cells(n)
    frontier: deque[_Cells] = deque([init])
    seen: dict[_Cells, _Cells] = {key(init): init}
    violations: list = []
    erroneous: list[_Cells] = []
    reported: set[_Cells] = set()

    def check(state: _Cells, k: _Cells) -> None:
        if k in reported:
            return
        found = cp.concrete_violations_packed(state)
        if found:
            reported.add(k)
            violations.extend(found)
            erroneous.append(state)

    check(init, key(init))
    exhausted: "Exhaustion | None" = None
    visits = 0
    expanded = 0
    max_frontier = 0
    gcheck = None if guard is None else guard.check
    try:
        while frontier and exhausted is None:
            if len(frontier) > max_frontier:
                max_frontier = len(frontier)
            current = frontier.popleft()
            expanded += 1
            if coll is not None:
                coll.observe("enumerate.frontier.depth", len(frontier) + 1)

            mdata = current[n]
            full_mask = 0
            dup_mask = 0
            for i in range(n):
                b = 1 << (current[i] >> 2)
                if full_mask & b:
                    dup_mask |= b
                else:
                    full_mask |= b
            full_mask &= ~(1 << inv)
            #: Per-state cache of observer-mapped cell lists (plus the
            #: positions that would raise), keyed by the (interned)
            #: map's identity: one comprehension per distinct map, one
            #: .copy() per emission.
            mapped_cache: dict[int, tuple[list[int], tuple[int, ...]]] = {}
            #: Per-state cache of data-choice sequences per symbol
            #: (valid whenever the actor is outside that symbol).
            seq_cache: dict[int, tuple[int, ...]] = {}
            interrupted = False
            for actor in range(n):
                cell = current[actor]
                sid = cell >> 2
                ops = opids_by_sid[sid]
                if not ops:
                    continue
                # The actor's view excludes its own copy unless another
                # cache shares its state.
                if sid == inv or dup_mask >> sid & 1:
                    mask = full_mask
                else:
                    mask = full_mask & ~(1 << sid)
                mrest = (mask << 2) | mdata
                akey = (cell << shift) | mrest
                cell_acts = acts_get(akey)
                if cell_acts is None:
                    cbase = cell * O
                    batch = []
                    for opid in ops:
                        dkey = ((cbase + opid) << shift) | mrest
                        entry = memo_get(dkey)
                        if entry is None:
                            entry = memo[dkey] = compute_delta(
                                cell, opid, mask, mdata
                            )
                        batch.append((dkey, entry))
                    cell_acts = acts[akey] = tuple(batch)
                for dkey, entry in cell_acts:
                    tag = entry[0]
                    if tag == 3:
                        oc = entry[3]
                        if oc is None:
                            cells = list(current)
                            cells[actor] = entry[1]
                            cells[n] = entry[2]
                        else:
                            # Map the whole tuple (the mdata slot maps
                            # to a bogus value) and overwrite actor and
                            # mdata; ``neg`` pre-locates the cells that
                            # would fail the interpreter's
                            # valid-copy-without-data check.
                            mp = mapped_cache.get(id(oc))
                            if mp is None:
                                m = [oc[c] for c in current]
                                mp = mapped_cache[id(oc)] = (
                                    m,
                                    tuple(
                                        i for i in range(n) if m[i] < 0
                                    ),
                                )
                            mapped, neg = mp
                            cells = mapped.copy()
                            cells[actor] = entry[1]
                            cells[n] = entry[2]
                            if neg and (len(neg) > 1 or neg[0] != actor):
                                raise ValueError(
                                    "a valid observer copy cannot hold nodata"
                                )
                        targets: tuple[_Cells, ...] | list[_Cells] = (
                            tuple(cells),
                        )
                    elif tag == 1:
                        targets = (current,)
                    elif tag == 2:
                        raise entry[1](entry[2])
                    else:
                        # Data signatures: the choice sequence only
                        # depends on the actor when the actor's own
                        # symbol is the source, so the per-state cache
                        # covers the common case.
                        if entry[5] == 2:
                            wsym = entry[6]
                            if wsym == sid:
                                wbt = dseq(current, n, actor, wsym)
                            else:
                                wbt = seq_cache.get(wsym)
                                if wbt is None:
                                    wbt = seq_cache[wsym] = dseq(
                                        current, n, -1, wsym
                                    )
                        else:
                            wbt = ()
                        if entry[3] == 2:
                            lsym = entry[4]
                            if lsym == sid:
                                ldt = dseq(current, n, actor, lsym)
                            else:
                                ldt = seq_cache.get(lsym)
                                if ldt is None:
                                    ldt = seq_cache[lsym] = dseq(
                                        current, n, -1, lsym
                                    )
                        else:
                            ldt = ()
                        vkey = (dkey, wbt, ldt)
                        cached = gvar_get(vkey)
                        if cached is None:
                            cached = gvar[vkey] = compute_variants(
                                entry, cell & 3, mdata, wbt, ldt
                            )
                        variants, oc, error = cached
                        if oc is None:
                            mapped = None
                        else:
                            mp = mapped_cache.get(id(oc))
                            if mp is None:
                                m = [oc[c] for c in current]
                                mp = mapped_cache[id(oc)] = (
                                    m,
                                    tuple(
                                        i for i in range(n) if m[i] < 0
                                    ),
                                )
                            mapped, neg = mp
                            if neg and (len(neg) > 1 or neg[0] != actor):
                                raise ValueError(
                                    "a valid observer copy cannot hold nodata"
                                )
                        if error is not None:
                            # A later variant's data error: the
                            # interpreter meets it after the check above.
                            raise ValueError(error)
                        targets = []
                        for ncell, md2 in variants:
                            cells = (
                                list(current) if mapped is None
                                else mapped.copy()
                            )
                            cells[actor] = ncell
                            cells[n] = md2
                            targets.append(tuple(cells))
                    for target in targets:
                        visits += 1
                        if gcheck is not None:
                            exhausted = gcheck(
                                visits=visits, states=len(seen)
                            )
                            if exhausted is not None:
                                # The interrupted state heads the frontier.
                                frontier.appendleft(current)
                                interrupted = True
                                break
                        if counting:
                            k = tuple(sorted(target[:n])) + (target[n],)
                        else:
                            k = target
                        if k in seen:
                            continue
                        seen[k] = target
                        check(target, k)
                        frontier.append(target)
                    if interrupted:
                        break
                if interrupted:
                    break
    finally:
        if coll is not None:
            root_span.__exit__(None, None, None)

    stats.visits = visits
    stats.expanded = expanded
    stats.max_frontier = max_frontier
    stats.unique_states = len(seen)
    stats.elapsed = clock.monotonic() - started
    if coll is not None:
        coll.count("enumerate.visits", stats.visits)
        coll.count("enumerate.unique", stats.unique_states)
        coll.count("enumerate.expanded", stats.expanded)
        root_span.set(visits=stats.visits, unique=stats.unique_states)
    decode = cp.decode_concrete
    return EnumerationResult(
        spec=spec,
        n=n,
        equivalence=equivalence,
        stats=stats,
        states=tuple(decode(s) for s in seen.values()),
        violations=tuple(violations),
        erroneous=tuple(decode(s) for s in erroneous),
        partial=exhausted is not None,
        exhausted=exhausted,
        frontier=(
            tuple(decode(s) for s in frontier)
            if exhausted is not None
            else ()
        ),
    )
