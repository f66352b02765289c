"""Compiled exhaustive enumeration (Figure 2 on packed cell tuples).

A mirror of :func:`repro.enumeration.exhaustive.enumerate_space` whose
hot loop touches only small ints: a global state is a tuple of packed
cells plus the memory annotation, successor generation is one memoized
:meth:`ConcreteTables.delta` lookup per
``(cell, op, present-mask, mdata)`` and most transitions apply via a
precomputed observer cell map.  Verdicts, violations, visit counts and
partial/guard semantics match the interpreter exactly; states decode to
:class:`~repro.enumeration.product.ConcreteState` only at the edges
(results, erroneous examples, frontier).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..core.errors import ErrorKind, Violation
from ..core.protocol import ProtocolSpec
from ..enumeration.exhaustive import (
    EnumerationResult,
    EnumerationStats,
    Equivalence,
)
from ..enumeration.product import ConcreteState, initial_concrete
from ..ir.model import IRError
from ..obs.collector import active as _active_collector
from ..obs import clock
from .compile import _DATA_BY_CODE, CompiledProtocol, compile_protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Exhaustion, Guard

__all__ = ["ConcreteTables", "enumerate_space"]

_Cells = tuple[int, ...]


class ConcreteTables:
    """The concrete (product-machine) side of one compiled protocol.

    Decision entries come from the symbolic side
    (:meth:`CompiledProtocol._entry`); these tables add the per-cell
    transition descriptors, observer maps and concrete verdicts the
    enumeration reads.  :func:`enumerate_space` builds them on first
    use and keeps them on the compiled protocol, so repeated
    enumerations of one protocol share every memo layer.
    """

    def __init__(self, cp: CompiledProtocol) -> None:
        self.name = cp.name
        self._S = cp._S
        self._O = cp._O
        self._inv = cp._inv
        self._states = cp._states
        self._is_store = cp._is_store
        self._entry = cp._entry
        self._conc_patterns = cp._conc_patterns
        self._obsolete_msg = cp._obsolete_msg

        # Memo layers.
        self._delta: dict[int, tuple] = {}
        self._oc_tables: dict[tuple, tuple[int, ...] | None] = {}
        #: (delta-key, wb-choices, load-choices) -> (variants, oc, error).
        self._gvar: dict[tuple, tuple] = {}
        #: (cell, mask, md) -> ((delta-key, entry), ...) over the
        #: cell's applicable ops -- one lookup per actor in the
        #: enumerate hot loop.
        self._acts: dict[int, tuple] = {}
        #: Bounded decode / verdict caches for repeated enumerations.
        self._cdecoded: dict[tuple[int, ...], ConcreteState] = {}
        self._cviol: dict[tuple[int, ...], tuple[Violation, ...]] = {}

    def initial_cells(self, n: int) -> tuple[int, ...]:
        """Packed initial concrete state: all invalid, memory fresh."""
        if n < 1:
            raise ValueError("need at least one cache")
        return (self._inv * 4 + 2,) * n + (1,)

    def delta(self, cell: int, opid: int, mask: int, md: int) -> tuple:
        """Concrete transition descriptor, memoized per
        ``(cell, op, present-mask, mdata)``.

        Tags: 1 stall, 2 lazy error, 3 fast path (single candidate,
        fully precomputed), 4 general path (data choices depend on the
        other caches; apply via :meth:`apply_general`).
        """
        key = ((cell * self._O + opid) << (self._S + 2)) | (mask << 2) | md
        entry = self._delta.get(key)
        if entry is None:
            entry = self._delta[key] = self._compute_delta(cell, opid, mask, md)
        return entry

    def _compute_delta(self, cell: int, opid: int, mask: int, md: int) -> tuple:
        entry = self._entry(cell >> 2, opid, mask)
        if entry[0]:
            return entry  # stall (1,) or error (2, exc, msg) pass through
        (
            _tag, next_sid, becomes_invalid, load_kind, load_sid,
            wb_kind, wb_sid, write_through, obs_next, obs_upd, _moves,
        ) = entry
        store = self._is_store[opid]
        d_actor = cell & 3
        if wb_kind <= 1 and load_kind <= 1:
            # Single candidate: every data value is determined by the
            # memo key, so the whole application precomputes.
            if wb_kind == 1:
                if d_actor == 2:
                    return (
                        2,
                        ValueError,
                        "cannot write back a copy that holds no data",
                    )
                mdata1 = d_actor
            else:
                mdata1 = md
            load_value = mdata1 if load_kind == 1 else -1
            if becomes_invalid:
                new_d = 2
            else:
                value = d_actor if load_value == -1 else load_value
                if store:
                    new_d = 1
                elif value == 2:
                    return (
                        2,
                        ValueError,
                        "initiator ends in a valid state without data",
                    )
                else:
                    new_d = value
            mdata2 = (1 if write_through else 3) if store else mdata1
            return (
                3,
                next_sid * 4 + new_d,
                mdata2,
                self._obs_cells(obs_next, obs_upd, store),
            )
        return (
            4,
            next_sid,
            becomes_invalid,
            load_kind,
            load_sid,
            wb_kind,
            wb_sid,
            write_through,
            store,
            self._obs_cells(obs_next, obs_upd, store),
        )

    def _obs_cells(
        self,
        obs_next: tuple[int, ...],
        obs_upd: tuple[bool, ...],
        store: bool,
    ) -> tuple[int, ...] | None:
        """Observer cell map ``cell -> cell'`` (None when identity).

        ``-1`` marks a mapping that must raise (a valid observer copy
        holding nodata); reachable cells always carry data in valid
        states, so the identity decision only consults the
        ``d in {fresh, obsolete}`` rows.
        """
        memo_key = (obs_next, obs_upd, store)
        cached = self._oc_tables.get(memo_key, _MISSING)
        if cached is not _MISSING:
            return cached
        inv = self._inv
        table: list[int] = []
        identity = True
        for sid in range(self._S):
            if sid == inv:
                table.extend(sid * 4 + d for d in range(4))
                continue
            nxt = obs_next[sid]
            updated = obs_upd[sid]
            for d in range(4):
                cell = sid * 4 + d
                if nxt == inv:
                    new_cell = nxt * 4 + 2
                elif d in (0, 2):
                    new_cell = -1  # observer_data_after would raise
                elif store:
                    new_cell = nxt * 4 + (1 if updated else (3 if d == 1 else d))
                else:
                    new_cell = nxt * 4 + d
                table.append(new_cell)
                if d in (1, 3) and new_cell != cell:
                    identity = False
        result = None if identity else tuple(table)
        self._oc_tables[memo_key] = result
        return result

    def _dcode_seq(
        self, state: tuple[int, ...], n: int, actor: int, sym_sid: int
    ) -> tuple[int, ...]:
        """Distinct dcodes held by other caches in one symbol, in
        first-occurrence (cache index) order."""
        seen = 0
        out: list[int] = []
        for i in range(n):
            if i != actor and state[i] >> 2 == sym_sid:
                d = state[i] & 3
                b = 1 << d
                if not seen & b:
                    seen |= b
                    out.append(d)
        if not out:
            raise AssertionError(
                f"{self.name}: outcome names {self._states[sym_sid]} as a "
                "source but none exists"
            )
        return tuple(out)

    def _compute_variants(
        self,
        entry: tuple,
        d_actor: int,
        md: int,
        wbt: tuple[int, ...],
        ldt: tuple[int, ...],
    ) -> tuple:
        """``((actor-cell', mdata'), ...)``, the observer map and a
        deferred data error of a tag-4 delta.

        A data error of the first variant raises here; one of a later
        variant is returned, for the caller to raise after its
        observer-copy check -- the interpreter's order.
        """
        (
            _tag, next_sid, becomes_invalid, load_kind, _load_sid,
            wb_kind, _wb_sid, write_through, store, oc,
        ) = entry

        if wb_kind == 0:
            wb_values: tuple[int, ...] = (-1,)
        elif wb_kind == 1:
            wb_values = (d_actor,)
        else:
            wb_values = wbt

        if load_kind == 0:
            load_specs: tuple[tuple[int, int], ...] = ((0, -1),)
        elif load_kind == 1:
            load_specs = ((1, -1),)
        else:
            load_specs = tuple((2, v) for v in ldt)

        # Mirrors product._apply: write-back values outer, load values
        # inner, dedup preserving first-emission order.  Equal
        # (cell', mdata') pairs give equal targets (the observer map is
        # shared), so pair-level dedup is target-level dedup.
        variants: list[tuple[int, int]] = []
        error = None
        for wb_value in wb_values:
            if wb_value == 2:
                error = "cannot write back a copy that holds no data"
                break
            mdata1 = md if wb_value == -1 else wb_value
            for lk, load_data in load_specs:
                if lk == 1:
                    load_value = mdata1
                elif lk == 2:
                    load_value = load_data
                else:
                    load_value = -1
                if becomes_invalid:
                    new_d = 2
                else:
                    value = d_actor if load_value == -1 else load_value
                    if store:
                        new_d = 1
                    elif value == 2:
                        error = "initiator ends in a valid state without data"
                        break
                    else:
                        new_d = value
                mdata2 = (1 if write_through else 3) if store else mdata1
                pair = (next_sid * 4 + new_d, mdata2)
                if pair not in variants:
                    variants.append(pair)
            if error is not None:
                break
        if error is not None and not variants:
            raise ValueError(error)
        return tuple(variants), oc, error

    def apply_general(
        self, state: tuple[int, ...], actor: int, entry: tuple
    ) -> list[tuple[int, ...]]:
        """Apply a tag-4 delta: one result per distinct data choice."""
        n = len(state) - 1
        cell = state[actor]
        # The enumerate hot loop inlines this (memoized); this is the
        # straightforward uncached form, with the same raise order.
        wbt = self._dcode_seq(state, n, actor, entry[6]) if entry[5] == 2 else ()
        ldt = self._dcode_seq(state, n, actor, entry[4]) if entry[3] == 2 else ()
        variants, oc, error = self._compute_variants(
            entry, cell & 3, state[n], wbt, ldt
        )
        mapped = None if oc is None else [oc[c] for c in state]
        results: list[tuple[int, ...]] = []
        for ncell, md2 in variants:
            cells = list(state) if mapped is None else mapped.copy()
            cells[actor] = ncell
            cells[n] = md2
            if mapped is not None and min(cells) < 0:
                raise ValueError("a valid observer copy cannot hold nodata")
            results.append(tuple(cells))
        if error is not None:
            raise ValueError(error)
        return results

    def concrete_violations_packed(
        self, state: tuple[int, ...]
    ) -> tuple[Violation, ...]:
        """Violations of one packed concrete state (no decode).

        Memoized (bounded) so repeated enumerations of the same
        protocol re-judge states by hash lookup.
        """
        cached = self._cviol.get(state)
        if cached is None:
            cached = tuple(self._concrete_violations(state))
            if len(self._cviol) < 1 << 16:
                self._cviol[state] = cached
        return cached

    def _concrete_violations(
        self, state: tuple[int, ...]
    ) -> list[Violation]:
        n = len(state) - 1
        counts = [0] * self._S
        for i in range(n):
            counts[state[i] >> 2] += 1
        found: list[Violation] = []
        for pat in self._conc_patterns:
            kind = pat[0]
            if kind == "multiple":
                bad = counts[pat[1]] >= 2
            elif kind == "together":
                bad = counts[pat[1]] >= 1 and counts[pat[2]] >= 1
            else:  # "state"
                bad = counts[pat[1]] >= 1
            if bad:
                found.append(Violation(ErrorKind.INCOMPATIBLE_STATES, pat[-1]))
        fresh = state[n] == 1
        inv = self._inv
        for i in range(n):
            cell = state[i]
            sid = cell >> 2
            if sid == inv:
                continue
            d = cell & 3
            if d == 3:
                found.append(
                    Violation(
                        ErrorKind.READABLE_OBSOLETE, self._obsolete_msg[sid]
                    )
                )
            elif d == 1:
                fresh = True
        if not fresh:
            found.append(
                Violation(
                    ErrorKind.VALUE_LOST,
                    "the most recently written value survives nowhere",
                )
            )
        return found

    def decode_concrete(self, state: tuple[int, ...]) -> ConcreteState:
        """Unpack a concrete cell tuple to a :class:`ConcreteState`.

        Memoized (bounded): across repeated enumerations the same
        packed tuple decodes once.
        """
        cached = self._cdecoded.get(state)
        if cached is None:
            n = len(state) - 1
            states = self._states
            cached = ConcreteState(
                tuple(states[state[i] >> 2] for i in range(n)),
                tuple(_DATA_BY_CODE[state[i] & 3] for i in range(n)),
                _DATA_BY_CODE[state[n]],
            )
            if len(self._cdecoded) < 1 << 16:
                self._cdecoded[state] = cached
        return cached


#: Sentinel distinguishing "memoized None" from "absent" in _oc_tables.
_MISSING = object()


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

    ct = cp.concrete
    if ct is None:
        # Two threads that miss at once both build the same pure memo;
        # the last write wins harmlessly.
        ct = cp.concrete = ConcreteTables(cp)
    counting = equivalence is Equivalence.COUNTING
    inv = cp.ir.invalid
    O = ct._O
    opids_by_sid = cp._opids
    shift = ct._S + 2
    memo = ct._delta
    memo_get = memo.get
    compute_delta = ct._compute_delta
    acts = ct._acts
    acts_get = acts.get
    gvar = ct._gvar
    gvar_get = gvar.get
    compute_variants = ct._compute_variants
    dseq = ct._dcode_seq

    def key(state: _Cells) -> _Cells:
        # Sorting the packed cells is injective on permutation classes
        # (cell ints correspond 1:1 to (state, cdata) pairs), so keys
        # merge exactly the states ConcreteState.canonical() merges.
        if counting:
            return tuple(sorted(state[:n])) + (state[n],)
        return state

    init = ct.initial_cells(n)
    frontier: deque[_Cells] = deque([init])
    seen: dict[_Cells, _Cells] = {key(init): init}
    violations: list = []
    erroneous: list[_Cells] = []
    reported: set[_Cells] = set()

    def check(state: _Cells, k: _Cells) -> None:
        if k in reported:
            return
        found = ct.concrete_violations_packed(state)
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
    decode = ct.decode_concrete
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
