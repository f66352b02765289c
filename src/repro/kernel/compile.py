"""Compilation of a :class:`~repro.ir.model.ProtocolIR` to packed form.

The compiled representation works on plain integers end to end:

* a class label becomes ``lcode = rank*4 + dcode`` where ``rank`` is
  the state's position in ``sorted(ir.states)`` and ``dcode`` encodes
  the ``cdata`` annotation (``none=0 < fresh=1 < nodata=2 <
  obsolete=3`` -- the same order as
  :attr:`~repro.core.composite.Label.sort_key`, so sorting class ints
  reproduces the canonical class order);
* a composite-state class is ``(lcode << 2) | repcode`` with the
  repetition operator in the low bits (``0=0, 1=1, +=2, *=3``);
* a composite state is ``(sorted classes, sharing code, mdata code)``,
  hash-consed through an intern table, so state identity is an ``int``;
* a concrete per-cache cell is ``sid*4 + dcode`` (raw state id, no
  rank) and a concrete global state is
  ``(cell_0, ..., cell_{n-1}, mdata)``;
* guards collapse into bit tests against the present-set bitmask and
  the full reaction of one ``(state, op, present-set)`` triple resolves
  once into a flat decision entry.

All operator/data tables below are *derived from the core functions at
import time* rather than restated, so the kernel cannot drift from the
interpreter's algebra.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator
from weakref import WeakKeyDictionary

from ..core.composite import CompositeState, Label
from ..core.errors import ErrorKind, Violation
from ..core.result import ExpansionSemanticsError, TransitionLabel
from ..core.operators import (
    Rep,
    aggregate,
    conditioned_rep,
    count_cases,
    leq,
    remove_one,
)
from ..core.protocol import ProtocolDefinitionError
from ..core.symbols import CountCase, DataValue, Op, SharingLevel
from ..ir.model import SELF, IRError, ProtocolIR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..enumeration.product import ConcreteState

__all__ = [
    "CompiledProtocol",
    "compile_protocol",
]


# ----------------------------------------------------------------------
# Encoding tables, derived from the core algebra at import time
# ----------------------------------------------------------------------
#: repcode -> Rep (0, 1, +, *) and its inverse.
_REP_BY_CODE: tuple[Rep, ...] = (Rep.ZERO, Rep.ONE, Rep.PLUS, Rep.STAR)
_REP_CODE: dict[Rep, int] = {rep: i for i, rep in enumerate(_REP_BY_CODE)}

#: dcode -> DataValue | None; the order matches Label.sort_key's
#: data-string order ("" < "fresh" < "nodata" < "obsolete").
_DATA_BY_CODE: tuple[DataValue | None, ...] = (
    None,
    DataValue.FRESH,
    DataValue.NODATA,
    DataValue.OBSOLETE,
)
_DATA_CODE: dict[DataValue | None, int] = {
    value: i for i, value in enumerate(_DATA_BY_CODE)
}

#: sharing code -> SharingLevel | None.
_SHARING_BY_CODE: tuple[SharingLevel | None, ...] = (
    None,
    SharingLevel.NONE,
    SharingLevel.ONE,
    SharingLevel.MANY,
)
_SHARING_CODE: dict[SharingLevel | None, int] = {
    value: i for i, value in enumerate(_SHARING_BY_CODE)
}
_SH_INTERVAL: tuple[tuple[int, int | None] | None, ...] = (None,) + tuple(
    level.as_interval() for level in _SHARING_BY_CODE[1:]
)

#: leq(a, b) for repcodes a, b, flattened to a*4 + b.
_LEQ16: tuple[bool, ...] = tuple(
    leq(_REP_BY_CODE[a], _REP_BY_CODE[b]) for a in range(4) for b in range(4)
)

#: aggregate(a, b) for repcodes, flattened to (a << 2) | b.
_AGG16: tuple[int, ...] = tuple(
    _REP_CODE[aggregate(_REP_BY_CODE[a], _REP_BY_CODE[b])]
    for a in range(4)
    for b in range(4)
)

#: remove_one by repcode (index 0 is a placeholder; remove_one raises
#: on ZERO and canonical states never hold a ZERO class).
_REMOVE1: tuple[int, ...] = (0,) + tuple(
    _REP_CODE[remove_one(_REP_BY_CODE[c])] for c in range(1, 4)
)

#: count interval by repcode.
_REP_LO: tuple[int, ...] = tuple(_REP_BY_CODE[c].min_count for c in range(4))
_REP_HI: tuple[int | None, ...] = tuple(
    _REP_BY_CODE[c].max_count for c in range(4)
)

#: CountCase codes: ZERO=0, ONE=1, MANY=2, SOME=3.
_CASE_BY_CODE: tuple[CountCase, ...] = (
    CountCase.ZERO,
    CountCase.ONE,
    CountCase.MANY,
    CountCase.SOME,
)
_CASE_CODE: dict[CountCase, int] = {
    case: i for i, case in enumerate(_CASE_BY_CODE)
}
_CASE_LO: tuple[int, ...] = tuple(c.min_count for c in _CASE_BY_CODE)
_CASE_HI: tuple[int | None, ...] = tuple(c.max_count for c in _CASE_BY_CODE)

#: conditioned_rep by case code.
_COND_REP: tuple[int, ...] = tuple(
    _REP_CODE[conditioned_rep(case)] for case in _CASE_BY_CODE
)

#: count_cases by repcode*2 + sharing flag, as case-code tuples.
_CASES: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        _CASE_CODE[case]
        for case in count_cases(_REP_BY_CODE[code // 2], sharing=bool(code % 2))
    )
    for code in range(8)
)


def _covers_packed(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Merge-walk structural covering on packed class tuples.

    The packed mirror of :func:`repro.core.covering.structurally_covers`:
    lcodes replace labels (same canonical order) and the operator check
    is a table lookup.  Classes present only in *big* must admit
    emptiness, i.e. carry the ``*`` operator (code 3).
    """
    i = j = 0
    n_small = len(small)
    n_big = len(big)
    while i < n_small and j < n_big:
        cs = small[i]
        cb = big[j]
        ls = cs >> 2
        lb = cb >> 2
        if ls == lb:
            if not _LEQ16[(cs & 3) * 4 + (cb & 3)]:
                return False
            i += 1
            j += 1
        elif ls < lb:
            return False
        else:
            if cb & 3 != 3:
                return False
            j += 1
    if i < n_small:
        return False
    while j < n_big:
        if big[j] & 3 != 3:
            return False
        j += 1
    return True


def _signature(key: tuple, group_base: int) -> tuple[int, int]:
    """The containment signature of one packed state: two bitmasks.

    The *label mask* sets bit ``lcode`` for every class; the *required
    mask* sets it only for classes whose operator is not ``*``.  Both
    also set bit ``group_base + shc*4 + md``, the state's (sharing,
    mdata) group (``group_base`` lies above every lcode bit).
    :func:`_covers_packed` with equal sharing and mdata implies
    ``label(small) ⊆ label(big)`` (no class of *small* may be skipped)
    and ``required(big) ⊆ label(small)`` (only ``*`` classes of *big*
    may go unmatched), so ``small ⊆_F big`` requires::

        label(small) & ~label(big) == 0 and required(big) & ~label(small) == 0

    and the group bits make that fail for unequal groups.
    """
    classes, shc, md = key
    labels = required = 0
    for c in classes:
        bit = 1 << (c >> 2)
        labels |= bit
        if c & 3 != 3:
            required |= bit
    group = 1 << (group_base + shc * 4 + md)
    return labels | group, required | group


def _add_hi(a: int | None, b: int | None) -> int | None:
    """None-absorbing interval upper-bound addition."""
    if a is None or b is None:
        return None
    return a + b


class CompiledProtocol:
    """One :class:`ProtocolIR` compiled into packed integer form.

    Holds the decision tables plus four memo layers (intern table,
    containment lattice, per-state violations, per-state successors).
    All memo layers are keyed by interned ids, and ids are only
    meaningful within one instance -- which is itself keyed by the IR
    fingerprint in :func:`compile_protocol`, so states of different
    protocols (or different mutants of one protocol) never mix.

    Instances are *stateful caches* but not *stateful computations*:
    every public method is idempotent and the memoized answers are
    pure functions of the protocol, so sharing one instance across
    runs is sound: a warm run reports exactly what a cold one does.
    """

    def __init__(self, ir: ProtocolIR) -> None:
        self.ir = ir
        self.name = ir.name
        self.invalid_name = ir.states[ir.invalid]
        self.fingerprint = ir.fingerprint()
        self.sharing = ir.uses_sharing_detection

        states = ir.states
        self._states = states
        self._inv = ir.invalid
        S = len(states)
        self._S = S
        #: sid -> rank in sorted name order, and its inverse.
        by_name = sorted(range(S), key=lambda sid: states[sid])
        self._sid_by_rank = tuple(by_name)
        rank = [0] * S
        for r, sid in enumerate(by_name):
            rank[sid] = r
        self._rank = tuple(rank)
        self._inv_rank = self._rank[ir.invalid]

        ops = ir.ops
        self._ops = ops
        O = len(ops)
        self._O = O
        self._op_objs = tuple(Op(op) for op in ops)
        self._is_store = tuple(op is Op.WRITE for op in self._op_objs)

        #: sid -> bitmask of applicable opids (restriction-aware).
        self._applm = tuple(
            sum(1 << opid for opid in range(O) if ir.applicable(sid, opid))
            for sid in range(S)
        )
        #: sid -> tuple of applicable opids (hot-loop iteration order).
        self._opids = tuple(
            tuple(opid for opid in range(O) if ir.applicable(sid, opid))
            for sid in range(S)
        )

        # Guard rules per (sid, opid): the declaration-ordered decision
        # list with each guard pre-flattened to bit tests.
        rules: list[list[tuple[bool, bool, int, int, object]]] = [
            [] for _ in range(S * O)
        ]
        for t in ir.transitions:
            any_flag = none_flag = False
            has_mask = nothas_mask = 0
            for kind, state_id in t.guard.atoms:
                if kind == "any":
                    any_flag = True
                elif kind == "none":
                    none_flag = True
                elif kind == "has":
                    has_mask |= 1 << state_id
                else:
                    nothas_mask |= 1 << state_id
            rules[t.state * O + t.op].append(
                (any_flag, none_flag, has_mask, nothas_mask, t.action)
            )
        self._rules = tuple(tuple(cell) for cell in rules)
        #: Lazily resolved decision entries, per (sid, opid), keyed by
        #: the present-set bitmask.
        self._select: tuple[dict[int, tuple], ...] = tuple(
            {} for _ in range(S * O)
        )

        # Error patterns, pre-rendered: rank-based for symbolic states,
        # sid-based for concrete count vectors (messages shared).
        sym_patterns: list[tuple] = []
        conc_patterns: list[tuple] = []
        for entry in ir.error_patterns:
            kind = entry[0]
            if kind == "multiple":
                msg = f"at most one cache may be in state {states[entry[1]]}"
                sym_patterns.append(("multiple", self._rank[entry[1]], msg))
                conc_patterns.append(("multiple", entry[1], msg))
            elif kind == "together":
                msg = (
                    f"states {states[entry[1]]} and {states[entry[2]]} "
                    "may not coexist"
                )
                sym_patterns.append(
                    ("together", self._rank[entry[1]], self._rank[entry[2]], msg)
                )
                conc_patterns.append(("together", entry[1], entry[2], msg))
            elif kind == "state":
                msg = f"state {states[entry[1]]} must be unreachable"
                sym_patterns.append(("state", self._rank[entry[1]], msg))
                conc_patterns.append(("state", entry[1], msg))
            else:
                raise IRError(
                    f"{self.name}: unknown error pattern kind {kind!r}"
                )
        self._sym_patterns = tuple(sym_patterns)
        self._conc_patterns = tuple(conc_patterns)
        self._obsolete_msg = tuple(
            f"a processor can read obsolete data from a {name} copy"
            for name in states
        )

        #: lcode -> cached Label (decode working set is tiny).
        self._labels: dict[int, Label] = {}
        #: (opid, sid) -> TransitionLabel object / rendered string.
        self._tlabels: dict[int, TransitionLabel] = {}
        self._tlabel_strs: dict[int, str] = {}

        # Intern table: key -> id, id -> key, id -> decoded state.
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._decoded: list[CompositeState] = []
        self._intern_lock = threading.Lock()
        #: id -> containment signature (see _signature), read inline by
        #: the pruning loops to skip pairs before a memo lookup.
        self._group_base = 4 * S
        self.label_masks: list[int] = []
        self.required_masks: list[int] = []
        self.intern_hits = 0
        self.intern_misses = 0

        # Memo layers over interned ids.
        #: small -> byte row over ``big`` ids (see contains_ids).
        self._contains: dict[int, bytearray] = {}
        self.containment_hits = 0
        self.containment_misses = 0
        self._violations: dict[int, tuple[Violation, ...]] = {}
        #: sid -> (successor entries, scenario case-splits evaluated).
        self._succ: dict[int, tuple[tuple[tuple[int, int, int], ...], int]] = {}

        # Concrete-side memo layers.
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

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_ir(cls, ir: ProtocolIR) -> "CompiledProtocol":
        """Compile an IR document directly."""
        return cls(ir)

    @classmethod
    def from_spec(cls, spec) -> "CompiledProtocol":
        """Compile a live spec (lowering it first if needed), cached."""
        return compile_protocol(spec)

    # ------------------------------------------------------------------
    # Intern table and decoding
    # ------------------------------------------------------------------
    def intern(self, key: tuple) -> int:
        """Hash-cons a packed symbolic state; returns its id.

        On a miss the state is decoded and consistency-checked *before*
        registration (mirroring the interpreter, which validates every
        successor at construction time), so inconsistent states are
        never interned and the raise happens at the same point of the
        exploration.

        Concurrent campaigns of ``repro serve`` share one instance, so a
        miss registers under a lock and publishes the id last: an id
        read from the table always indexes every per-id list.
        """
        sid = self._ids.get(key)
        if sid is not None:
            self.intern_hits += 1
            return sid
        self.intern_misses += 1
        state = self._decode(key)
        state.check_consistent(self.invalid_name)
        labels, required = _signature(key, self._group_base)
        with self._intern_lock:
            sid = self._ids.get(key)
            if sid is None:
                sid = len(self._keys)
                self._keys.append(key)
                self._decoded.append(state)
                self.label_masks.append(labels)
                self.required_masks.append(required)
                self._ids[key] = sid
        return sid

    def decoded(self, sid: int) -> CompositeState:
        """The (identity-cached) :class:`CompositeState` of an id."""
        return self._decoded[sid]

    def _decode(self, key: tuple) -> CompositeState:
        classes, shc, md = key
        labels = self._labels
        decoded = []
        for c in classes:
            lcode = c >> 2
            label = labels.get(lcode)
            if label is None:
                label = labels[lcode] = Label(
                    self._states[self._sid_by_rank[lcode >> 2]],
                    _DATA_BY_CODE[lcode & 3],
                )
            decoded.append((label, _REP_BY_CODE[c & 3]))
        # The packed classes are already canonically ordered (sorted
        # ints sort by lcode first, and lcodes order exactly like
        # Label.sort_key), so the raw constructor is safe here.
        return CompositeState(
            classes=tuple(decoded),
            sharing=_SHARING_BY_CODE[shc],
            mdata=_DATA_BY_CODE[md],
        )

    def encode(self, state: CompositeState) -> tuple:
        """Pack a :class:`CompositeState` (test helper / entry point)."""
        rank = self._rank
        ir = self.ir
        classes = tuple(
            sorted(
                ((rank[ir.state_id(lbl.symbol)] * 4 + _DATA_CODE[lbl.data]) << 2)
                | _REP_CODE[rep]
                for lbl, rep in state.classes
            )
        )
        return (
            classes,
            _SHARING_CODE[state.sharing],
            _DATA_CODE[state.mdata],
        )

    def initial_id(self, augmented: bool) -> int:
        """Interned ``(Invalid+)`` initial state (Figure 3, line 1)."""
        dcode = _DATA_CODE[DataValue.NODATA] if augmented else 0
        cls = ((self._inv_rank * 4 + dcode) << 2) | _REP_CODE[Rep.PLUS]
        return self.intern(
            (
                (cls,),
                _SHARING_CODE[SharingLevel.NONE] if self.sharing else 0,
                _DATA_CODE[DataValue.FRESH] if augmented else 0,
            )
        )

    # ------------------------------------------------------------------
    # Containment lattice (Definition 9), memoized per id pair
    # ------------------------------------------------------------------
    def contains_ids(self, small: int, big: int) -> bool:
        """``decoded(small) ⊆_F decoded(big)``, as a memo lookup.

        The memo keeps one byte row per ``small``, indexed by ``big``
        (0 unknown, 1 no, 2 yes): one byte per compared pair instead of
        a tuple key and a dict slot.
        """
        row = self._contains.get(small)
        if row is None:
            row = self._contains[small] = bytearray(len(self._keys))
        elif big >= len(row):
            row.extend(bytes(len(self._keys) - len(row)))
        else:
            known = row[big]
            if known:
                self.containment_hits += 1
                return known == 2
        self.containment_misses += 1
        ka = self._keys[small]
        kb = self._keys[big]
        outcome = (
            ka[1] == kb[1]
            and ka[2] == kb[2]
            and _covers_packed(ka[0], kb[0])
        )
        row[big] = 2 if outcome else 1
        return outcome

    # ------------------------------------------------------------------
    # Violations (error patterns + Definition 3), memoized per id
    # ------------------------------------------------------------------
    def violations_of(self, sid: int) -> tuple[Violation, ...]:
        """All violations exhibited by one interned symbolic state."""
        cached = self._violations.get(sid)
        if cached is not None:
            return cached
        classes, _shc, md = self._keys[sid]
        state = self._decoded[sid]
        found: list[Violation] = []
        for pat in self._sym_patterns:
            kind = pat[0]
            if kind == "multiple":
                _lo, hi = self._rank_interval(classes, pat[1])
                bad = hi is None or hi >= 2
            elif kind == "together":
                _alo, ahi = self._rank_interval(classes, pat[1])
                _blo, bhi = self._rank_interval(classes, pat[2])
                bad = (ahi is None or ahi >= 1) and (bhi is None or bhi >= 1)
            else:  # "state"
                _lo, hi = self._rank_interval(classes, pat[1])
                bad = hi is None or hi >= 1
            if bad:
                found.append(
                    Violation(ErrorKind.INCOMPATIBLE_STATES, pat[-1], state)
                )
        if md:
            inv_rank = self._inv_rank
            fresh = md == 1
            for c in classes:
                lcode = c >> 2
                rank = lcode >> 2
                d = lcode & 3
                if rank == inv_rank or d == 0:
                    continue
                if d == 3:
                    found.append(
                        Violation(
                            ErrorKind.READABLE_OBSOLETE,
                            self._obsolete_msg[self._sid_by_rank[rank]],
                            state,
                        )
                    )
                elif d == 1 and c & 3 in (1, 2):
                    # FRESH with min_count >= 1 (operators 1 and +).
                    fresh = True
            if not fresh:
                found.append(
                    Violation(
                        ErrorKind.VALUE_LOST,
                        "the most recently written value survives nowhere",
                        state,
                    )
                )
        result = tuple(found)
        self._violations[sid] = result
        return result

    @staticmethod
    def _rank_interval(
        classes: tuple[int, ...], rank: int
    ) -> tuple[int, int | None]:
        """Count interval of one state rank (sums same-rank classes)."""
        lo = 0
        hi: int | None = 0
        for c in classes:
            if c >> 4 == rank:
                code = c & 3
                lo += _REP_LO[code]
                hi = _add_hi(hi, _REP_HI[code])
        return lo, hi

    # ------------------------------------------------------------------
    # Transition labels
    # ------------------------------------------------------------------
    def transition_label(self, opid: int, sid: int) -> TransitionLabel:
        """The interpreter-identical :class:`TransitionLabel` object."""
        key = opid * self._S + sid
        label = self._tlabels.get(key)
        if label is None:
            label = self._tlabels[key] = TransitionLabel(
                self._op_objs[opid], self._states[sid]
            )
        return label

    def label_str(self, opid: int, sid: int) -> str:
        """Rendered label, e.g. ``W_shared`` (cached)."""
        key = opid * self._S + sid
        text = self._tlabel_strs.get(key)
        if text is None:
            text = self._tlabel_strs[key] = str(self.transition_label(opid, sid))
        return text

    # ------------------------------------------------------------------
    # Decision table: (sid, opid, present-mask) -> flat reaction entry
    # ------------------------------------------------------------------
    def _entry(self, sid: int, opid: int, mask: int) -> tuple:
        """Resolved decision entry; tags: 0 full (ending in the declared
        observer moves), 1 stall, 2 error."""
        cell = self._select[sid * self._O + opid]
        entry = cell.get(mask)
        if entry is None:
            entry = cell[mask] = self._resolve(sid, opid, mask)
        return entry

    def _resolve(self, sid: int, opid: int, mask: int) -> tuple:
        """First-match-wins guard evaluation, fully materialized.

        Errors (a ``raises`` entry too) are stored as lazy ``(2,
        exc_class, message)`` entries and raised by the caller, so a
        poisoned (state, op, context) triple raises at the same
        exploration step as the interpreter, every time it is reached.
        """
        states = self._states
        for any_flag, none_flag, has_mask, nothas_mask, action in self._rules[
            sid * self._O + opid
        ]:
            if any_flag and not mask:
                continue
            if none_flag and mask:
                continue
            if has_mask & mask != has_mask:
                continue
            if nothas_mask & mask:
                continue
            if action.raises is not None:
                present = sorted(states[s] for s in range(self._S) if mask >> s & 1)
                return (
                    2,
                    ProtocolDefinitionError,
                    f"{self.name}: react({states[sid]}, {self._ops[opid]}, "
                    f"present={present}) raised {action.raises}",
                )
            if action.stalled:
                return (1,)
            load_kind = 0
            load_sid = -1
            if action.load is not None:
                kind, candidates = action.load
                if kind == "memory":
                    load_kind = 1
                else:
                    for candidate in candidates:
                        if mask >> candidate & 1:
                            load_kind = 2
                            load_sid = candidate
                            break
                    else:
                        names = "|".join(states[c] for c in candidates)
                        return (
                            2,
                            ProtocolDefinitionError,
                            f"{self.name}: transition loads from cache:{names}"
                            " but no such copy exists in this context",
                        )
            if action.writeback is None:
                wb_kind, wb_sid = 0, -1
            elif action.writeback == SELF:
                wb_kind, wb_sid = 1, -1
            else:
                wb_kind, wb_sid = 2, action.writeback
            obs_next = list(range(self._S))
            obs_upd = [False] * self._S
            for obs, nxt, updated in action.observers:
                obs_next[obs] = nxt
                obs_upd[obs] = updated
            # The declared observer moves by name: what liveness edges
            # are keyed and ordered by.
            moves = tuple(
                sorted((states[obs], states[nxt]) for obs, nxt, _ in action.observers)
            )
            return (
                0,
                action.next_state,
                action.next_state == self._inv,
                load_kind,
                load_sid,
                wb_kind,
                wb_sid,
                action.write_through,
                tuple(obs_next),
                tuple(obs_upd),
                moves,
            )
        present = sorted(states[s] for s in range(self._S) if mask >> s & 1)
        return (
            2,
            ProtocolDefinitionError,
            f"{self.name}: no IR transition matches ({states[sid]}, "
            f"{self._ops[opid]}, present={present})",
        )

    # ------------------------------------------------------------------
    # Symbolic successors, memoized per id
    # ------------------------------------------------------------------
    def successors(self, sid: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """All one-operation successors of one interned state.

        Returns ``(entries, scenarios)`` where each entry is
        ``(opid, initiator_sid, target_id)`` in the interpreter's
        emission order and ``scenarios`` is the number of scenario
        case-splits computing them takes -- memoized with the entries,
        so a warm run reports the interpreter's count too.

        Memoizing whole successor lists is sound because the explore
        loop expands each id at most once per run: under containment
        pruning, transitivity keeps superseded states covered, and
        under duplicates pruning the visited set only grows.
        """
        cached = self._succ.get(sid)
        if cached is None:
            cached = self._succ[sid] = self._compute_successors(sid)
        return cached

    def _compute_successors(
        self, src_id: int
    ) -> tuple[tuple[tuple[int, int, int], ...], int]:
        md = self._keys[src_id][2]
        results: dict[tuple[int, int, int], None] = {}
        count = [0]
        for opid, init_sid, init_d, entry, env, caselist in self._scenarios(
            src_id, count
        ):
            if entry[0] == 1:
                # A stall leaves the state unchanged: a self-loop.
                targets: list[int] | tuple[int] = (src_id,)
            else:
                targets = self._targets(opid, init_d, entry, env, caselist, md)
            for target in targets:
                key = (opid, init_sid, target)
                if key not in results:
                    results[key] = None
        return tuple(results), count[0]

    def reaction_facts(
        self, src_id: int
    ) -> tuple[
        set[tuple[int, int]],
        set[tuple[int, int]],
        tuple[tuple[int, int, int, tuple[tuple[str, str], ...]], ...],
    ]:
        """What the liveness pass reads off one interned state.

        Returns ``(stalls, serves, steps)``: the ``(initiator_sid,
        opid)`` cells some scenario refuses and some scenario
        completes, and every distinct non-stalled step as ``(opid,
        initiator_sid, target_id, moves)``, where ``moves`` are the
        outcome's declared observer moves as sorted ``(state, next)``
        names (undeclared observers stay put).  The same scenario walk
        as :meth:`successors`, so it raises where that does; not
        memoized (liveness reads each essential state once).
        """
        md = self._keys[src_id][2]
        stalls: set[tuple[int, int]] = set()
        serves: set[tuple[int, int]] = set()
        steps: dict[tuple[int, int, int, tuple[tuple[str, str], ...]], None] = {}
        for opid, init_sid, init_d, entry, env, caselist in self._scenarios(
            src_id, [0]
        ):
            cell = (init_sid, opid)
            if entry[0] == 1:
                stalls.add(cell)
                continue
            serves.add(cell)
            moves = entry[10]
            for target in self._targets(opid, init_d, entry, env, caselist, md):
                steps[(opid, init_sid, target, moves)] = None
        return stalls, serves, tuple(steps)

    def offclass_request(
        self, src_id: int, sym_sid: int, opid: int
    ) -> tuple[bool, bool]:
        """``(can_stall, can_serve)`` for a cache in *sym_sid* posing
        *opid* at a state where *sym_sid* labels no class.

        The liveness product follows a blocked cache whose class
        covering merged away.  A valid symbol that labels no class has
        no cache to pose the request, and an inapplicable operation
        cannot be posed: both are moot ``(False, False)``.  An invalid
        cache is re-posed with the whole state as its environment (no
        class loses a member), a sound over-approximation of what an
        extra invalid cache can observe.
        """
        if sym_sid != self._inv or not self._applm[sym_sid] >> opid & 1:
            return False, False
        classes, shc, _md = self._keys[src_id]
        can_stall = can_serve = False
        for _caselist, mask in self._conditionings(list(classes), 0, shc)[1]:
            entry = self._entry(sym_sid, opid, mask)
            if entry[0] == 2:
                raise entry[1](entry[2])
            if entry[0] == 1:
                can_stall = True
            else:
                can_serve = True
        return can_stall, can_serve

    def _conditionings(
        self, env: list[int], init_copy: int, shc: int
    ) -> tuple[int, list[tuple[list[int], int]]]:
        """Scenario case-splits of one environment.

        Returns the number of splits and, for each one consistent with
        the state's sharing level (*init_copy* copies held by the
        initiator), ``(caselist, present mask)``: one case code per
        ``env`` position (-1 for invalid classes, which are never
        split) and the bitmask of states with a present copy.
        """
        inv_rank = self._inv_rank
        sid_by_rank = self._sid_by_rank
        sh_flag = 1 if self.sharing else 0
        sh_interval = _SH_INTERVAL[shc]
        valid_pos = [pos for pos, c in enumerate(env) if c >> 4 != inv_rank]
        options = [_CASES[(env[pos] & 3) * 2 + sh_flag] for pos in valid_pos]
        splits = 1
        for option in options:
            splits *= len(option)
        consistent: list[tuple[list[int], int]] = []
        for combo in itertools.product(*options):
            if sh_interval is not None:
                pre_lo = init_copy
                pre_hi: int | None = init_copy
                for case in combo:
                    pre_lo += _CASE_LO[case]
                    pre_hi = _add_hi(pre_hi, _CASE_HI[case])
                slo, shi = sh_interval
                lo = pre_lo if pre_lo > slo else slo
                if pre_hi is None:
                    ok = shi is None or shi >= lo
                elif shi is None:
                    ok = pre_hi >= lo
                else:
                    ok = min(pre_hi, shi) >= lo
                if not ok:
                    continue
            caselist = [-1] * len(env)
            mask = 0
            for pos, case in zip(valid_pos, combo):
                caselist[pos] = case
                if case:
                    mask |= 1 << sid_by_rank[env[pos] >> 4]
            consistent.append((caselist, mask))
        return splits, consistent

    def _scenarios(
        self, src_id: int, count: list[int]
    ) -> Iterator[tuple[int, int, int, tuple, list[int], list[int]]]:
        """The scenario walk of one interned state.

        Yields ``(opid, initiator_sid, initiator_dcode, entry, env,
        caselist)`` for every consistent scenario, in the
        interpreter's order (``SymbolicExpander.reaction_events``):
        initiator classes in state order, operations in specification
        order, case splits in product order.  ``env`` is the state's
        class list with one member split off the initiator's class
        (``1->0``, ``+->*``, ``*->*``) and ``entry`` the resolved
        decision entry (tag 0 full or 1 stall); an error entry raises
        when its scenario is reached.  ``count[0]`` grows by every case
        split considered, consistent or not.
        """
        classes, shc, _md = self._keys[src_id]
        inv_rank = self._inv_rank
        for idx, cls in enumerate(classes):
            rank = cls >> 4
            init_sid = self._sid_by_rank[rank]
            opids = self._opids[init_sid]
            if not opids:
                continue
            new_rep = _REMOVE1[cls & 3]
            env: list[int] = []
            for i, c in enumerate(classes):
                if i == idx:
                    if new_rep:
                        env.append((c & ~3) | new_rep)
                else:
                    env.append(c)
            splits, conditionings = self._conditionings(
                env, 0 if rank == inv_rank else 1, shc
            )
            init_d = (cls >> 2) & 3
            for opid in opids:
                count[0] += splits
                for caselist, mask in conditionings:
                    entry = self._entry(init_sid, opid, mask)
                    if entry[0] == 2:
                        raise entry[1](entry[2])
                    yield opid, init_sid, init_d, entry, env, caselist

    def _present_values(
        self, env: list[int], caselist: list[int], sym_sid: int
    ) -> list[int]:
        """Distinct dcodes of present classes of one symbol, in order."""
        want = self._rank[sym_sid]
        values: list[int] = []
        for pos, c in enumerate(env):
            if caselist[pos] <= 0:
                continue
            if c >> 4 == want:
                d = (c >> 2) & 3
                if d not in values:
                    values.append(d)
        if not values:
            raise ExpansionSemanticsError(
                f"no present {self._states[sym_sid]} class to supply data "
                "(spec/ctx mismatch)"
            )
        return values

    def _targets(
        self,
        opid: int,
        init_d: int,
        entry: tuple,
        env: list[int],
        caselist: list[int],
        md: int,
    ) -> list[int]:
        """Assemble and intern the successors of one full scenario.

        Mirrors ``SymbolicExpander._build_successors``: one successor
        per write-back/load data-source choice, write-back choices in
        the outer loop, and both choice lists computed before the
        product so a spec/ctx mismatch raises before any successor is
        emitted.  Returns the target ids in that order.
        """
        (
            _tag, next_sid, becomes_invalid, load_kind, load_sid,
            wb_kind, wb_sid, write_through, obs_next, obs_upd, _moves,
        ) = entry
        aug = md != 0
        store = self._is_store[opid]
        inv = self._inv
        inv_rank = self._inv_rank
        rank_of = self._rank
        sid_by_rank = self._sid_by_rank

        if not aug or wb_kind == 0:
            wb_choices: tuple[int, ...] = (-1,)
        elif wb_kind == 1:
            wb_choices = (init_d,)
        else:
            wb_choices = tuple(self._present_values(env, caselist, wb_sid))

        if not aug or load_kind == 0:
            load_choices: tuple[tuple[int, int], ...] = ((0, -1),)
        elif load_kind == 1:
            load_choices = ((1, -1),)
        else:
            load_choices = tuple(
                (2, v) for v in self._present_values(env, caselist, load_sid)
            )

        targets: list[int] = []
        for wb_value in wb_choices:
            for lk, load_data in load_choices:
                if aug:
                    if wb_value == -1:
                        mdata1 = md
                    elif wb_value == 2:
                        raise ValueError(
                            "cannot write back a copy that holds no data"
                        )
                    else:
                        mdata1 = wb_value
                    if lk == 1:
                        load_value = mdata1
                    elif lk == 2:
                        load_value = load_data
                    else:
                        load_value = -1
                    if becomes_invalid:
                        init_data = 2
                    else:
                        value = init_d if load_value == -1 else load_value
                        if store:
                            init_data = 1
                        elif value == 2:
                            raise ValueError(
                                "initiator ends in a valid state without data"
                            )
                        else:
                            init_data = value
                else:
                    mdata1 = 0
                    init_data = 0

                pieces: list[int] = [
                    ((rank_of[next_sid] * 4 + init_data) << 2) | 1
                ]
                post_lo = 0 if becomes_invalid else 1
                post_hi: int | None = post_lo
                for pos, c in enumerate(env):
                    crank = c >> 4
                    if crank == inv_rank:
                        pieces.append(c)
                        continue
                    case = caselist[pos]
                    if case == 0:
                        continue
                    obs_sid = sid_by_rank[crank]
                    nxt = obs_next[obs_sid]
                    obs_invalid = nxt == inv
                    if aug:
                        old = (c >> 2) & 3
                        if obs_invalid:
                            new_d = 2
                        elif old == 2:
                            raise ValueError(
                                "a valid observer copy cannot hold nodata"
                            )
                        elif store:
                            if obs_upd[obs_sid]:
                                new_d = 1
                            else:
                                new_d = 3 if old == 1 else old
                        else:
                            new_d = old
                    else:
                        new_d = 0
                    pieces.append(
                        ((rank_of[nxt] * 4 + new_d) << 2) | _COND_REP[case]
                    )
                    if not obs_invalid:
                        post_lo += _CASE_LO[case]
                        post_hi = _add_hi(post_hi, _CASE_HI[case])

                if aug:
                    mdata2 = (1 if write_through else 3) if store else mdata1
                else:
                    mdata2 = 0
                if self.sharing:
                    if post_hi == 0:
                        sh2 = 1
                    elif post_lo == 1 and post_hi == 1:
                        sh2 = 2
                    elif post_lo >= 2:
                        sh2 = 3
                    else:
                        raise ExpansionSemanticsError(
                            "ambiguous post-transition copy count "
                            f"{(post_lo, post_hi)}; scenario splitting failed "
                            "to make the sharing level definite"
                        )
                else:
                    sh2 = 0

                # make_state mirror: merge same-label pieces with the
                # aggregation table, drop ZERO first-pieces, sort.
                merged: dict[int, int] = {}
                for piece in pieces:
                    lcode = piece >> 2
                    rep = piece & 3
                    prev = merged.get(lcode)
                    if prev is not None:
                        merged[lcode] = _AGG16[(prev << 2) | rep]
                    elif rep:
                        merged[lcode] = rep
                target_classes = tuple(
                    sorted((lcode << 2) | rep for lcode, rep in merged.items())
                )
                targets.append(self.intern((target_classes, sh2, mdata2)))
        return targets

    # ------------------------------------------------------------------
    # Concrete (product-machine) side
    # ------------------------------------------------------------------
    @property
    def op_count(self) -> int:
        """Number of operations in the protocol alphabet."""
        return self._O

    @property
    def state_count(self) -> int:
        """Number of FSM states."""
        return self._S

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
            from ..enumeration.product import ConcreteState

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


# ----------------------------------------------------------------------
# Compilation cache
# ----------------------------------------------------------------------
#: spec object -> CompiledProtocol (fast path) for the newest
#: _CACHE_LIMIT specs: weak so specs can die, and bounded so a caller
#: that keeps many specs alive (a perturbation sweep's job list) does
#: not keep all their kernels.
_BY_SPEC: "WeakKeyDictionary" = WeakKeyDictionary()
#: IR fingerprint -> CompiledProtocol, LRU-bounded.  Kept small: a
#: long-lived process (``repro serve``) verifies a stream of distinct
#: specs, and each compile holds its memo layers (up to ~2 MB for a
#: zoo mutant); reuse only pays off for the same spec run back to back.
_BY_FP: "OrderedDict[str, CompiledProtocol]" = OrderedDict()
_CACHE_LIMIT = 8
_CACHE_LOCK = threading.Lock()  # concurrent `repro serve` campaigns


def compile_protocol(spec, guard=None) -> CompiledProtocol:
    """Compile a spec (or raw :class:`ProtocolIR`) with caching.

    Lookup order: per-object weak cache, then the fingerprint-keyed LRU
    (so re-lowering an identical spec reuses all memo layers).  Raises
    :class:`~repro.ir.model.IRError` when ``guard`` (polled once per
    lowering probe) trips first -- nothing is cached then -- or when
    the IR is malformed.
    """
    try:
        cached = _BY_SPEC.get(spec)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    from ..ir.lower import lower

    ir = spec if isinstance(spec, ProtocolIR) else lower(spec, guard)
    fingerprint = ir.fingerprint()
    with _CACHE_LOCK:
        compiled = _BY_FP.get(fingerprint)
        if compiled is None:
            compiled = CompiledProtocol(ir)
            _BY_FP[fingerprint] = compiled
            if len(_BY_FP) > _CACHE_LIMIT:
                _BY_FP.popitem(last=False)
        else:
            _BY_FP.move_to_end(fingerprint)
        try:
            _BY_SPEC[spec] = compiled
        except TypeError:
            return compiled
        if len(_BY_SPEC) > _CACHE_LIMIT:
            del _BY_SPEC[next(iter(_BY_SPEC))]
    return compiled
