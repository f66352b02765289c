"""Symbolic successor generation (paper Section 3.2.3).

Given a composite state, this module produces every composite state
reachable in one protocol operation.  The paper's expansion rules are
realized as follows:

* **Coincident transitions** (rule 2): every observer class reacts as a
  whole to the initiator's bus transaction, keeping its (conditioned)
  repetition operator.
* **One-step transitions** (rule 3): the initiator is split off its
  class (``1 → 0``, ``+ → *``, ``* → *``) and contributes a fresh
  singleton piece; aggregation re-merges pieces landing on the same
  class.
* **N-steps transitions** (rule 4): emerge from iterating single steps
  under containment pruning -- each intermediate state of an N-steps
  chain is contained in the chain's source or produces the terminal
  state in one further step (see DESIGN.md §4).

Because ``+``/``*`` operators leave the concrete class size ambiguous,
each expansion *case-splits* the environment into **scenarios**: every
ambiguous valid class is conditioned to a definite
:class:`~repro.core.symbols.CountCase`, filtered for consistency against
the state's sharing annotation.  This keeps the initiator's view
(:class:`~repro.core.reactions.Ctx`) and the successor's sharing level
definite, which is what lets containment (Definition 9) compare
characteristic-function values exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .composite import CompositeState, Label, make_state
from .operators import (
    Interval,
    Rep,
    conditioned_rep,
    count_cases,
    interval_sum,
    remove_one,
)
from .protocol import ProtocolSpec
from .reactions import Ctx, INITIATOR, Outcome
from .semantics import (
    initiator_data_after,
    is_store,
    memory_after_store,
    memory_after_writeback,
    observer_data_after,
)
from .symbols import CountCase, DataValue, Op, SharingLevel

__all__ = [
    "TransitionLabel",
    "SymbolicTransition",
    "ReactionEvent",
    "SymbolicExpander",
    "ExpansionSemanticsError",
]


class ExpansionSemanticsError(Exception):
    """The expansion produced a state the abstraction cannot classify."""


@dataclass(frozen=True)
class TransitionLabel:
    """Label of a global transition, e.g. ``W_shared``.

    Matches the paper's Figure 4 notation: the operation letter with the
    initiator's pre-transition state as a subscript.
    """

    op: Op
    initiator: str

    def __str__(self) -> str:
        return f"{self.op.value}_{self.initiator.lower()}"


@dataclass(frozen=True)
class SymbolicTransition:
    """One edge of the global (symbolic) transition system."""

    source: CompositeState
    label: TransitionLabel
    target: CompositeState

    def __str__(self) -> str:
        return f"{self.source.pretty()} --{self.label}--> {self.target.pretty()}"


#: Environment representation: the source state minus one initiator.
_Env = tuple[tuple[Label, Rep], ...]


@dataclass(frozen=True)
class ReactionEvent:
    """One fully resolved reaction of a composite state.

    Where :meth:`SymbolicExpander.successors` collapses everything into
    labelled edges, an event keeps the pieces apart -- which initiator
    class reacted, under which observation context, with which
    :class:`~repro.core.reactions.Outcome` -- so analyses that need the
    *semantics* of a step (the liveness pass chief among them: who
    stalled, how observers move) can consume the expansion without
    re-deriving scenario splitting.  ``targets`` are the raw successor
    states (the source state itself for a stalled outcome).
    """

    initiator: str
    op: Op
    ctx: Ctx
    outcome: Outcome
    targets: tuple[CompositeState, ...]

    @property
    def label(self) -> TransitionLabel:
        """The global-transition label this event contributes to."""
        return TransitionLabel(self.op, self.initiator)


def _classify_interval(interval: Interval) -> CountCase:
    """Abstract an exact copy-count interval into a :class:`CountCase`."""
    lo, hi = interval
    if hi == 0:
        return CountCase.ZERO
    if lo == 1 and hi == 1:
        return CountCase.ONE
    if lo >= 2:
        return CountCase.MANY
    return CountCase.SOME


def _intervals_intersect(a: Interval, b: Interval) -> bool:
    """Whether two count intervals share at least one value."""
    lo = max(a[0], b[0])
    if a[1] is None:
        return b[1] is None or b[1] >= lo
    if b[1] is None:
        return a[1] >= lo
    return min(a[1], b[1]) >= lo


class SymbolicExpander:
    """Produces symbolic successors of composite states for one protocol.

    ``augmented=True`` (the default) tracks the ``cdata``/``mdata``
    context variables of Definition 4 alongside the structure, enabling
    the data-consistency check; ``augmented=False`` expands the bare
    structure, which is what Sections 3.1-3.2 of the paper analyse.
    """

    def __init__(self, spec: ProtocolSpec, *, augmented: bool = True) -> None:
        self.spec = spec
        self.augmented = augmented
        self.sharing = spec.uses_sharing_detection
        #: Number of scenario evaluations performed (instrumentation).
        self.scenarios_evaluated = 0

    # ------------------------------------------------------------------
    def initial_state(self) -> CompositeState:
        """The paper's initial state: every cache Invalid, memory fresh.

        Rendered ``(Invalid+)`` -- an arbitrary positive number of caches,
        none holding a copy.
        """
        data = DataValue.NODATA if self.augmented else None
        return make_state(
            [(Label(self.spec.invalid, data), Rep.PLUS)],
            sharing=SharingLevel.NONE if self.sharing else None,
            mdata=DataValue.FRESH if self.augmented else None,
        )

    # ------------------------------------------------------------------
    def successors(self, state: CompositeState) -> list[SymbolicTransition]:
        """All one-operation symbolic successors of *state*.

        The targets of :meth:`reaction_events`, in its order, with
        duplicate ``(label, target)`` pairs collapsed.
        """
        results: dict[tuple[TransitionLabel, CompositeState], SymbolicTransition] = {}
        for event in self.reaction_events(state):
            label = event.label
            for succ in event.targets:
                key = (label, succ)
                if key not in results:
                    results[key] = SymbolicTransition(state, label, succ)
        return list(results.values())

    # ------------------------------------------------------------------
    def reaction_events(self, state: CompositeState) -> list[ReactionEvent]:
        """Every (initiator, operation, scenario) reaction of *state*.

        The deterministic flat scan behind :meth:`successors`: initiator
        classes in state order, operations in specification order,
        scenarios in case-split order.  Stalled outcomes are included
        (their ``targets`` is the unchanged source state), which is what
        the liveness analysis walks to find stall cycles.
        """
        events: list[ReactionEvent] = []
        for idx, (init_label, _init_rep) in enumerate(state.classes):
            init_sym = init_label.symbol
            for op in self.spec.operations:
                if not self.spec.applicable(init_sym, op):
                    continue
                env = self._remove_initiator(state.classes, idx)
                for cases in self._scenarios(state, init_sym, env):
                    ctx = self._make_ctx(env, cases)
                    outcome = self.spec.react(init_sym, op, ctx)
                    targets = tuple(
                        self._build_successors(
                            state, init_label, op, env, cases, outcome
                        )
                    )
                    events.append(
                        ReactionEvent(init_sym, op, ctx, outcome, targets)
                    )
        return events

    def observation_contexts(
        self, state: CompositeState, initiator: str
    ) -> list[Ctx]:
        """Every consistent context a cache in *initiator* sees at *state*.

        When *initiator* labels a class of *state* the cache is split
        off that class exactly as :meth:`successors` does; otherwise
        (the liveness product tracks a blocked cache whose symbol may
        have been merged away) the whole state is taken as the
        environment -- a sound over-approximation of what the extra
        cache can observe.
        """
        contexts: list[Ctx] = []
        seen: set[Ctx] = set()
        class_indices = [
            i
            for i, (label, _rep) in enumerate(state.classes)
            if label.symbol == initiator
        ] or [None]
        for idx in class_indices:
            env = (
                self._remove_initiator(state.classes, idx)
                if idx is not None
                else tuple(state.classes)
            )
            for cases in self._scenarios(state, initiator, env):
                ctx = self._make_ctx(env, cases)
                if ctx not in seen:
                    seen.add(ctx)
                    contexts.append(ctx)
        return contexts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _remove_initiator(
        classes: Sequence[tuple[Label, Rep]], idx: int
    ) -> _Env:
        """Split one member off class *idx* (``1→0``, ``+→*``, ``*→*``)."""
        env: list[tuple[Label, Rep]] = []
        for i, (label, rep) in enumerate(classes):
            new_rep = remove_one(rep) if i == idx else rep
            if new_rep is not Rep.ZERO:
                env.append((label, new_rep))
        return tuple(env)

    def _scenarios(
        self, state: CompositeState, init_sym: str, env: _Env
    ) -> Iterable[dict[int, CountCase]]:
        """Enumerate consistent conditionings of the ambiguous classes.

        Only classes in a valid (non-invalid) FSM state are split; the
        invalid class holds no copies and never influences guards or
        sharing levels.  In sharing-detection mode each candidate is
        filtered against the state's stored sharing level: the total
        pre-transition copy count (initiator included) must be
        achievable.
        """
        invalid = self.spec.invalid
        valid_idx = [i for i, (lbl, _) in enumerate(env) if lbl.symbol != invalid]
        options = [count_cases(env[i][1], sharing=self.sharing) for i in valid_idx]
        init_copy = 0 if init_sym == invalid else 1
        for combo in itertools.product(*options):
            self.scenarios_evaluated += 1
            cases = dict(zip(valid_idx, combo))
            if self.sharing:
                assert state.sharing is not None
                pre = interval_sum(
                    [(init_copy, init_copy)]
                    + [(c.min_count, c.max_count) for c in combo]
                )
                if not _intervals_intersect(pre, state.sharing.as_interval()):
                    continue
            yield cases

    def _make_ctx(self, env: _Env, cases: dict[int, CountCase]) -> Ctx:
        """Initiator's view of the other caches under one scenario."""
        present = frozenset(
            env[i][0].symbol for i, case in cases.items() if case.is_present
        )
        copies = _classify_interval(
            interval_sum((c.min_count, c.max_count) for c in cases.values())
        )
        return Ctx(present=present, copies=copies)

    def _present_data_values(
        self, env: _Env, cases: dict[int, CountCase], symbol: str
    ) -> list[DataValue | None]:
        """Distinct ``cdata`` values of present classes in *symbol*.

        Used to branch over the "arbitrarily chosen" supplying cache when
        several classes of the same FSM state carry different data (this
        only happens in buggy protocols, but the verifier must explore
        every choice).
        """
        values: dict[DataValue | None, None] = {}
        for i, case in cases.items():
            label = env[i][0]
            if label.symbol == symbol and case.is_present:
                values.setdefault(label.data)
        if not values:
            raise ExpansionSemanticsError(
                f"no present {symbol} class to supply data (spec/ctx mismatch)"
            )
        return list(values)

    def _build_successors(
        self,
        state: CompositeState,
        init_label: Label,
        op: Op,
        env: _Env,
        cases: dict[int, CountCase],
        outcome: Outcome,
    ) -> list[CompositeState]:
        """Assemble successor states for one (initiator, op, scenario).

        Returns one successor per distinct choice of write-back/load data
        source (a single successor for correct protocols).
        """
        spec = self.spec
        aug = self.augmented
        if outcome.stalled:
            # A refused operation leaves the global state untouched.
            return [state]
        store = is_store(op)
        becomes_invalid = outcome.next_state == spec.invalid

        # --- choices of the write-back data value -------------------------
        if not aug or outcome.writeback_from is None:
            wb_choices: list[DataValue | None] = [None]
        elif outcome.writeback_from == INITIATOR:
            wb_choices = [init_label.data]
        else:
            wb_choices = self._present_data_values(env, cases, outcome.writeback_from)

        # --- choices of the initiator's load value ------------------------
        # Encoded as ("none", None) / ("memory", None) / ("cache", value).
        if not aug or outcome.load_from is None:
            load_choices: list[tuple[str, DataValue | None]] = [("none", None)]
        elif outcome.load_from.kind == "memory":
            load_choices = [("memory", None)]
        else:
            load_choices = [
                ("cache", v)
                for v in self._present_data_values(
                    env, cases, outcome.load_from.symbol or ""
                )
            ]

        successors: list[CompositeState] = []
        for wb_value, (load_kind, load_data) in itertools.product(
            wb_choices, load_choices
        ):
            mdata1: DataValue | None = None
            init_data: DataValue | None = None
            if aug:
                assert state.mdata is not None
                mdata1 = memory_after_writeback(state.mdata, wb_value)
                if load_kind == "memory":
                    load_value: DataValue | None = mdata1
                elif load_kind == "cache":
                    load_value = load_data
                else:
                    load_value = None
                init_data = initiator_data_after(
                    init_label.data or DataValue.NODATA,
                    load_value,
                    store=store,
                    becomes_invalid=becomes_invalid,
                )

            pieces: list[tuple[Label, Rep]] = [
                (Label(outcome.next_state, init_data), Rep.ONE)
            ]
            post_copies: list[Interval] = [
                (0, 0) if becomes_invalid else (1, 1)
            ]
            for i, (label, rep) in enumerate(env):
                if label.symbol == spec.invalid:
                    pieces.append((label, rep))
                    continue
                case = cases[i]
                if case is CountCase.ZERO:
                    continue
                reaction = outcome.observer_for(label.symbol)
                obs_invalid = reaction.next_state == spec.invalid
                new_data = None
                if aug:
                    new_data = observer_data_after(
                        label.data or DataValue.NODATA,
                        becomes_invalid=obs_invalid,
                        updated=reaction.updated,
                        store=store,
                    )
                pieces.append(
                    (Label(reaction.next_state, new_data), conditioned_rep(case))
                )
                if not obs_invalid:
                    post_copies.append((case.min_count, case.max_count))

            mdata2 = (
                memory_after_store(
                    mdata1 if mdata1 is not None else DataValue.FRESH,
                    store=store,
                    write_through=outcome.write_through,
                )
                if aug
                else None
            )
            sharing = None
            if self.sharing:
                sharing = self._post_sharing(interval_sum(post_copies))
            succ = make_state(pieces, sharing=sharing, mdata=mdata2)
            succ.check_consistent(spec.invalid)
            if succ not in successors:
                successors.append(succ)
        return successors

    @staticmethod
    def _post_sharing(interval: Interval) -> SharingLevel:
        """Definite sharing level of a successor state.

        Scenario conditioning guarantees the post-transition copy count
        is exact or bounded below by two, so the classification is total
        for sharing-detection protocols.
        """
        case = _classify_interval(interval)
        if case is CountCase.SOME:
            raise ExpansionSemanticsError(
                f"ambiguous post-transition copy count {interval}; "
                "scenario splitting failed to make the sharing level definite"
            )
        return {
            CountCase.ZERO: SharingLevel.NONE,
            CountCase.ONE: SharingLevel.ONE,
            CountCase.MANY: SharingLevel.MANY,
        }[case]
