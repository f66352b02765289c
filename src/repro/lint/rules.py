"""The built-in rule set of the static protocol analyzer.

Each rule is a generator over :class:`~repro.lint.model.Diagnostic`
registered with :func:`~repro.lint.registry.rule`.  Rules operate on a
:class:`~repro.lint.context.LintContext` -- a probed, but never
expanded, view of one specification -- so a statically broken protocol
is diagnosed without paying for (or crashing) a symbolic verification.

Rule ids are stable: ``PL000`` is reserved for DSL parse errors (emitted
by the front end in :mod:`repro.lint.api`); ``PL001`` reads the
Definition 1 per-cache FSM and ``PL002``--``PL011`` (but PL004's
metadata checks and PL008) the probe table, both read off the lowered
guarded-action IR over every present-set a cache can observe;
``PL008`` and ``PL012``--``PL015`` are flow-sensitive: they consult the
abstract-reachability analysis over the same IR (:mod:`repro.lint.flow`).
Every IR-backed rule stays silent when lowering fails.  PL008 only
warns about stalls that are permanent under abstract reachability.
See ``docs/LINT.md`` for the full catalog with rationale and examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..core.errors import ForbidMultiple, ForbidTogether
from ..core.symbols import Op
from .context import LintContext, ProbeEntry
from .model import Diagnostic, Location, Severity
from .registry import rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flow import FlowAnalysis

__all__: list[str] = []


def _ctx_text(present: frozenset[str]) -> str:
    """Human rendering of an observation context."""
    return "{" + ", ".join(sorted(present)) + "}" if present else "{}"


# ----------------------------------------------------------------------
# Minimal triggering specifications (``repro lint --explain PLxxx``).
# Registry-only rules (PL004, PL007) have no DSL trigger and keep the
# empty default.
# ----------------------------------------------------------------------
_EX_UNREACHABLE = """\
protocol unreachable
states I S E
invalid I
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

_EX_SHADOWED = """\
protocol shadowed
states I S
invalid I
sharing-detection on
on I R if any -> S load memory
on I R if has(S) -> S load cache:S ; S => S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

_EX_HOLE = """\
protocol hole
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W if any -> S writethrough ; all => I
on S Z -> I
"""

_EX_NOWIRE = """\
protocol nowire
states I S
invalid I
sharing-detection off
on I R if any -> S load memory
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

_EX_BROKEN_SUPPLIER = """\
protocol broken-supplier
states I S D
invalid I
on I R -> S load cache:D
on I W -> D load memory ; all => I
on S R -> S
on S W -> D ; all => I
on S Z -> I
on D R -> D
on D W -> D
on D Z -> I writeback self
"""

_EX_DEADLOCK = """\
protocol deadlock
operations R W Z L
states I S
invalid I
on I R -> S load memory
on I W -> S load memory
on I L -> stall
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
on S L -> stall
"""

_EX_POINTLESS_GUARD = """\
protocol pointless-guard
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory
on S R if any -> S
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

_EX_DEAD_RULE = """\
protocol deadrule
states I S
invalid I
restrict W only-from S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

_EX_WIRE_UNUSED = """\
protocol wire-unused
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

#: State E is probe-reachable (the singleton context {E} selects the
#: guarded fill), but no abstractly reachable configuration ever
#: contains E, so its rules are dead and the has(E) guard vacuous.
_EX_FLOW_DEAD = """\
protocol flowdead
states I S E
invalid I
on I R if has(E) -> E load cache:E
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
on E R -> E
on E W -> E
on E Z -> I
"""

#: A silent write hit while sibling copies provably coexist.
_EX_RACEY = """\
protocol racey
states I V
invalid I
on I R -> V load memory
on I W -> V load memory
on V R -> V
on V W -> V
on V Z -> I
"""

_EX_VACUOUS = """\
protocol vacuous
states I S
invalid I
sharing-detection on
on I R if any & none -> S load memory
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""


# ----------------------------------------------------------------------
# PL001 -- unreachable state
# ----------------------------------------------------------------------
@rule("PL001", Severity.ERROR, "unreachable-state",
      "state has no transition or reaction path from the invalid state",
      example=_EX_UNREACHABLE)
def check_unreachable_state(ctx: LintContext) -> Iterator[Diagnostic]:
    """A state no cache can ever enter.

    Every cache starts with no copy (the invalid state, paper Section
    2.1); a state with no initiator-transition or observer-reaction path
    from it is dead weight -- usually a transcription error in the
    transition table.  Reachability is computed over the Definition 1
    FSM (:func:`repro.analysis.fsm.local_fsm`, the graph ``repro fsm``
    checks): initiator edges of non-stalled outcomes plus observer
    edges whose observer is present in the context.
    """
    fsm = ctx.fsm
    if fsm is None:
        return
    dead = fsm.dead_states()
    for state in ctx.spec.states:
        if state in dead:
            yield ctx.diag(
                "PL001",
                Severity.ERROR,
                f"state {state!r} is unreachable from the invalid state "
                f"{ctx.spec.invalid!r} (no transition or observer reaction "
                "enters it)",
                ctx.directive_location("states"),
            )


# ----------------------------------------------------------------------
# PL002 -- shadowed guard (DSL only)
# ----------------------------------------------------------------------
@rule("PL002", Severity.WARNING, "shadowed-guard",
      "an earlier rule matches every context this rule could match",
      example=_EX_SHADOWED)
def check_shadowed_guard(ctx: LintContext) -> Iterator[Diagnostic]:
    """A DSL rule that first-match-wins order makes unselectable.

    Guards are evaluated in declaration order; if every present-set
    that satisfies a rule's guard is already claimed by an earlier rule
    of the same ``(state, op)``, the later rule is dead -- typically a
    mis-ordered ``if any`` before an ``if has(...)``.  The probe table
    covers every present-set, so a rule it never selects is
    unselectable in any context.  Rules excluded from the alphabet or
    by ``restrict`` are PL010's business, not this rule's.
    """
    if ctx.dsl is None:
        return
    selected = {e.rule_index for e in ctx.probes if e.rule_index is not None}
    for index, dsl_rule in enumerate(ctx.dsl._rules):
        if index in selected:
            continue
        if dsl_rule.op not in ctx.spec.operations:
            continue  # PL010
        if not ctx.spec.applicable(dsl_rule.state, dsl_rule.op):
            continue  # PL010
        earlier = [
            r.line_no
            for r in ctx.dsl._rules[:index]
            if r.state == dsl_rule.state and r.op is dsl_rule.op
        ]
        detail = (
            f" (earlier rule{'s' if len(earlier) > 1 else ''} at line"
            f"{'s' if len(earlier) > 1 else ''} "
            f"{', '.join(map(str, earlier))} match first)"
            if earlier
            else ""
        )
        yield ctx.diag(
            "PL002",
            Severity.WARNING,
            f"rule 'on {dsl_rule.state} {dsl_rule.op.value}"
            f"{' if ' + dsl_rule.guard.text if dsl_rule.guard.atoms else ''}' "
            f"is never selected{detail}",
            ctx.rule_location(index),
        )


# ----------------------------------------------------------------------
# PL003 -- non-exhaustive operation
# ----------------------------------------------------------------------
@rule("PL003", Severity.ERROR, "non-exhaustive-op",
      "an applicable (state, operation) pair has no behaviour in some context",
      example=_EX_HOLE)
def check_non_exhaustive(ctx: LintContext) -> Iterator[Diagnostic]:
    """A hole in the transition function.

    The paper's Definition 1 makes the per-cache FSM total over its
    alphabet: every valid state must answer every applicable operation
    in every observation context (completing it or stalling).  A probed
    cell with no matching DSL rule means verification would crash
    mid-expansion.  A registry ``react`` that raises is reported only
    in a context the flow analysis reaches: a ``react`` may reject a
    present-set no reachable state produces, and expansion never
    selects that entry.
    """
    seen: set[tuple[str, Op]] = set()
    for entry in ctx.probes:
        if entry.matched or (entry.state, entry.op) in seen:
            continue
        if entry.error is not None:
            if not _flow_reaches(ctx.flow, entry):
                continue
            message = (
                f"react({entry.state}, {entry.op.value}) raised in context "
                f"{_ctx_text(entry.ctx.present)}: {entry.error}"
            )
        else:
            message = (
                f"no rule covers ({entry.state}, {entry.op.value}) in context "
                f"{_ctx_text(entry.ctx.present)} (add a rule or a 'stall')"
            )
        seen.add((entry.state, entry.op))
        location = ctx.symbolic(f"react({entry.state}, {entry.op.value})")
        if ctx.dsl is not None:
            near = ctx.dsl.rules_for(entry.state, entry.op)
            if near:
                location = ctx.rule_location(ctx.dsl._rules.index(near[-1]))
        yield ctx.diag("PL003", Severity.ERROR, message, location)


def _flow_reaches(flow: "FlowAnalysis | None", entry: ProbeEntry) -> bool:
    """Whether a reachable abstract configuration observes *entry*'s
    context at its cell (no flow analysis: no)."""
    if flow is None:
        return False
    ir = flow.ir
    present = frozenset(ir.state_id(s) for s in entry.ctx.present)
    return present in flow.contexts_for(ir.state_id(entry.state), ir.op_id(entry.op))


# ----------------------------------------------------------------------
# PL004 -- unknown state reference
# ----------------------------------------------------------------------
@rule("PL004", Severity.ERROR, "unknown-state-ref",
      "a declaration references a state symbol that is not in Q")
def check_unknown_state_ref(ctx: LintContext) -> Iterator[Diagnostic]:
    """Declarative metadata naming states outside the FSM's alphabet.

    Covers duplicate state symbols, an invalid state missing from Q,
    ``forbid``/``owners``/``exclusive``/``shared-fill``/``restrict``
    entries naming unknown states, and a ``react`` outcome naming one
    (next state, supplier, write-back or observer), which fails IR
    lowering.  The DSL parser rejects most of these up front; the rule
    is the registry-spec equivalent (and a safety net for hand-built
    ``ProtocolSpec`` objects).
    """
    spec = ctx.spec
    if ctx.lowering_error is not None:
        yield ctx.diag(
            "PL004", Severity.ERROR, ctx.lowering_error, ctx.symbolic("react")
        )
    states = set(spec.states)
    if len(states) != len(spec.states):
        duplicates = sorted(
            {s for s in spec.states if spec.states.count(s) > 1}
        )
        yield ctx.diag(
            "PL004",
            Severity.ERROR,
            f"duplicate state symbol{'s' if len(duplicates) > 1 else ''}: "
            f"{', '.join(duplicates)}",
            ctx.directive_location("states"),
        )
    if spec.invalid not in states:
        yield ctx.diag(
            "PL004",
            Severity.ERROR,
            f"invalid state {spec.invalid!r} is not among the declared states",
            ctx.directive_location("invalid"),
        )
    for index, pattern in enumerate(spec.error_patterns):
        if isinstance(pattern, ForbidMultiple):
            symbols = (pattern.symbol,)
        elif isinstance(pattern, ForbidTogether):
            symbols = (pattern.a, pattern.b)
        else:  # pragma: no cover - future pattern kinds
            continue
        for symbol in symbols:
            if symbol not in states:
                location = ctx.symbolic(f"error_patterns[{index}]")
                if ctx.dsl is not None and index < len(ctx.dsl.forbid_origins):
                    origin = ctx.dsl.forbid_origins[index]
                    location = Location(
                        file=ctx.artifact, line=origin.line, col=origin.col,
                        symbol="forbid",
                    )
                yield ctx.diag(
                    "PL004",
                    Severity.ERROR,
                    f"forbidden-pattern references unknown state {symbol!r}",
                    location,
                )
    for attr in ("owner_states", "exclusive_states"):
        for symbol in getattr(spec, attr):
            if symbol not in states:
                yield ctx.diag(
                    "PL004",
                    Severity.ERROR,
                    f"{attr} references unknown state {symbol!r}",
                    ctx.symbolic(attr),
                )
    if spec.shared_fill_state is not None and spec.shared_fill_state not in states:
        yield ctx.diag(
            "PL004",
            Severity.ERROR,
            f"shared_fill_state references unknown state "
            f"{spec.shared_fill_state!r}",
            ctx.symbolic("shared_fill_state"),
        )


# ----------------------------------------------------------------------
# PL005 -- sharing-detection mismatch (DSL only)
# ----------------------------------------------------------------------
@rule("PL005", Severity.ERROR, "sharing-mismatch",
      "guards read the sharing line but sharing-detection is off",
      example=_EX_NOWIRE)
def check_sharing_mismatch(ctx: LintContext) -> Iterator[Diagnostic]:
    """Characteristic-function mismatch (paper Definition 5).

    ``any``/``none`` guards are exactly the sharing-detection wire: a
    cache can only branch on "some other cache has a copy" when the
    protocol declares ``F`` as the sharing-detection function.  With
    ``sharing-detection off`` such guards describe hardware the machine
    does not have.  ``has(S)``/``!has(S)`` atoms are *not* flagged:
    they model reactions observed on the bus (a Dirty copy answering a
    miss), which need no dedicated wire.
    """
    if ctx.dsl is None or ctx.spec.uses_sharing_detection:
        return
    for index, dsl_rule in enumerate(ctx.dsl._rules):
        wired = sorted(
            {kind for kind, _ in dsl_rule.guard.atoms if kind in ("any", "none")}
        )
        if wired:
            yield ctx.diag(
                "PL005",
                Severity.ERROR,
                f"guard uses {'/'.join(wired)!s} but sharing-detection is off "
                "(enable it or rewrite the guard with has(...))",
                ctx.rule_location(index),
            )


# ----------------------------------------------------------------------
# PL006 -- unsatisfiable supplier (DSL only)
# ----------------------------------------------------------------------
@rule("PL006", Severity.ERROR, "unsatisfiable-supplier",
      "a selected rule loads or writes back from a copy its context lacks",
      example=_EX_BROKEN_SUPPLIER)
def check_unsatisfiable_supplier(ctx: LintContext) -> Iterator[Diagnostic]:
    """A data clause whose supplier cannot exist when the rule fires.

    ``load cache:S`` and ``writeback S`` promise a cache in state ``S``
    supplies or flushes the block; if the probe table selects the rule
    in a context with no such copy, the promise is broken at runtime
    (a ``DslError`` mid-verification).  The usual culprit is a missing
    ``if has(S)`` guard or mis-ordered rules.
    """
    if ctx.dsl is None:
        return
    flagged: set[int] = set()
    for entry in ctx.probes:
        index = entry.rule_index
        if index is None or index in flagged:
            continue
        dsl_rule = ctx.dsl._rules[index]
        if dsl_rule.stalled:
            continue
        if (
            dsl_rule.load is not None
            and dsl_rule.load.kind == "cache"
            and not any(entry.ctx.has(c) for c in dsl_rule.load.candidates)
        ):
            flagged.add(index)
            yield ctx.diag(
                "PL006",
                Severity.ERROR,
                f"rule loads from cache:"
                f"{'|'.join(dsl_rule.load.candidates)} but is selected in "
                f"context {_ctx_text(entry.ctx.present)} with no such copy "
                "(guard it with 'if has(...)')",
                ctx.rule_location(index),
            )
            continue
        writeback = dsl_rule.writeback
        if (
            writeback is not None
            and writeback in ctx.spec.states
            and not entry.ctx.has(writeback)
        ):
            flagged.add(index)
            yield ctx.diag(
                "PL006",
                Severity.ERROR,
                f"rule writes back from {writeback} but is selected in "
                f"context {_ctx_text(entry.ctx.present)} with no such copy "
                "(guard it with 'if has(...)')",
                ctx.rule_location(index),
            )


# ----------------------------------------------------------------------
# PL007 -- invalid observer
# ----------------------------------------------------------------------
@rule("PL007", Severity.ERROR, "invalid-observer",
      "an observer reaction is keyed by the invalid state")
def check_invalid_observer(ctx: LintContext) -> Iterator[Diagnostic]:
    """Observer maps that make the invalid state react.

    A reaction keyed by the invalid state is meaningless: a cache with
    no copy has nothing to snoop *from*.  The DSL parser enforces this
    syntactically; the rule catches registry specs whose ``react``
    builds observer dictionaries dynamically.  A reaction keyed by --
    or moving to -- an undeclared state cannot be lowered at all, so
    PL004 reports it.
    """
    invalid = ctx.spec.invalid
    seen: set[tuple[str, Op, str]] = set()
    for entry in ctx.probes:
        for obs, nxt, _updated in entry.observers:
            key = (entry.state, entry.op, nxt)
            if obs != invalid or key in seen:
                continue
            seen.add(key)
            yield ctx.diag(
                "PL007",
                Severity.ERROR,
                f"react({entry.state}, {entry.op.value}): reaction keyed by "
                f"the invalid state {obs!r}",
                ctx.symbolic(f"react({entry.state}, {entry.op.value})"),
            )


# ----------------------------------------------------------------------
# PL008 -- stall cycle (flow-routed)
# ----------------------------------------------------------------------
def _stall_location(ctx: LintContext, state: str, op: Op) -> Location:
    """Best location for a stall finding: the first stalling DSL rule."""
    if ctx.dsl is not None:
        stalling = [r for r in ctx.dsl.rules_for(state, op) if r.stalled]
        if stalling:
            return ctx.rule_location(ctx.dsl._rules.index(stalling[0]))
    return ctx.symbolic(f"react({state}, {op.value})")


@rule("PL008", Severity.WARNING, "stall-cycle",
      "an operation stalls in a state with no non-stall exit path",
      example=_EX_DEADLOCK)
def check_stall_cycle(ctx: LintContext) -> Iterator[Diagnostic]:
    """Non-progress cycle, after Sethi et al.'s flow-based analysis.

    A stall is only a deadlock when it is *permanent*: the operation
    stalls in every reachable context of the state, and no state the
    cache can flow to (by issuing other operations or by being snooped)
    completes it.  The check runs on the abstract-reachability fixpoint
    over the guarded-action IR, so a stall that some reachable context
    resolves is not flagged.  When lowering fails the rule stays silent,
    like PL012--PL015: only malformed specifications fail to lower, and
    PL004/PL007 report those as errors.

    This remains a *static over-approximation* of the dynamic
    starvation analysis (:mod:`repro.liveness`, ``--mode liveness``):
    no statically reachable stall implies dynamically live (enforced
    by :mod:`repro.testkit.diff`), but a flagged stall may still
    be resolvable at run time -- which is why this rule warns while
    the liveness analysis verdicts.  See docs/LIVENESS.md.
    """
    flow = ctx.flow
    if flow is None:
        return
    ir = flow.ir
    permanent = sorted(
        flow.stalls - flow.completes,
        key=lambda cell: (ir.states[cell[0]], ir.ops[cell[1]]),
    )
    for sid, oid in permanent:
        escape = flow.reachable_from(sid)
        if any((other, oid) in flow.completes for other in escape):
            continue
        state, op = ir.states[sid], Op(ir.ops[oid])
        yield ctx.diag(
            "PL008",
            Severity.WARNING,
            f"operation {op.value} always stalls in state {state} and no "
            "reachable state completes it (possible deadlock)",
            _stall_location(ctx, state, op),
        )


# ----------------------------------------------------------------------
# PL009 -- no-op rule (DSL only)
# ----------------------------------------------------------------------
@rule("PL009", Severity.INFO, "no-op-rule",
      "a guarded rule is a self-loop with no effects",
      example=_EX_POINTLESS_GUARD)
def check_no_op_rule(ctx: LintContext) -> Iterator[Diagnostic]:
    """A guarded transition that changes nothing.

    Unguarded self-loops are ordinary (a read hit stays put); a
    *guarded* self-loop with no data clauses and no observers does
    exactly what the fall-through rule would -- the guard is either
    redundant or the author forgot the effect it was written to gate.
    """
    if ctx.dsl is None:
        return
    for index, dsl_rule in enumerate(ctx.dsl._rules):
        if (
            dsl_rule.guard.atoms
            and not dsl_rule.stalled
            and dsl_rule.next_state == dsl_rule.state
            and dsl_rule.load is None
            and dsl_rule.writeback is None
            and not dsl_rule.write_through
            and not dsl_rule.observers
        ):
            yield ctx.diag(
                "PL009",
                Severity.INFO,
                f"guarded rule 'on {dsl_rule.state} {dsl_rule.op.value} if "
                f"{dsl_rule.guard.text}' is a self-loop with no effects "
                "(drop the guard or add the missing clauses)",
                ctx.rule_location(index),
            )


# ----------------------------------------------------------------------
# PL010 -- dead rule (DSL only)
# ----------------------------------------------------------------------
@rule("PL010", Severity.WARNING, "dead-rule",
      "a rule's operation is outside the alphabet or excluded by restrict",
      example=_EX_DEAD_RULE)
def check_dead_rule(ctx: LintContext) -> Iterator[Diagnostic]:
    """A rule that applicability filtering removes before matching.

    ``operations`` narrows the alphabet and ``restrict`` narrows the
    states an operation may be issued from; a rule for an excluded
    combination compiles but can never fire.  Replacement rules for the
    invalid state fall in the same bucket (nothing to replace).
    """
    if ctx.dsl is None:
        return
    for index, dsl_rule in enumerate(ctx.dsl._rules):
        if dsl_rule.op not in ctx.spec.operations:
            yield ctx.diag(
                "PL010",
                Severity.WARNING,
                f"rule for operation {dsl_rule.op.value} is dead: the "
                "operation is not in the declared alphabet",
                ctx.rule_location(index),
            )
        elif not ctx.spec.applicable(dsl_rule.state, dsl_rule.op):
            yield ctx.diag(
                "PL010",
                Severity.WARNING,
                f"rule 'on {dsl_rule.state} {dsl_rule.op.value}' is dead: "
                f"{dsl_rule.op.value} is not applicable from "
                f"{dsl_rule.state} (restrict directive or replacement from "
                "the invalid state)",
                ctx.rule_location(index),
            )


# ----------------------------------------------------------------------
# PL011 -- unused sharing detection (DSL only)
# ----------------------------------------------------------------------
@rule("PL011", Severity.WARNING, "unused-sharing",
      "sharing-detection is on but no guard reads the sharing line",
      example=_EX_WIRE_UNUSED)
def check_unused_sharing(ctx: LintContext) -> Iterator[Diagnostic]:
    """Declared hardware nobody consults.

    ``sharing-detection on`` selects the non-null characteristic
    function (paper Definition 5) -- extra hardware on the bus.  If no
    guard ever reads the line (``any``/``none``), the declaration
    changes verification results for no behavioural reason; the
    protocol is really a null-F protocol.
    """
    if ctx.dsl is None or not ctx.spec.uses_sharing_detection:
        return
    for dsl_rule in ctx.dsl._rules:
        if any(kind in ("any", "none") for kind, _ in dsl_rule.guard.atoms):
            return
    yield ctx.diag(
        "PL011",
        Severity.WARNING,
        "sharing-detection is on but no guard uses any/none; declare "
        "'sharing-detection off' unless the sharing line is intentional",
        ctx.directive_location("sharing-detection"),
    )


# ----------------------------------------------------------------------
# PL012 -- unreachable transition (flow-sensitive)
# ----------------------------------------------------------------------
@rule("PL012", Severity.WARNING, "unreachable-transition",
      "a transition's source state is never abstractly reachable",
      example=_EX_FLOW_DEAD)
def check_unreachable_transition(ctx: LintContext) -> Iterator[Diagnostic]:
    """Transitions from a state the system can never actually occupy.

    PL001 checks *syntactic* reachability (does any edge enter the
    state?); this rule checks *semantic* reachability: starting from
    the all-invalid configuration (paper Section 2.1), does any
    reachable abstract configuration contain the state at all?  A state
    can pass PL001 -- some rule names it as a target -- while the guard
    on that rule can never hold along any real execution, leaving the
    whole row of the transition table dead.  Reachability is computed
    by the fixpoint in :mod:`repro.lint.flow` over the 0/1/many
    abstraction, a sound over-approximation: a state it cannot reach is
    unreachable in every concrete system size.  States PL001 already
    rejects are skipped.
    """
    flow = ctx.flow
    if flow is None:
        return
    ir = flow.ir
    dead = ctx.fsm.dead_states()
    seen: set[tuple[int, int]] = set()
    for t in ir.transitions:
        if t.state in flow.reachable_states:
            continue
        if ir.states[t.state] in dead:
            continue  # PL001's business (an ERROR already)
        if (t.state, t.op) in seen:
            continue
        seen.add((t.state, t.op))
        state, op = ir.states[t.state], ir.ops[t.op]
        location = (
            ctx.rule_location(t.origin)
            if ctx.dsl is not None and t.origin is not None
            else ctx.symbolic(f"react({state}, {op})")
        )
        yield ctx.diag(
            "PL012",
            Severity.WARNING,
            f"transition 'on {state} {op}' can never fire: no reachable "
            f"configuration contains a cache in state {state} (the state "
            "is only entered by rules whose guards never hold)",
            location,
        )


# ----------------------------------------------------------------------
# PL013 -- subsumed guard (flow-sensitive, DSL only)
# ----------------------------------------------------------------------
@rule("PL013", Severity.WARNING, "subsumed-guard",
      "an earlier transition claims every reachable context this guard matches",
      example=_EX_SHADOWED)
def check_subsumed_guard(ctx: LintContext) -> Iterator[Diagnostic]:
    """First-match subsumption proven over reachable contexts.

    PL002 reports a rule no present-set selects; this rule proves
    the stronger flow-sensitive fact: the guard is satisfiable in
    reachable configurations, but an earlier transition of the same
    ``(state, op)`` cell wins every one of them, naming the culprit.
    Distinct from PL015 (guard never satisfiable at all): a subsumed
    guard describes real contexts and the fix is reordering; a vacuous
    guard describes none and the fix is deletion.  Only rules the
    author wrote are flagged (synthesized registry decision lists
    shadow by construction).
    """
    flow = ctx.flow
    if flow is None or ctx.dsl is None:
        return
    ir = flow.ir
    for index, t in enumerate(ir.transitions):
        if index in flow.selected or t.origin is None:
            continue
        presents = flow.cell_contexts.get((t.state, t.op))
        if not presents:
            continue  # cell unreachable: PL012 / PL001
        satisfied = sorted(
            (p for p in presents if t.guard.holds(p)),
            key=lambda p: (len(p), sorted(p)),
        )
        if not satisfied:
            continue  # PL015's business
        culprits: set[int] = set()
        for p in satisfied:
            for other_index, other in enumerate(ir.transitions[:index]):
                if (
                    (other.state, other.op) == (t.state, t.op)
                    and other.guard.holds(p)
                ):
                    culprits.add(other_index)
                    break
        culprit_lines = sorted(
            {
                ctx.dsl._rules[ir.transitions[c].origin].line_no
                for c in culprits
                if ir.transitions[c].origin is not None
            }
        )
        detail = (
            f" (claimed by the rule{'s' if len(culprit_lines) > 1 else ''} at "
            f"line{'s' if len(culprit_lines) > 1 else ''} "
            f"{', '.join(map(str, culprit_lines))})"
            if culprit_lines
            else ""
        )
        example = _ctx_text(frozenset(ir.states[s] for s in satisfied[0]))
        yield ctx.diag(
            "PL013",
            Severity.WARNING,
            f"guard '{t.guard.render(ir.states)}' is reachably satisfiable "
            f"(e.g. in context {example}) but an earlier rule always matches "
            f"first{detail}; reorder or delete the rule",
            ctx.rule_location(t.origin),
        )


# ----------------------------------------------------------------------
# PL014 -- permission race (flow-sensitive)
# ----------------------------------------------------------------------
@rule("PL014", Severity.WARNING, "permission-race",
      "a silent write hit leaves another cache holding a live copy",
      example=_EX_RACEY)
def check_permission_race(ctx: LintContext) -> Iterator[Diagnostic]:
    """Two caches holding write permission under the sharing abstraction.

    A *write hit* -- W issued from a valid state -- that completes
    without invalidating or updating the other copies its reachable
    context provably contains means two caches each believe they may
    write locally: the paper's single-writer invariant (Definition 2's
    forbidden patterns exist to enforce it) is violated before any
    expansion runs.  The rule only fires on configurations the
    abstract-reachability fixpoint actually reaches, so protocols whose
    exclusivity discipline keeps sharers away from silent writes
    (every zoo protocol) stay clean.  Write *misses* are out of scope:
    they go on the bus by construction, and stale-copy effects are the
    verifier's data-consistency check (Definition 3).
    """
    flow = ctx.flow
    if flow is None:
        return
    ir = flow.ir
    if "W" not in ir.ops:
        return
    w = ir.op_id("W")
    reported: set[tuple[int, int]] = set()
    for sid in sorted(ir.valid_ids()):
        for present, index in sorted(
            flow.selections.get((sid, w), ()),
            key=lambda pair: (sorted(pair[0]), pair[1]),
        ):
            t = ir.transitions[index]
            if t.action.stalled or t.action.raises is not None:
                continue
            reactions = {obs: (nxt, upd) for obs, nxt, upd in t.action.observers}
            for other in sorted(present):
                nxt, updated = reactions.get(other, (other, False))
                if nxt == ir.invalid or updated:
                    continue
                if (sid, other) in reported:
                    continue
                reported.add((sid, other))
                state = ir.states[sid]
                location = (
                    ctx.rule_location(t.origin)
                    if ctx.dsl is not None and t.origin is not None
                    else ctx.symbolic(f"react({state}, W)")
                )
                yield ctx.diag(
                    "PL014",
                    Severity.WARNING,
                    f"write hit from {state} completes in reachable context "
                    f"{_ctx_text(frozenset(ir.states[s] for s in present))} "
                    f"without invalidating or updating the {ir.states[other]} "
                    "copy -- two caches can hold write permission",
                    location,
                )


# ----------------------------------------------------------------------
# PL015 -- vacuous guard (flow-sensitive, DSL only)
# ----------------------------------------------------------------------
@rule("PL015", Severity.WARNING, "vacuous-guard",
      "a guard is satisfied by no reachable context of its cell",
      example=_EX_VACUOUS)
def check_vacuous_guard(ctx: LintContext) -> Iterator[Diagnostic]:
    """A guard that no reachable observation context can ever satisfy.

    The cell itself is reachable, but across every present-set the
    abstract fixpoint observes there, the conjunction never holds --
    either it is contradictory outright (``any & none``) or it tests
    for company the protocol makes impossible (``has(E)`` when E never
    coexists with the issuing state).  Stall rules are exempt: a
    blocking guard that reachability analysis proves idle means the
    exclusion it defends against already works (lock-style protocols
    keep defensive ``stall`` arms for states their own discipline makes
    unreachable), whereas a vacuous guard on a *completing* transition
    is dead action logic.  Only author-written rules are flagged.
    """
    flow = ctx.flow
    if flow is None or ctx.dsl is None:
        return
    ir = flow.ir
    for index, t in enumerate(ir.transitions):
        if index in flow.selected or t.origin is None:
            continue
        if t.action.stalled or t.guard.always:
            continue
        presents = flow.cell_contexts.get((t.state, t.op))
        if not presents:
            continue  # cell unreachable: PL012 / PL001
        if any(t.guard.holds(p) for p in presents):
            continue  # PL013's business
        yield ctx.diag(
            "PL015",
            Severity.WARNING,
            f"guard '{t.guard.render(ir.states)}' is vacuous: none of the "
            f"{len(presents)} reachable context{'s' if len(presents) > 1 else ''} "
            f"of ({ir.states[t.state]}, {ir.ops[t.op]}) satisfies it",
            ctx.rule_location(t.origin),
        )
