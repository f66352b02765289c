"""The differential gate: every check over every spec source.

Each engine added since the paper -- the guarded-action IR, the
compiled kernel, the liveness analysis -- stays faithful to Figure 4
and Theorem 1 only because something pits it against a reference.
This module is that something, written once: a table of spec
*sources*, a table of *checks*, and :func:`run_diff`, which runs every
check over every case of every source.

Sources (:data:`SOURCES`) yield :class:`Case` objects that carry their
own expectation:

=================== ==================================================
source              specifications
=================== ==================================================
``zoo``             the registry protocols
``builtin``         the builtin DSL specifications
``mutant``          every injected-bug (safety) variant of the zoo
``liveness-mutant`` every seeded starvation mutant -- expected not live
``corpus``          the pinned regression corpus (``liveness-*``
                    entries expected not live)
``generated``       seeded draws of :class:`~.generate.SpecGenerator`
``generated-stall`` seeded draws with stalling transitions
=================== ==================================================

Checks (:data:`CHECKS`) yield :class:`Finding` objects:

``ir``
    The lowered :mod:`repro.ir` document is the spec, cell by cell
    (``behaviour``: its header fields name the spec's states,
    operations and error patterns, :meth:`~repro.ir.ProtocolIR.applicable`
    is the spec's ``applicable``, and in every applicable cell and
    observation context the IR's selected transition materializes to
    the outcome -- or the raise -- of the spec's
    :func:`~repro.core.protocol.reaction_table`), the IR survives
    ``to_dict``/``from_dict`` (``serialization``), and the flow
    over-approximation (:mod:`repro.lint.flow`) covers every exercised
    transition and guaranteed-populated state (``flow``).
``kernel``
    The compiled kernel is observably the interpreter (``explore``:
    violation kinds and witnesses, essential set, visit and expansion
    counts, verdict; ``enumerate``: concrete state spaces for small
    ``n``; ``liveness``: byte-identical liveness documents).
``liveness``
    Every lasso re-executes through the reaction semantics
    (``lasso-replay``), violations and lassos pair up
    (``witness-mismatch``), re-analysis is byte-identical
    (``determinism``), a spec with no statically reachable stall is
    live (``static-contradiction``), and an expected starver is caught
    (``mutant-live``).
``theorem1``
    The Theorem 1 check (:func:`repro.enumeration.crossval.run_oracle`):
    the symbolic verdict agrees with exhaustive enumeration
    (``completeness``, ``coverage``, ``soundness``).  Its non-vacuity
    result is recorded, never a finding: a vacuous essential state
    below some ``n`` is inconclusive, and at ``n <= 3`` every spec
    with one is a spec the expansion rejects.

Each case gets one :class:`Context` whose interpreter expansion,
kernel expansion, IR lowering and flow analysis are built at most once
and shared by every check.  ``kernel`` and the flow part of ``ir``
read the interpreter reference; ``liveness`` and ``theorem1`` read the
expansion users get: the kernel's (lowering is total, so every spec
has one).

One skip rule: a check that cannot reach a verdict is *skipped*, never
failed.  A partial expansion or enumeration (each runs under a
``MAX_VISITS`` guard) skips with ``budget exhausted``.  A source that
yields no specifications is itself a finding.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from ..core.errors import ForbidMultiple, ForbidState, ForbidTogether
from ..core.essential import ExpansionResult, explore
from ..core.operators import Rep
from ..core.protocol import ProtocolDefinitionError, ProtocolSpec, reaction_table
from ..core.reactions import Outcome
from ..engine.guard import Budget, Guard
from ..enumeration.crossval import Finding, run_oracle
from ..enumeration.exhaustive import Equivalence, enumerate_space
from ..ir.lower import lower
from ..ir.model import ProtocolIR
from ..kernel.compile import compile_protocol
from ..kernel.essential import explore as kernel_explore
from ..kernel.exhaustive import enumerate_space as kernel_enumerate
from ..lint.flow import FlowAnalysis
from ..liveness.analyze import analyze_liveness
from ..liveness.replay import replay_lasso
from ..protocols.dsl import builtin_spec_names, load_builtin
from ..protocols.mutations import liveness_mutants_for, mutants_for
from ..protocols.registry import all_protocols
from .corpus import Corpus
from .generate import GeneratorConfig, SpecGenerator

__all__ = [
    "CHECKS",
    "SOURCES",
    "Case",
    "Context",
    "DiffReport",
    "Finding",
    "Skip",
    "diff_spec",
    "run_check",
    "run_diff",
]

#: Run the expansions with context variables (Definition 4).
AUGMENTED = True
#: Visit budget of every expansion and enumeration; exhausting it
#: skips the check.
MAX_VISITS = 1_000_000
#: Cache counts of the kernel's enumeration comparison (both
#: equivalences at each).
ENUMERATE_NS = (1, 2)
#: Where the ``corpus`` source reads the pinned regression corpus.
CORPUS_ROOT = "tests/corpus"
#: Seed, size and stall density of the two generated sources.
GENERATED_SEED = 2026
GENERATED_COUNT = 10
P_STALL = 0.5


@dataclass(frozen=True)
class Case:
    """One specification from one source, with what it must satisfy."""

    source: str
    spec: ProtocolSpec
    #: A seeded starver: a live verdict is a missed bug.
    expect_not_live: bool = False


class Skip(Exception):
    """A check cannot reach a verdict on this case (budget exhausted)."""


def _once(build: Callable[["Context"], object]) -> property:
    """A lazily built :class:`Context` field; a :class:`Skip` is
    remembered like a value, so a failed build is never retried."""
    slot = f"_{build.__name__}"

    def get(self: "Context"):
        if slot not in self.__dict__:
            try:
                self.__dict__[slot] = build(self)
            except Skip as exc:
                self.__dict__[slot] = exc
        value = self.__dict__[slot]
        if isinstance(value, Skip):
            raise Skip(*value.args)
        return value

    return property(get, doc=build.__doc__)


def _guard() -> Guard:
    """A fresh guard for one search of the gate."""
    return Guard(Budget(max_visits=MAX_VISITS))


def _expand(run, spec: ProtocolSpec, **extra) -> ExpansionResult:
    """One complete expansion of *spec*; an incomplete one is a skip."""
    result = run(spec, augmented=AUGMENTED, guard=_guard(), **extra)
    if result.partial:
        raise Skip("budget exhausted")
    return result


class Context:
    """Everything the checks share about one case, built on demand."""

    def __init__(self, case: Case) -> None:
        self.case = case
        self.spec = case.spec
        self.name = case.spec.name or "<spec>"

    @_once
    def interp(self) -> ExpansionResult:
        """The interpreter's expansion: the reference."""
        return _expand(explore, self.spec)

    @_once
    def ir(self) -> ProtocolIR:
        """The spec lowered to the guarded-action IR."""
        return lower(self.spec)

    @_once
    def flow(self) -> FlowAnalysis:
        """The abstract-reachability fixpoint over :attr:`ir`."""
        return FlowAnalysis(self.ir)

    @_once
    def compiled(self):
        """The kernel's tables, compiled from :attr:`ir`."""
        return compile_protocol(self.ir)

    @_once
    def kernel(self) -> ExpansionResult:
        """The compiled kernel's expansion: the one users get."""
        return _expand(kernel_explore, self.spec, compiled=self.compiled)

    @_once
    def liveness(self):
        """The starvation analysis of :attr:`kernel`."""
        report = analyze_liveness(self.kernel)
        if not report.checked:
            raise Skip(f"unchecked ({report.reason})")
        return report


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _kinds(result) -> dict[str, int]:
    """Violation counts by kind."""
    return dict(sorted(Counter(v.kind.value for v in result.violations).items()))


def _essential(result: ExpansionResult) -> list[str]:
    return [state.pretty() for state in result.essential]


def _witnesses(result: ExpansionResult) -> list[tuple[str, str]]:
    return [(v.kind.value, v.state.pretty()) for v in result.violations]


def _difference(what: str, ours, theirs, sides: tuple[str, str]) -> str | None:
    """How two multisets differ (``None`` when they agree)."""
    a, b = Counter(ours), Counter(theirs)
    if a == b:
        return None
    only_a, only_b = sorted((a - b).elements()), sorted((b - a).elements())
    return (
        f"{what} differ: {len(only_a)} {sides[0]}-only {only_a[:3]}, "
        f"{len(only_b)} {sides[1]}-only {only_b[:3]}"
    )


#: IR error-pattern kinds, as :func:`repro.ir.lower` encodes them.
_PATTERNS = {
    "multiple": ForbidMultiple,
    "together": ForbidTogether,
    "state": ForbidState,
}


def _behaviour_differences(
    name: str, spec: ProtocolSpec, ir: ProtocolIR
) -> Iterator[Finding]:
    """Where *ir* is not *spec*: one finding per header field or cell
    (at its first differing present-set).

    A cache sees only the present-set (Definition 1), so agreeing with
    the spec's behaviour table in every cell and observation context --
    reachable or not -- is agreeing everywhere.
    """

    def names(ids) -> tuple[str, ...]:
        return tuple(ir.states[i] for i in ids)

    fill = None if ir.shared_fill_state is None else ir.states[ir.shared_fill_state]
    header = {
        "names": ((spec.name, spec.full_name), (ir.name, ir.full_name)),
        "states": (tuple(spec.states), ir.states),
        "invalid state": (spec.invalid, ir.states[ir.invalid]),
        "operations": (tuple(op.value for op in spec.operations), ir.ops),
        "sharing": (spec.uses_sharing_detection, ir.uses_sharing_detection),
        "owners": (tuple(spec.owner_states), names(ir.owner_states)),
        "exclusives": (tuple(spec.exclusive_states), names(ir.exclusive_states)),
        "shared fill": (spec.shared_fill_state, fill),
        "error patterns": (
            tuple(spec.error_patterns),
            tuple(_PATTERNS[kind](*names(ids)) for kind, *ids in ir.error_patterns),
        ),
    }
    for field, (ours, theirs) in header.items():
        if ours != theirs:
            detail = f"{field} differ: {ours} (spec) vs {theirs} (IR)"
            yield Finding("behaviour", name, detail)
    if any(ours != theirs for ours, theirs in header.values()):
        return  # the cells cannot be matched up
    selected = {(state, op, c.present): t for state, op, c, t in ir.behaviour()}
    for state, op, cell in reaction_table(spec):
        sid, oid = ir.state_id(state), ir.op_id(op)
        if (cell is not None) != ir.applicable(sid, oid):
            detail = f"({state}, {op.value}) is applicable in only one of spec and IR"
            yield Finding("behaviour", name, detail)
            continue
        for c, reaction in cell or ():
            t = selected[sid, oid, c.present]
            ours: object = reaction
            if isinstance(reaction, Exception):
                ours = f"raises {type(reaction).__name__}: {reaction}"
            if t is None:
                theirs: object = "no transition"
            elif t.action.raises is not None:
                theirs = f"raises {t.action.raises}"
            else:
                try:
                    theirs = ir.outcome(t, c)
                except ProtocolDefinitionError as exc:
                    theirs = f"error: {exc}"
            if ours != theirs:
                detail = (
                    f"({state}, {op.value}) at present-set {sorted(c.present)}: "
                    f"{ours} (spec) vs {theirs} (IR)"
                )
                yield Finding("behaviour", name, detail)
                break  # one finding per cell


def _check_ir(ctx: Context) -> Iterator[Finding]:
    ir = ctx.ir
    replica = ProtocolIR.from_dict(ir.to_dict())
    if replica.fingerprint() != ir.fingerprint():
        yield Finding(
            "serialization",
            ctx.name,
            "to_dict/from_dict round-trip changed the fingerprint "
            f"({ir.fingerprint()[:12]} -> {replica.fingerprint()[:12]})",
        )

    yield from _behaviour_differences(ctx.name, ctx.spec, ir)

    # The flow fixpoint over-approximates, so the expansion can never
    # contradict it.  Every exercised initiator transition completes in
    # some reachable context, so its cell must be flow-completing -- a
    # cell whose rules all stall or raise is exempt: the expansion
    # records the refused attempt (the self-loop liveness feeds on),
    # and a raising rule never completes.
    base, flow = ctx.interp, ctx.flow
    exercised = {(t.label.initiator, t.label.op.value) for t in base.transitions}
    for state, op in sorted(exercised):
        cell = (ir.state_id(state), ir.op_id(op))
        rules = [t for t in ir.transitions if (t.state, t.op) == cell]
        if rules and all(
            t.action.stalled or t.action.raises is not None for t in rules
        ):
            continue
        if cell not in flow.completes:
            yield Finding(
                "flow",
                ctx.name,
                f"expansion exercises ({state}, {op}) but the flow "
                "analysis never completes that cell",
            )
    # Every state the essential set guarantees populated (a `1` or `+`
    # class) is concretely reachable, so it must be flow-reachable.
    guaranteed = {
        label.symbol
        for state in base.essential
        for label, rep in state.classes
        if rep in (Rep.ONE, Rep.PLUS) and label.symbol != ir.states[ir.invalid]
    }
    for symbol in sorted(guaranteed):
        if ir.state_id(symbol) not in flow.reachable_states:
            yield Finding(
                "flow",
                ctx.name,
                f"essential states guarantee a {symbol} copy but the "
                "flow analysis never reaches it",
            )


def _check_kernel(ctx: Context) -> Iterator[Finding]:
    base, kern = ctx.interp, ctx.kernel
    compared = [
        ("violation kinds", _kinds(base), _kinds(kern)),
        ("visit counts", base.stats.visits, kern.stats.visits),
        ("expansion counts", base.stats.expanded, kern.stats.expanded),
        ("verdicts", base.ok, kern.ok),
    ]
    for what, ours, theirs in compared:
        if ours != theirs:
            yield Finding(
                "explore",
                ctx.name,
                f"{what} differ: {ours} (interp) vs {theirs} (kernel)",
            )
    sides = ("interpreter", "kernel")
    for what, collect in [
        ("violation witnesses", _witnesses),
        ("essential sets", _essential),
    ]:
        detail = _difference(what, collect(base), collect(kern), sides)
        if detail:
            yield Finding("explore", ctx.name, detail)

    # Liveness is a pure function of the expansion graph (and the
    # kernel's expansion is the default one, analyzed in the context).
    base_doc = json.dumps(analyze_liveness(base).to_dict(), sort_keys=True)
    kern_doc = json.dumps(ctx.liveness.to_dict(), sort_keys=True)
    if base_doc != kern_doc:
        yield Finding(
            "liveness",
            ctx.name,
            "liveness documents differ between interpreter and kernel "
            "expansions",
        )

    for n in ENUMERATE_NS:
        for equivalence in (Equivalence.STRICT, Equivalence.COUNTING):
            eb = enumerate_space(ctx.spec, n, equivalence=equivalence, guard=_guard())
            ek = kernel_enumerate(
                ctx.spec,
                n,
                equivalence=equivalence,
                guard=_guard(),
                compiled=ctx.compiled,
            )
            if eb.partial or ek.partial:
                raise Skip("budget exhausted")
            where = f"at {equivalence.value}"
            if _kinds(eb) != _kinds(ek):
                yield Finding(
                    "enumerate",
                    ctx.name,
                    f"violation kinds differ {where}: {_kinds(eb)} "
                    f"(interp) vs {_kinds(ek)} (kernel)",
                    n,
                )
            base_states = frozenset(s.pretty() for s in eb.states)
            kern_states = frozenset(s.pretty() for s in ek.states)
            if base_states != kern_states:
                yield Finding(
                    "enumerate",
                    ctx.name,
                    f"state spaces differ {where}: {len(base_states)} "
                    f"(interp) vs {len(kern_states)} (kernel) states",
                    n,
                )


def _check_liveness(ctx: Context) -> Iterator[Finding]:
    result, report = ctx.kernel, ctx.liveness
    for lasso in report.lassos:
        ok, reason = replay_lasso(result, lasso)
        if not ok:
            yield Finding("lasso-replay", ctx.name, f"{lasso.signature}: {reason}")

    if len(report.violations) != len(report.lassos):
        yield Finding(
            "witness-mismatch",
            ctx.name,
            f"{len(report.violations)} violations but "
            f"{len(report.lassos)} lassos",
        )
    else:
        for violation, lasso in zip(report.violations, report.lassos):
            if violation.kind is not lasso.kind:
                yield Finding(
                    "witness-mismatch",
                    ctx.name,
                    f"violation {violation.kind.value} paired with "
                    f"{lasso.kind.value} lasso ({lasso.signature})",
                )

    first = json.dumps(report.to_dict(), sort_keys=True)
    second = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    if first != second:
        yield Finding(
            "determinism", ctx.name, "re-analysis produced a different document"
        )

    if ctx.case.expect_not_live and report.live:
        yield Finding(
            "mutant-live", ctx.name, "seeded starvation mutant analyzed as live"
        )

    # The static half, over the IR's flow.  Only the sound
    # direction holds -- a reachable stall the rest of the system can
    # always resolve is still live; see docs/LIVENESS.md.
    if not report.live and not ctx.flow.stalls:
        yield Finding(
            "static-contradiction",
            ctx.name,
            "no statically reachable stall, yet "
            f"{len(report.violations)} starvable requests",
        )


def _check_theorem1(ctx: Context) -> Iterator[Finding]:
    report = run_oracle(ctx.spec, symbolic=ctx.kernel, augmented=AUGMENTED)
    if report.outcome == "skipped":
        raise Skip(report.skipped)
    if report.disagreement is not None:
        yield report.disagreement


#: Every check of the gate, by name.
CHECKS: dict[str, Callable[[Context], Iterator[Finding]]] = {
    "ir": _check_ir,
    "kernel": _check_kernel,
    "liveness": _check_liveness,
    "theorem1": _check_theorem1,
}


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
def _shipped() -> list[ProtocolSpec]:
    """The zoo and the builtin DSL specs."""
    return [*all_protocols(), *(load_builtin(n) for n in builtin_spec_names())]


def _corpus() -> list[Case]:
    return [
        Case("corpus", entry.compile(), entry.kind.startswith("liveness-"))
        for entry in Corpus(CORPUS_ROOT).entries()
    ]


def _generated(source: str, config: GeneratorConfig) -> list[Case]:
    generator = SpecGenerator(seed=GENERATED_SEED, config=config)
    return [Case(source, generator.draw_checked()[1]) for _ in range(GENERATED_COUNT)]


#: Every spec source of the gate, by name: each builds its cases.
SOURCES: dict[str, Callable[[], list[Case]]] = {
    "zoo": lambda: [Case("zoo", spec) for spec in all_protocols()],
    "builtin": lambda: [
        Case("builtin", load_builtin(name)) for name in builtin_spec_names()
    ],
    "mutant": lambda: [
        Case("mutant", m) for spec in all_protocols() for m in mutants_for(spec)
    ],
    "liveness-mutant": lambda: [
        Case("liveness-mutant", mutant, expect_not_live=True)
        for spec in _shipped()
        for mutant in liveness_mutants_for(spec)
    ],
    "corpus": _corpus,
    "generated": lambda: _generated("generated", GeneratorConfig()),
    "generated-stall": lambda: _generated(
        "generated-stall", GeneratorConfig(p_stall=P_STALL)
    ),
}


# ----------------------------------------------------------------------
# Running the gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffReport:
    """Outcome of the gate on one case (or on one empty source)."""

    source: str
    spec: str
    findings: tuple[Finding, ...]
    #: ``(check, reason)`` for every check that could not conclude.
    skipped: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        """True iff no claim broke (a skipped check is not a failure)."""
        return not self.findings

    def describe(self) -> str:
        """One summary line plus one line per finding."""
        status = "ok" if self.ok else f"{len(self.findings)} findings"
        lines = [f"{self.source}/{self.spec}: {status}"]
        lines.extend(f"  {check} skipped ({why})" for check, why in self.skipped)
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


def run_check(name: str, ctx: Context) -> tuple[list[Finding], str | None]:
    """The findings of one check, and why it stopped short (if it did)."""
    found: list[Finding] = []
    try:
        for finding in CHECKS[name](ctx):
            found.append(finding)
    except Skip as exc:
        return found, str(exc)
    return found, None


def diff_spec(case: Case) -> DiffReport:
    """Run every check on one case, sharing one :class:`Context`."""
    ctx = Context(case)
    findings: list[Finding] = []
    skipped: list[tuple[str, str]] = []
    for name in CHECKS:
        found, reason = run_check(name, ctx)
        findings.extend(found)
        if reason is not None:
            skipped.append((name, reason))
    return DiffReport(case.source, ctx.name, tuple(findings), tuple(skipped))


def run_diff() -> list[DiffReport]:
    """Run every check over every case of every source."""
    reports: list[DiffReport] = []
    for source, cases in SOURCES.items():
        found = [diff_spec(case) for case in cases()]
        if not found:
            empty = Finding("empty-source", source, "the source yielded no specs")
            found = [DiffReport(source, "-", (empty,))]
        reports.extend(found)
    return reports
