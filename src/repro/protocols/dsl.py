"""A formal protocol specification language (paper Section 5).

The paper's conclusion proposes "the definition of a formal
specification language capable of describing both the protocol behavior
and the processes implementing it", to reduce the possibility of
transcription errors.  This module provides that language: a compact,
line-oriented format from which a fully functional
:class:`~repro.core.protocol.ProtocolSpec` is compiled -- verifiable,
enumerable and executable like any built-in protocol.

Grammar (one directive per line, ``#`` comments)::

    protocol <name>
    title    <free text>
    states   <S1> <S2> ...        # first state is NOT special
    invalid  <state>
    sharing-detection on|off
    owners   <S> ...              # informational (reports)
    forbid multiple <S>           # error pattern: at most one cache in S
    forbid together <S1> <S2>     # error pattern: S1 and S2 never coexist
    operations <op> ...           # alphabet (default: R W Z; may add L U)
    restrict <op> only-from <S>...   # op applicable only from these states
    restrict <op> not-from <S>...    # op not applicable from these states
    on <state> <op> [if <guard>] -> <next> [clauses...] [; <observers>]
    on <state> <op> [if <guard>] -> stall    # blocking protocols

``<op>`` is ``R``, ``W``, ``Z`` (and ``L``/``U`` for locking
protocols).  Guards (evaluated in declaration order, first match wins;
a rule with no guard always matches)::

    any                           # some other cache holds a copy
    none                          # no other cache holds a copy
    has(S)                        # another cache is in state S
    !has(S)                       # no other cache is in state S
    <guard> & <guard>             # conjunction

Clauses after the next state::

    load memory                   # block fill from main memory
    load cache:S                  # fill supplied by a cache in state S
    load cache:S1|S2|...          # first present state in the list
    writeback self                # the initiator flushes its copy
    writeback S                   # a cache in state S flushes its copy
    writethrough                  # the stored value is written to memory

Observer reactions (comma separated after ``;``)::

    S => S'                       # caches in S snoop to S'
    S => S' updated               # ...receiving the written value
    all => S'                     # every valid state reacts this way

Example -- the complete Illinois protocol::

    protocol illinois-dsl
    states Invalid V-Ex Shared Dirty
    invalid Invalid
    sharing-detection on
    forbid multiple Dirty
    forbid together Dirty Shared
    on Invalid R if has(Dirty) -> Shared load cache:Dirty writeback Dirty ; Dirty => Shared
    on Invalid R if any -> Shared load cache:Shared|V-Ex ; Shared => Shared, V-Ex => Shared
    on Invalid R -> V-Ex load memory
    ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..core.errors import ForbidMultiple, ForbidTogether, StatePattern
from ..core.protocol import ProtocolDefinitionError, ProtocolSpec
from ..core.reactions import (
    Ctx,
    INITIATOR,
    LoadFrom,
    MEMORY,
    ObserverReaction,
    Outcome,
    from_cache,
)
from ..core.symbols import Op

__all__ = [
    "DslError",
    "DslProtocol",
    "Origin",
    "parse_protocol",
    "load_protocol",
    "parse_protocol_file",
    "load_builtin",
    "builtin_spec_names",
]


@dataclass(frozen=True)
class Origin:
    """Source position of one compiled DSL element (1-based)."""

    line: int
    col: int = 1


#: Same-line lint suppression marker inside a ``#`` comment:
#: ``# lint: ignore[PL005]`` (comma-separated ids) or a bare
#: ``# lint: ignore`` silencing every rule on that line.
_SUPPRESS_RE = re.compile(r"lint:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?")

_OPS = {
    "R": Op.READ,
    "W": Op.WRITE,
    "Z": Op.REPLACE,
    "REP": Op.REPLACE,
    "L": Op.LOCK,
    "U": Op.UNLOCK,
}


class DslError(Exception):
    """A syntax or semantic error in a protocol specification file."""

    def __init__(
        self, message: str, line_no: int | None = None, col: int | None = None
    ) -> None:
        if line_no is not None and col is not None:
            where = f"line {line_no}:{col}: "
        elif line_no is not None:
            where = f"line {line_no}: "
        else:
            where = ""
        super().__init__(f"{where}{message}")
        self.line_no = line_no
        self.col = col


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Guard:
    """A conjunction of atomic context conditions."""

    atoms: tuple[tuple[str, str | None], ...]  # (kind, state)
    text: str

    def evaluate(self, ctx: Ctx) -> bool:
        """True iff every atom of the guard holds in *ctx*."""
        for kind, state in self.atoms:
            if kind == "any" and not ctx.any_copy:
                return False
            if kind == "none" and ctx.any_copy:
                return False
            if kind == "has" and not ctx.has(state or ""):
                return False
            if kind == "nothas" and ctx.has(state or ""):
                return False
        return True


_ALWAYS = _Guard((), "always")


def _parse_guard(text: str, states: Sequence[str], line_no: int) -> _Guard:
    atoms: list[tuple[str, str | None]] = []
    for raw in text.split("&"):
        atom = raw.strip()
        if atom == "any":
            atoms.append(("any", None))
        elif atom == "none":
            atoms.append(("none", None))
        elif atom.startswith("!has(") and atom.endswith(")"):
            state = atom[5:-1].strip()
            if state not in states:
                raise DslError(f"guard references unknown state {state!r}", line_no)
            atoms.append(("nothas", state))
        elif atom.startswith("has(") and atom.endswith(")"):
            state = atom[4:-1].strip()
            if state not in states:
                raise DslError(f"guard references unknown state {state!r}", line_no)
            atoms.append(("has", state))
        else:
            raise DslError(f"cannot parse guard atom {atom!r}", line_no)
    return _Guard(tuple(atoms), text.strip())


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LoadSpec:
    """Deferred load source: memory or the first present cache state."""

    kind: str  # "memory" or "cache"
    candidates: tuple[str, ...] = ()

    def resolve(self, ctx: Ctx, line_no: int | None = None) -> LoadFrom:
        """Concrete load source for this context (first present state)."""
        if self.kind == "memory":
            return MEMORY
        for candidate in self.candidates:
            if ctx.has(candidate):
                return from_cache(candidate)
        raise DslError(
            f"rule loads from cache:{'|'.join(self.candidates)} but no such "
            "copy exists in this context (missing or mis-ordered guard?)",
            line_no,
        )


@dataclass(frozen=True)
class _Rule:
    """One ``on ...`` directive, compiled."""

    state: str
    op: Op
    guard: _Guard
    next_state: str
    load: _LoadSpec | None
    writeback: str | None  # state symbol or INITIATOR
    write_through: bool
    observers: tuple[tuple[str, str, bool], ...]  # (state, next, updated)
    line_no: int
    stalled: bool = False
    col: int = 1

    @property
    def origin(self) -> Origin:
        """Source position of the ``on`` directive that compiled to this."""
        return Origin(self.line_no, self.col)

    def outcome(self, ctx: Ctx) -> Outcome:
        """Materialize this rule's outcome for the given context."""
        if self.stalled:
            return Outcome(self.next_state, stalled=True)
        return Outcome(
            self.next_state,
            load_from=self.load.resolve(ctx, self.line_no) if self.load else None,
            observers={
                obs: ObserverReaction(nxt, updated)
                for obs, nxt, updated in self.observers
            },
            writeback_from=self.writeback,
            write_through=self.write_through,
        )


def _parse_rule(
    body: str, states: Sequence[str], invalid: str, line_no: int, col: int = 1
) -> _Rule:
    """Parse the text after ``on``."""
    if ";" in body:
        head, observer_text = body.split(";", 1)
    else:
        head, observer_text = body, ""
    if "->" not in head:
        raise DslError("rule is missing '->'", line_no)
    lhs, rhs = head.split("->", 1)

    # Left-hand side: <state> <op> [if <guard>]
    if " if " in lhs:
        lhs, guard_text = lhs.split(" if ", 1)
        guard = _parse_guard(guard_text, states, line_no)
    else:
        guard = _ALWAYS
    lhs_tokens = lhs.split()
    if len(lhs_tokens) != 2:
        raise DslError(f"expected '<state> <op>', got {lhs.strip()!r}", line_no)
    state, op_text = lhs_tokens
    if state not in states:
        raise DslError(f"unknown state {state!r}", line_no)
    if op_text.upper() not in _OPS:
        raise DslError(f"unknown operation {op_text!r} (use R/W/Z)", line_no)
    op = _OPS[op_text.upper()]

    # Right-hand side: <next> [load ...] [writeback ...] [writethrough]
    # or the single keyword "stall" (a refused, side-effect-free op).
    tokens = rhs.split()
    if not tokens:
        raise DslError("rule has no next state", line_no)
    if tokens[0] == "stall":
        if len(tokens) > 1 or observer_text.strip():
            raise DslError("'stall' admits no clauses or observers", line_no)
        return _Rule(
            state=state,
            op=op,
            guard=guard,
            next_state=state,
            load=None,
            writeback=None,
            write_through=False,
            observers=(),
            line_no=line_no,
            stalled=True,
            col=col,
        )
    next_state = tokens[0]
    if next_state not in states:
        raise DslError(f"unknown next state {next_state!r}", line_no)
    load: _LoadSpec | None = None
    writeback: str | None = None
    write_through = False
    i = 1
    while i < len(tokens):
        token = tokens[i]
        if token == "load":
            if i + 1 >= len(tokens):
                raise DslError("'load' needs a source", line_no)
            source = tokens[i + 1]
            if source == "memory":
                load = _LoadSpec("memory")
            elif source.startswith("cache:"):
                candidates = tuple(s.strip() for s in source[6:].split("|"))
                for candidate in candidates:
                    if candidate not in states or candidate == invalid:
                        raise DslError(
                            f"bad load source state {candidate!r}", line_no
                        )
                load = _LoadSpec("cache", candidates)
            else:
                raise DslError(f"bad load source {source!r}", line_no)
            i += 2
        elif token == "writeback":
            if i + 1 >= len(tokens):
                raise DslError("'writeback' needs a source", line_no)
            source = tokens[i + 1]
            if source == "self":
                writeback = INITIATOR
            elif source in states and source != invalid:
                writeback = source
            else:
                raise DslError(f"bad writeback source {source!r}", line_no)
            i += 2
        elif token == "writethrough":
            write_through = True
            i += 1
        else:
            raise DslError(f"unexpected token {token!r}", line_no)

    # Observers: "S => S' [updated]" comma-separated; "all" expands.
    observers: list[tuple[str, str, bool]] = []
    observer_text = observer_text.strip()
    if observer_text:
        for clause in observer_text.split(","):
            parts = clause.split("=>")
            if len(parts) != 2:
                raise DslError(f"cannot parse observer clause {clause!r}", line_no)
            source = parts[0].strip()
            target_tokens = parts[1].split()
            if not target_tokens:
                raise DslError(f"observer clause {clause!r} has no target", line_no)
            target = target_tokens[0]
            updated = len(target_tokens) > 1 and target_tokens[1] == "updated"
            if len(target_tokens) > 2 or (
                len(target_tokens) == 2 and not updated
            ):
                raise DslError(f"bad observer clause {clause!r}", line_no)
            if target not in states:
                raise DslError(f"unknown observer target {target!r}", line_no)
            if source == "all":
                for valid_state in states:
                    if valid_state != invalid:
                        observers.append((valid_state, target, updated))
            elif source in states and source != invalid:
                observers.append((source, target, updated))
            else:
                raise DslError(f"bad observer source {source!r}", line_no)

    return _Rule(
        state=state,
        op=op,
        guard=guard,
        next_state=next_state,
        load=load,
        writeback=writeback,
        write_through=write_through,
        observers=tuple(observers),
        line_no=line_no,
        col=col,
    )


# ----------------------------------------------------------------------
# The compiled protocol
# ----------------------------------------------------------------------
class DslProtocol(ProtocolSpec):
    """A protocol compiled from a DSL specification.

    Behaves exactly like a hand-written :class:`ProtocolSpec`: it can be
    verified symbolically, enumerated concretely and executed on the
    simulator.  Rules are matched in declaration order; the first rule
    whose state, operation and guard match produces the outcome.
    """

    def __init__(
        self,
        *,
        name: str,
        full_name: str,
        states: tuple[str, ...],
        invalid: str,
        uses_sharing_detection: bool,
        owner_states: tuple[str, ...],
        error_patterns: tuple[StatePattern, ...],
        rules: tuple[_Rule, ...],
        source: str,
        operations: tuple[Op, ...] = (Op.READ, Op.WRITE, Op.REPLACE),
        restrictions: tuple[tuple[Op, str, frozenset[str]], ...] = (),
        origins: dict[str, Origin] | None = None,
        forbid_origins: tuple[Origin, ...] = (),
        restrict_origins: tuple[Origin, ...] = (),
        suppressions: dict[int, tuple[str, ...]] | None = None,
        source_path: str | None = None,
    ) -> None:
        self.name = name
        self.full_name = full_name
        self.states = states
        self.invalid = invalid
        self.uses_sharing_detection = uses_sharing_detection
        self.owner_states = owner_states
        self.error_patterns = error_patterns
        self.operations = operations
        self._rules = rules
        #: (op, "only-from"/"not-from", states) applicability limits.
        self._restrictions = restrictions
        #: The original specification text (round-trip/debugging).
        self.source = source
        #: Source positions of the singleton directives, keyed by
        #: directive name ("states", "invalid", "sharing-detection",
        #: "owners", "operations", "protocol").
        self.origins = origins or {}
        #: Source positions aligned with :attr:`error_patterns`.
        self.forbid_origins = forbid_origins
        #: Source positions aligned with the restriction tuples.
        self.restrict_origins = restrict_origins
        #: ``# lint: ignore[...]`` markers: line number -> suppressed
        #: rule ids (an empty tuple silences every rule on that line).
        self.lint_suppressions = suppressions or {}
        #: Path of the specification file, when loaded from one.
        self.source_path = source_path

    def applicable(self, state: str, op: Op) -> bool:
        """Operation applicability; see :meth:`ProtocolSpec.applicable`."""
        for r_op, mode, symbols in self._restrictions:
            if r_op is not op:
                continue
            if mode == "only-from" and state not in symbols:
                return False
            if mode == "not-from" and state in symbols:
                return False
        return super().applicable(state, op)

    def react(self, state: str, op: Op, ctx: Ctx) -> Outcome:
        """Protocol reaction; see :meth:`ProtocolSpec.react`."""
        for rule in self._rules:
            if rule.state == state and rule.op is op and rule.guard.evaluate(ctx):
                return rule.outcome(ctx)
        near = [r.line_no for r in self._rules if r.state == state and r.op is op]
        hint = (
            f" (guarded rules at line{'s' if len(near) > 1 else ''} "
            f"{', '.join(map(str, near))} do not cover this context)"
            if near
            else ""
        )
        raise ProtocolDefinitionError(
            f"{self.name}: no rule matches ({state}, {op.value}, "
            f"present={sorted(ctx.present)}){hint}"
        )

    def rules_for(self, state: str, op: Op) -> list[_Rule]:
        """The declaration-ordered rules for one (state, op) pair."""
        return [r for r in self._rules if r.state == state and r.op is op]

    def to_ir(self):
        """Lower this spec to the canonical guarded-action IR.

        Convenience for :func:`repro.ir.lower_dsl`: the returned
        :class:`~repro.ir.ProtocolIR` is exact (one IR transition per
        compiled rule, with source origins preserved), serializable via
        ``to_dict()`` and fingerprintable.
        """
        from ..ir import lower_dsl  # local: repro.ir imports this module

        return lower_dsl(self)


def parse_protocol(
    text: str, *, default_name: str = "unnamed", source_path: str | None = None
) -> DslProtocol:
    """Compile a protocol specification from its source text.

    Raises :class:`DslError` with a line number on the first problem.
    The returned protocol has **not** been validated yet -- call
    :meth:`~repro.core.protocol.ProtocolSpec.validate` (or use
    :func:`load_protocol`, which does) before trusting it.
    """
    name = default_name
    full_name = ""
    states: tuple[str, ...] = ()
    invalid: str | None = None
    sharing = False
    owners: tuple[str, ...] = ()
    patterns: list[StatePattern] = []
    pending_rules: list[tuple[int, int, str]] = []
    operations: tuple[Op, ...] = (Op.READ, Op.WRITE, Op.REPLACE)
    restrictions: list[tuple[Op, str, frozenset[str]]] = []
    origins: dict[str, Origin] = {}
    forbid_origins: list[Origin] = []
    restrict_origins: list[Origin] = []
    suppressions: dict[int, tuple[str, ...]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        code, _, comment = raw.partition("#")
        if comment:
            marker = _SUPPRESS_RE.search(comment)
            if marker:
                suppressions[line_no] = tuple(
                    part.strip()
                    for part in (marker.group(1) or "").split(",")
                    if part.strip()
                )
        line = code.strip()
        if not line:
            continue
        col = len(code) - len(code.lstrip()) + 1
        directive, _, body = line.partition(" ")
        body = body.strip()
        if directive in ("protocol", "states", "invalid", "sharing-detection",
                         "owners", "operations", "title"):
            origins[directive] = Origin(line_no, col)
        if directive == "protocol":
            if not body:
                raise DslError("'protocol' needs a name", line_no)
            name = body
        elif directive == "title":
            full_name = body
        elif directive == "states":
            states = tuple(body.split())
            if len(states) < 2:
                raise DslError("need at least two states", line_no)
        elif directive == "invalid":
            invalid = body
        elif directive == "sharing-detection":
            if body not in ("on", "off"):
                raise DslError("sharing-detection must be 'on' or 'off'", line_no)
            sharing = body == "on"
        elif directive == "owners":
            owners = tuple(body.split())
        elif directive == "forbid":
            kind, _, rest = body.partition(" ")
            symbols = rest.split()
            if kind == "multiple" and len(symbols) == 1:
                patterns.append(ForbidMultiple(symbols[0]))
                forbid_origins.append(Origin(line_no, col))
            elif kind == "together" and len(symbols) == 2:
                patterns.append(ForbidTogether(symbols[0], symbols[1]))
                forbid_origins.append(Origin(line_no, col))
            else:
                raise DslError(f"cannot parse forbid directive {body!r}", line_no)
        elif directive == "operations":
            symbols = body.split()
            if not symbols:
                raise DslError("'operations' needs at least one op", line_no)
            ops: list[Op] = []
            for symbol in symbols:
                if symbol.upper() not in _OPS:
                    raise DslError(f"unknown operation {symbol!r}", line_no)
                ops.append(_OPS[symbol.upper()])
            operations = tuple(dict.fromkeys(ops))
        elif directive == "restrict":
            parts = body.split()
            if (
                len(parts) < 3
                or parts[0].upper() not in _OPS
                or parts[1] not in ("only-from", "not-from")
            ):
                raise DslError(
                    f"cannot parse restrict directive {body!r} "
                    "(expected: restrict <op> only-from|not-from <states>)",
                    line_no,
                )
            restrictions.append(
                (_OPS[parts[0].upper()], parts[1], frozenset(parts[2:]))
            )
            restrict_origins.append(Origin(line_no, col))
        elif directive == "on":
            pending_rules.append((line_no, col, body))
        else:
            raise DslError(f"unknown directive {directive!r}", line_no)

    if not states:
        raise DslError("specification defines no states")
    if invalid is None:
        raise DslError("specification names no invalid state")
    if invalid not in states:
        raise DslError(f"invalid state {invalid!r} not among states")
    for symbol in owners:
        if symbol not in states:
            raise DslError(f"owner state {symbol!r} not among states")
    for pattern in patterns:
        for symbol in (
            (pattern.symbol,)
            if isinstance(pattern, ForbidMultiple)
            else (pattern.a, pattern.b)
        ):
            if symbol not in states:
                raise DslError(f"forbid references unknown state {symbol!r}")

    rules = tuple(
        _parse_rule(body, states, invalid, line_no, col)
        for line_no, col, body in pending_rules
    )
    if not rules:
        raise DslError("specification defines no transition rules")

    for _, _, symbols in restrictions:
        for symbol in symbols:
            if symbol not in states:
                raise DslError(f"restrict references unknown state {symbol!r}")

    return DslProtocol(
        name=name,
        full_name=full_name or name,
        states=states,
        invalid=invalid,
        uses_sharing_detection=sharing,
        owner_states=owners,
        error_patterns=tuple(patterns),
        rules=rules,
        source=text,
        operations=operations,
        restrictions=tuple(restrictions),
        origins=origins,
        forbid_origins=tuple(forbid_origins),
        restrict_origins=tuple(restrict_origins),
        suppressions=suppressions,
        source_path=source_path,
    )


def parse_protocol_file(path: str | Path) -> DslProtocol:
    """Parse (not validate) a protocol specification file."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_protocol(text, default_name=Path(path).stem, source_path=str(path))


def load_protocol(path: str | Path) -> DslProtocol:
    """Parse **and validate** a protocol specification file."""
    protocol = parse_protocol_file(path)
    protocol.validate()
    return protocol


def builtin_spec_names() -> tuple[str, ...]:
    """Names of the specification files shipped inside the package."""
    from importlib import resources

    specs = resources.files(__package__) / "specs"
    return tuple(
        sorted(p.name[: -len(".proto")] for p in specs.iterdir() if p.name.endswith(".proto"))
    )


def load_builtin(name: str) -> DslProtocol:
    """Load and validate a specification shipped with the package.

    ``name`` is the file stem, e.g. ``"illinois"`` for
    ``specs/illinois.proto``.
    """
    from importlib import resources

    specs = resources.files(__package__) / "specs"
    candidate = specs / f"{name}.proto"
    try:
        text = candidate.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(builtin_spec_names())
        raise KeyError(f"unknown builtin spec {name!r}; known: {known}") from None
    protocol = parse_protocol(
        text, default_name=f"{name}-dsl", source_path=str(candidate)
    )
    protocol.validate()
    return protocol
