"""Seeded generation of arbitrary well-formed protocol specifications.

The generator draws random-but-structured protocols no human wrote:
random state sets, transition tables, observer reactions, write-back /
write-through mixes, cache-to-cache supply chains, with and without
the sharing-detection characteristic function.  Most drawn protocols
are *incoherent* -- they leak obsolete data or violate their own
forbidden patterns -- and that is the point: the differential oracle
(:func:`repro.enumeration.crossval.run_oracle`) does not care whether
a protocol is correct, only that the symbolic and concrete engines
agree about it.

Well-formedness is layered:

* **by construction** -- every ``(state, op)`` group ends in an
  unguarded fallback rule (the FSM is total), fills from the invalid
  state always name a data source, cache suppliers and write-back
  sources are guarded by the matching ``has(...)`` atom, ``any`` /
  ``none`` guards only appear when sharing-detection is on, and a
  generated reachability chain gives every state an incoming edge;
* **checked** -- the caller still runs
  :meth:`~repro.core.protocol.ProtocolSpec.validate` and the
  :mod:`repro.lint` preflight over each draw (see
  :func:`SpecGenerator.draw_checked`); draws that fail are counted as
  rejected (``testkit.specs.rejected``) and redrawn.

Everything is driven by one :class:`random.Random` seed, so a
campaign is replayable: the same seed yields the same specifications,
byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from ..core.protocol import ProtocolDefinitionError
from ..obs.collector import count as _count
from ..protocols.dsl import DslError, DslProtocol, parse_protocol

__all__ = [
    "RuleModel",
    "SpecModel",
    "GeneratorConfig",
    "SpecGenerator",
    "source_digest",
]

#: Pool of FSM state symbols; the invalid state is always ``I``.
_STATE_POOL = ("A", "B", "C", "D", "E", "F", "G")
_INVALID = "I"


def source_digest(source: str) -> str:
    """Stable content hash (hex SHA-256) of a DSL source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RuleModel:
    """One ``on ...`` directive in structured form.

    The shrinker edits these; :meth:`render` turns one back into a DSL
    line.  ``load`` is ``"memory"`` or ``"cache:X"``; ``writeback`` is
    ``"self"`` or a state symbol; ``observers`` are ``(source, target,
    updated)`` triples.
    """

    state: str
    op: str
    guard: str | None
    next: str
    load: str | None = None
    writeback: str | None = None
    writethrough: bool = False
    observers: tuple[tuple[str, str, bool], ...] = ()
    stalled: bool = False

    def render(self) -> str:
        """The DSL line for this rule."""
        head = f"on {self.state} {self.op}"
        if self.guard:
            head += f" if {self.guard}"
        if self.stalled:
            return f"{head} -> stall"
        body = f"{head} -> {self.next}"
        if self.load:
            body += f" load {self.load}"
        if self.writeback:
            body += f" writeback {self.writeback}"
        if self.writethrough:
            body += " writethrough"
        if self.observers:
            clauses = ", ".join(
                f"{src} => {dst}" + (" updated" if updated else "")
                for src, dst, updated in self.observers
            )
            body += f" ; {clauses}"
        return body

    def mentions(self, symbol: str) -> bool:
        """Whether this rule references *symbol* anywhere."""
        if symbol in (self.state, self.next, self.writeback):
            return True
        if self.load is not None and self.load.startswith("cache:"):
            if symbol in self.load[len("cache:"):].split("|"):
                return True
        if self.guard and f"has({symbol})" in self.guard:
            return True
        return any(symbol in (src, dst) for src, dst, _ in self.observers)


@dataclass(frozen=True)
class SpecModel:
    """A structured protocol specification that renders to DSL text.

    This is the substrate both the generator and the shrinker work on:
    cheap to copy, trivially editable, and :meth:`compile` turns it
    into a live :class:`~repro.protocols.dsl.DslProtocol` through the
    ordinary parser, so a model is exactly as trustworthy as its DSL
    rendering.
    """

    name: str
    states: tuple[str, ...]
    invalid: str
    sharing: bool
    forbids: tuple[tuple[str, ...], ...] = ()
    rules: tuple[RuleModel, ...] = ()

    def render(self) -> str:
        """Deterministic DSL source text for this model."""
        lines = [
            f"protocol {self.name}",
            f"states {' '.join(self.states)}",
            f"invalid {self.invalid}",
            f"sharing-detection {'on' if self.sharing else 'off'}",
        ]
        for forbid in self.forbids:
            lines.append(f"forbid {' '.join(forbid)}")
        lines.extend(rule.render() for rule in self.rules)
        return "\n".join(lines) + "\n"

    def compile(self) -> DslProtocol:
        """Parse (but do not validate) the rendered specification."""
        return parse_protocol(self.render(), default_name=self.name)

    def compile_checked(self) -> DslProtocol:
        """Parse **and** structurally validate the specification.

        Raises :class:`DslError` or :class:`ProtocolDefinitionError`
        when the model is ill-formed.
        """
        spec = self.compile()
        spec.validate()
        return spec

    def digest(self) -> str:
        """Content hash of the rendered source."""
        return source_digest(self.render())

    # -- shrink-oriented edits -----------------------------------------
    def without_rule(self, index: int) -> "SpecModel":
        """A copy with rule *index* removed."""
        return replace(
            self, rules=self.rules[:index] + self.rules[index + 1 :]
        )

    def without_state(self, symbol: str) -> "SpecModel":
        """A copy with *symbol* (and everything referencing it) removed."""
        if symbol == self.invalid:
            raise ValueError("cannot remove the invalid state")
        return replace(
            self,
            states=tuple(s for s in self.states if s != symbol),
            forbids=tuple(f for f in self.forbids if symbol not in f[1:]),
            rules=tuple(r for r in self.rules if not r.mentions(symbol)),
        )

    def without_forbid(self, index: int) -> "SpecModel":
        """A copy with forbidden-pattern *index* removed."""
        return replace(
            self, forbids=self.forbids[:index] + self.forbids[index + 1 :]
        )

    def with_rule(self, index: int, rule: RuleModel) -> "SpecModel":
        """A copy with rule *index* replaced by *rule*."""
        return replace(
            self,
            rules=self.rules[:index] + (rule,) + self.rules[index + 1 :],
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable shape of the drawn specifications."""

    #: Bounds on the number of *valid* (non-invalid) states.
    min_states: int = 2
    max_states: int = 4
    #: Probability a drawn protocol uses the sharing-detection wire.
    p_sharing: float = 0.5
    #: Probability a write is propagated to memory (write-through).
    p_writethrough: float = 0.3
    #: Probability a write broadcasts an update instead of invalidating.
    p_update: float = 0.2
    #: Probability of an extra guarded rule ahead of a group's fallback.
    p_guarded: float = 0.4
    #: Probability a replacement flushes the copy (write-back).
    p_replace_writeback: float = 0.5
    #: Probability of each forbidden-pattern directive.
    p_forbid_multiple: float = 0.5
    p_forbid_together: float = 0.25
    #: Probability of stalling rules (a guarded stall ahead of a miss
    #: fallback, or a replacement that stalls forever).  Off by
    #: default: the knob exists for liveness fuzzing, and keeping it at
    #: exactly 0.0 makes no extra RNG draws, so default-config streams
    #: are unchanged.
    p_stall: float = 0.0


@dataclass
class SpecGenerator:
    """Seeded stream of well-formed :class:`SpecModel` draws.

    One generator owns one :class:`random.Random`; drawing advances it,
    so a fixed seed replays the identical sequence of specifications.
    """

    seed: int = 0
    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    #: Draws attempted (generated), including ones later rejected.
    generated: int = 0
    #: Draws rejected by validation or the lint preflight.
    rejected: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    def draw(self) -> SpecModel:
        """Draw the next specification model (unchecked)."""
        rng = self._rng
        cfg = self.config
        self.generated += 1
        _count("testkit.specs.generated")

        valid = list(_STATE_POOL[: rng.randint(cfg.min_states, cfg.max_states)])
        states = (_INVALID, *valid)
        sharing = rng.random() < cfg.p_sharing
        name = f"gen-{self.seed}-{self.generated}"

        # A reachability chain: the read-miss fill lands in chain[0] and
        # each chain state's write fallback moves to its successor, so
        # every valid state has an incoming edge from a reachable one.
        chain = list(valid)
        rng.shuffle(chain)
        chain_next = {
            chain[i]: chain[i + 1] for i in range(len(chain) - 1)
        }

        rules: list[RuleModel] = []
        rules.extend(self._miss_rules("R", chain[0], valid, sharing, rng))
        rules.extend(self._miss_rules("W", rng.choice(valid), valid, sharing, rng))
        for state in valid:
            rules.extend(self._hit_rules(state, valid, sharing, chain_next, rng))

        forbids: list[tuple[str, ...]] = []
        if rng.random() < cfg.p_forbid_multiple:
            forbids.append(("multiple", rng.choice(valid)))
        if len(valid) >= 2 and rng.random() < cfg.p_forbid_together:
            a, b = rng.sample(valid, 2)
            forbids.append(("together", a, b))

        return SpecModel(
            name=name,
            states=states,
            invalid=_INVALID,
            sharing=sharing,
            forbids=tuple(forbids),
            rules=tuple(rules),
        )

    def draw_checked(self, max_attempts: int = 200) -> tuple[SpecModel, DslProtocol]:
        """Draw until a specification passes validation and the linter.

        Runs :meth:`~repro.core.protocol.ProtocolSpec.validate` plus
        the :mod:`repro.lint` preflight over each draw; failing draws
        increment :attr:`rejected` (and the
        ``testkit.specs.rejected`` counter) and are redrawn.  Raises
        ``RuntimeError`` after *max_attempts* consecutive rejections.
        """
        from ..lint import lint_spec

        for _ in range(max_attempts):
            model = self.draw()
            try:
                spec = model.compile_checked()
            except (DslError, ProtocolDefinitionError):
                self.rejected += 1
                _count("testkit.specs.rejected")
                continue
            if not lint_spec(spec).ok:
                self.rejected += 1
                _count("testkit.specs.rejected")
                continue
            return model, spec
        raise RuntimeError(
            f"generator seed={self.seed}: {max_attempts} consecutive draws "
            "rejected by validation/lint"
        )

    def stream_checked(self) -> Iterator[tuple[SpecModel, DslProtocol]]:
        """Endless stream of checked draws."""
        while True:
            yield self.draw_checked()

    # ------------------------------------------------------------------
    def _observers(
        self,
        valid: list[str],
        rng: random.Random,
        *,
        write: bool,
    ) -> tuple[tuple[str, str, bool], ...]:
        """A random observer-reaction map for one rule."""
        roll = rng.random()
        if write and roll < 0.45:
            # Invalidation broadcast: every valid copy is dropped.
            return tuple((s, _INVALID, False) for s in valid)
        if write and roll < 0.45 + self.config.p_update:
            # Update broadcast: every valid copy receives the new value.
            target = rng.choice(valid)
            return tuple((s, target, True) for s in valid)
        if not write and roll < 0.35:
            # Read-miss demotion: a chosen class snoops to a new state.
            src = rng.choice(valid)
            return ((src, rng.choice(valid), False),)
        return ()

    def _miss_rules(
        self,
        op: str,
        fill: str,
        valid: list[str],
        sharing: bool,
        rng: random.Random,
    ) -> list[RuleModel]:
        """The rule group for ``(invalid, op)``: guarded fills + fallback."""
        cfg = self.config
        rules: list[RuleModel] = []
        if cfg.p_stall and rng.random() < cfg.p_stall:
            blocker = rng.choice(valid)
            rules.append(
                RuleModel(
                    state=_INVALID,
                    op=op,
                    guard=f"has({blocker})",
                    next=_INVALID,
                    stalled=True,
                )
            )
        if rng.random() < cfg.p_guarded:
            supplier = rng.choice(valid)
            rules.append(
                RuleModel(
                    state=_INVALID,
                    op=op,
                    guard=f"has({supplier})",
                    next=rng.choice(valid),
                    load=f"cache:{supplier}",
                    writeback=supplier if rng.random() < 0.4 else None,
                    observers=self._observers(valid, rng, write=op == "W"),
                )
            )
        if sharing and rng.random() < cfg.p_guarded:
            rules.append(
                RuleModel(
                    state=_INVALID,
                    op=op,
                    guard="any",
                    next=rng.choice(valid),
                    load="memory",
                    observers=self._observers(valid, rng, write=op == "W"),
                )
            )
        rules.append(
            RuleModel(
                state=_INVALID,
                op=op,
                guard=None,
                next=fill,
                load="memory",
                writethrough=op == "W" and rng.random() < cfg.p_writethrough,
                observers=self._observers(valid, rng, write=op == "W"),
            )
        )
        return rules

    def _hit_rules(
        self,
        state: str,
        valid: list[str],
        sharing: bool,
        chain_next: dict[str, str],
        rng: random.Random,
    ) -> list[RuleModel]:
        """The rule groups for ``(state, R/W/Z)`` of one valid state."""
        cfg = self.config
        rules: list[RuleModel] = []

        # Read hit: stay put, occasionally behind a guarded reroute.
        if sharing and rng.random() < cfg.p_guarded / 2:
            rules.append(
                RuleModel(
                    state=state, op="R", guard="any", next=rng.choice(valid)
                )
            )
        rules.append(RuleModel(state=state, op="R", guard=None, next=state))

        # Write hit: the chain fallback keeps every state reachable;
        # guarded variants explore promotions and broadcasts.
        if sharing and rng.random() < cfg.p_guarded:
            rules.append(
                RuleModel(
                    state=state,
                    op="W",
                    guard="none",
                    next=rng.choice(valid),
                )
            )
        rules.append(
            RuleModel(
                state=state,
                op="W",
                guard=None,
                next=chain_next.get(state, rng.choice(valid)),
                writethrough=rng.random() < cfg.p_writethrough,
                observers=self._observers(valid, rng, write=True),
            )
        )

        # Replacement always lands in the invalid state -- unless the
        # stall knob turns it into an eviction that never happens,
        # which pins the copy forever (the canonical starvation seed).
        if cfg.p_stall and rng.random() < cfg.p_stall:
            rules.append(
                RuleModel(
                    state=state, op="Z", guard=None, next=state, stalled=True
                )
            )
        else:
            rules.append(
                RuleModel(
                    state=state,
                    op="Z",
                    guard=None,
                    next=_INVALID,
                    writeback="self"
                    if rng.random() < cfg.p_replace_writeback
                    else None,
                )
            )
        return rules
