"""Run options: every knob of one verification run, validated once.

:class:`RunOptions` is the single bundle that :func:`repro.verify`,
:class:`repro.engine.VerificationJob`, the campaign service's
``CampaignRequest``, the fuzz ``CampaignConfig`` and the CLI all take.
Its canonical dictionary (:meth:`RunOptions.to_dict`) is at once the
JSON form (journal and cache metadata), the HTTP form (the flat option
keys of a ``POST /campaigns`` body) and -- minus ``preflight`` and
``backend`` -- the options' contribution to the result-cache key.
:meth:`add_arguments` is the only place the matching CLI flags are
registered, so a new run option touches this class and nothing else.

Stdlib-only on purpose: the CLI imports this module on every start-up,
so it must not pull in the linter, the kernel, the liveness pass or the
engine (``budget()`` imports the engine's guard lazily).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Budget

__all__ = ["BACKENDS", "MODES", "PREFLIGHTS", "PRUNINGS", "RunOptions"]

#: What is checked: the paper's reachability checks, or those plus the
#: starvation analysis (:mod:`repro.liveness`).
MODES: tuple[str, ...] = ("safety", "liveness")
#: Expansion engines: the symbolic interpreter (the readable reference)
#: or the compiled kernel (the default; identical results).
BACKENDS: tuple[str, ...] = ("interp", "kernel")
#: Static-analysis preflight before verification.
PREFLIGHTS: tuple[str, ...] = ("off", "reject", "annotate")
#: Pruning rules (the values of :class:`repro.core.essential.PruningMode`).
PRUNINGS: tuple[str, ...] = ("containment", "duplicates")


@dataclass(frozen=True)
class RunOptions:
    """How to verify a specification (not *which* one, nor *where*).

    ``augmented`` runs the expansion with context variables (``False``
    is the paper's structural mode); ``pruning`` picks Definition 9
    containment or duplicate-only pruning; ``mode`` adds the liveness
    pass (``"liveness"`` checks safety *and* starvation); ``backend``
    picks the compiled kernel (default) or the interpreter (identical
    verdicts);
    ``preflight`` lints the spec first (``"reject"`` refuses specs with
    error findings, ``"annotate"`` only records them).

    ``max_visits`` is the hard visit limit; ``deadline`` (seconds),
    ``max_states`` and ``max_rss_mb`` are cooperative budgets -- an
    exhausted budget yields a *partial* result, never an exception.

    Every field except ``preflight`` and ``backend`` is part of the
    result-cache key: neither changes a verification payload.
    """

    augmented: bool = True
    pruning: str = "containment"
    mode: str = "safety"
    backend: str = "kernel"
    preflight: str = "off"
    max_visits: int = 1_000_000
    deadline: float | None = None
    max_states: int | None = None
    max_rss_mb: float | None = None

    def __post_init__(self) -> None:
        # Accept a PruningMode member but keep its plain value, so the
        # canonical dict (and hence the cache key) is plain JSON.
        object.__setattr__(
            self, "pruning", getattr(self.pruning, "value", self.pruning)
        )
        if not isinstance(self.augmented, bool):
            raise ValueError(f"augmented must be a boolean, not {self.augmented!r}")
        for name, choices in (
            ("pruning", PRUNINGS),
            ("mode", MODES),
            ("backend", BACKENDS),
            ("preflight", PREFLIGHTS),
        ):
            value = getattr(self, name)
            if value not in choices:
                hint = (
                    " ('both' was removed: 'liveness' checks safety too)"
                    if name == "mode" and value == "both"
                    else ""
                )
                raise ValueError(
                    f"{name} must be one of {', '.join(map(repr, choices))}, "
                    f"not {value!r}{hint}"
                )
        for name, kinds in (
            ("max_visits", int),
            ("deadline", (int, float)),
            ("max_states", int),
            ("max_rss_mb", (int, float)),
        ):
            value = getattr(self, name)
            if value is None and name != "max_visits":
                continue
            # bool is an int subclass, and NaN compares false with
            # everything: both would slip through a plain ``<= 0``.
            if (
                isinstance(value, bool)
                or not isinstance(value, kinds)
                or not math.isfinite(value)
                or value <= 0
            ):
                raise ValueError(
                    f"{name} must be a positive finite "
                    f"{'integer' if kinds is int else 'number'}, not {value!r}"
                )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The canonical JSON / HTTP / journal form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "RunOptions":
        """Parse :meth:`to_dict` output (or any subset of its keys).

        Raises ``ValueError`` for unknown keys and invalid values --
        the campaign service turns that into a 400.  JSON integers are
        accepted for the float-valued budgets and stored as floats.
        """
        if not isinstance(payload, dict):
            raise ValueError("run options must be a JSON object")
        unknown = set(payload) - set(FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown run options: {sorted(unknown)}")
        values = dict(payload)
        for name in ("deadline", "max_rss_mb"):
            value = values.get(name)
            if type(value) is int:
                values[name] = float(value)
        return cls(**values)

    def budget(self) -> "Budget":
        """The cooperative guard budget these options ask for."""
        from ..engine.guard import Budget

        return Budget(
            deadline=self.deadline,
            max_visits=self.max_visits,
            max_states=self.max_states,
            max_rss_mb=self.max_rss_mb,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def add_arguments(
        parser: argparse.ArgumentParser, *, only: tuple[str, ...] | None = None
    ) -> None:
        """Register the CLI flags for these options (or the ``only`` ones).

        Every flag defaults to ``None`` -- "not given" -- so
        :meth:`from_args` can layer the given flags over any base.
        """
        for name in only or FIELD_NAMES:
            flags, kwargs = _FLAGS[name]
            parser.add_argument(*flags, dest=name, default=None, **kwargs)

    @classmethod
    def from_args(
        cls, args: argparse.Namespace, base: "RunOptions | None" = None
    ) -> "RunOptions":
        """``base`` (default: the defaults) overlaid with the given flags."""
        given = {
            name: getattr(args, name)
            for name in FIELD_NAMES
            if getattr(args, name, None) is not None
        }
        return replace(base if base is not None else cls(), **given)


FIELD_NAMES: tuple[str, ...] = tuple(f.name for f in fields(RunOptions))

#: Field -> (CLI flags, argparse keyword arguments).
_FLAGS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "augmented": (
        ("--structural",),
        {"action": "store_const", "const": False, "help": "skip context variables"},
    ),
    "pruning": (
        ("--no-pruning",),
        {
            "action": "store_const",
            "const": "duplicates",
            "help": "duplicate-only pruning (no Definition 9 containment)",
        },
    ),
    "mode": (
        ("--mode",),
        {
            "choices": MODES,
            "help": "what to check: 'safety' (reachability, default) or "
            "'liveness' (safety plus starvation, with lasso "
            "counterexamples; see docs/LIVENESS.md)",
        },
    ),
    "backend": (
        ("--backend",),
        {
            "choices": BACKENDS,
            "help": "expansion engine: 'kernel' (compiled kernel, default) "
            "or 'interp' (symbolic interpreter, the readable reference); "
            "identical verdicts, so not part of the cache key",
        },
    ),
    "preflight": (
        ("--preflight",),
        {
            "nargs": "?",
            "const": "reject",
            "choices": PREFLIGHTS,
            "help": "lint each spec first: 'reject' (default when the flag "
            "is given) refuses specs with error-severity findings, "
            "'annotate' reports findings and verifies anyway",
        },
    ),
    "max_visits": (
        ("--max-visits",),
        {"type": int, "metavar": "N", "help": "state-visit budget per expansion"},
    ),
    "deadline": (
        ("--deadline",),
        {
            "type": float,
            "metavar": "SECONDS",
            "help": "cooperative wall-clock budget: an exhausted run stops "
            "cleanly with a PARTIAL result",
        },
    ),
    "max_states": (
        ("--max-states",),
        {"type": int, "metavar": "N", "help": "cooperative essential-state budget"},
    ),
    "max_rss_mb": (
        ("--max-rss-mb",),
        {"type": float, "metavar": "MB", "help": "cooperative peak-memory budget"},
    ),
}
