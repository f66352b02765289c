"""Composite states (paper Definitions 4, 6 and 7).

A *composite state* represents the global state of one memory block in a
system with an **arbitrary** number of caches.  Caches holding the same
FSM state are grouped into a class annotated with a repetition operator
(:mod:`repro.core.operators`).

Two extensions beyond the bare Definition 7 are carried by the state so
that verification per the paper is possible:

* a :class:`~repro.core.symbols.SharingLevel` annotation records the
  value of the sharing-detection characteristic function at the moment
  the state was constructed (Section 4 explains why ``(Shared+, Inv*)``
  with sharing *v3* and ``(Shared, Inv+)`` with sharing *v2* must remain
  distinct);
* in *augmented* mode (Definition 4) every class label additionally
  carries the ``cdata`` context variable of its members and the state
  carries the global ``mdata`` variable, enabling the data-consistency
  check of Definition 3.

States are immutable, hashable values; all mutation happens by
constructing new states through :func:`make_state`, which applies the
aggregation rules so the representation is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .operators import (
    Interval,
    Rep,
    aggregate,
    interval_of,
    interval_sum,
    rep_from_interval,
)
from .symbols import DataValue, SharingLevel

__all__ = [
    "Label",
    "CompositeState",
    "make_state",
    "parse_class_spec",
]


@dataclass(frozen=True)
class Label:
    """Identity of a cache-state class.

    ``symbol`` is the protocol FSM state symbol (e.g. ``"Dirty"``).  In
    augmented mode ``data`` is the ``cdata`` context variable shared by
    every member of the class; in structural mode it is ``None``.
    """

    symbol: str
    data: DataValue | None = None

    @property
    def sort_key(self) -> tuple[str, str]:
        """Total ordering key (structural labels sort before augmented)."""
        cached = self.__dict__.get("_sort_key")
        if cached is None:
            cached = (self.symbol, "" if self.data is None else self.data.value)
            object.__setattr__(self, "_sort_key", cached)
        return cached

    def __lt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        if self.data is None:
            return self.symbol
        return f"{self.symbol}:{self.data.value}"

    def with_symbol(self, symbol: str) -> "Label":
        """Return a copy of this label with a different state symbol."""
        return Label(symbol, self.data)

    def with_data(self, data: DataValue | None) -> "Label":
        """Return a copy of this label with a different data value."""
        return Label(self.symbol, data)


@dataclass(frozen=True)
class CompositeState:
    """A canonical composite state.

    ``classes`` maps each present class label to its repetition operator;
    absent labels implicitly carry operator ``0`` (footnote 3 of the
    paper).  ``sharing`` is the stored characteristic-function value for
    sharing-detection protocols (``None`` for null-``F`` protocols) and
    ``mdata`` is the memory context variable in augmented mode.

    Use :func:`make_state` rather than the raw constructor; it sorts,
    aggregates and validates.
    """

    classes: tuple[tuple[Label, Rep], ...]
    sharing: SharingLevel | None = None
    mdata: DataValue | None = None

    def __hash__(self) -> int:
        # States are hashed millions of times during containment
        # pruning; cache the value (the dataclass is frozen).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.classes, self.sharing, self.mdata))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def rep_of(self, label: Label) -> Rep:
        """Operator of *label*'s class (``Rep.ZERO`` when absent)."""
        for lbl, rep in self.classes:
            if lbl == label:
                return rep
        return Rep.ZERO

    def labels(self) -> tuple[Label, ...]:
        """All present class labels, in canonical order."""
        return tuple(lbl for lbl, _ in self.classes)

    def items(self) -> Iterator[tuple[Label, Rep]]:
        """Iterate over ``(label, operator)`` pairs of present classes."""
        return iter(self.classes)

    def symbols(self) -> frozenset[str]:
        """Set of FSM state symbols with at least a potential member."""
        return frozenset(lbl.symbol for lbl, _ in self.classes)

    def symbol_interval(self, symbol: str) -> Interval:
        """Count interval for caches whose FSM state is *symbol*.

        Sums the intervals of every class sharing the symbol (augmented
        mode can hold several classes per symbol with different
        ``cdata``).
        """
        return interval_sum(
            interval_of(rep) for lbl, rep in self.classes if lbl.symbol == symbol
        )

    def symbol_rep(self, symbol: str) -> Rep:
        """Weakest operator covering the total count of *symbol*."""
        lo, hi = self.symbol_interval(symbol)
        return rep_from_interval(lo, hi)

    def copies_interval(self, invalid: str) -> Interval:
        """Count interval of valid cached copies (non-*invalid* caches)."""
        return interval_sum(
            interval_of(rep)
            for lbl, rep in self.classes
            if lbl.symbol != invalid
        )

    @property
    def is_augmented(self) -> bool:
        """True when class labels carry ``cdata`` context variables."""
        return any(lbl.data is not None for lbl, _ in self.classes)

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_consistent(self, invalid: str) -> None:
        """Raise ``ValueError`` if annotations contradict the structure.

        The stored sharing level must intersect the structural interval
        of valid-copy counts, and invalid-class labels in augmented mode
        must carry ``nodata``.
        """
        if self.sharing is not None:
            lo, hi = self.copies_interval(invalid)
            slo, shi = self.sharing.as_interval()
            upper_ok = hi is None or slo <= hi
            lower_ok = shi is None or lo <= shi
            if not (upper_ok and lower_ok):
                raise ValueError(
                    f"sharing level {self.sharing} inconsistent with "
                    f"copy interval [{lo}, {hi}] in {self}"
                )
        for lbl, _ in self.classes:
            if lbl.data is not None:
                if (lbl.symbol == invalid) != (lbl.data is DataValue.NODATA):
                    raise ValueError(
                        f"label {lbl} violates the invalid/nodata pairing"
                    )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def pretty(self, *, annotations: bool = True) -> str:
        """Human-readable rendering, e.g. ``(Shared+, Inv*) [sharing=many]``."""
        if annotations:
            # A result renders each state once per witness step and
            # payload entry; cache the annotated form like the hash.
            cached = self.__dict__.get("_pretty")
            if cached is None:
                cached = self._render(True)
                object.__setattr__(self, "_pretty", cached)
            return cached
        return self._render(False)

    def _render(self, annotations: bool) -> str:
        if not self.classes:
            body = "(empty)"
        else:
            parts = []
            for lbl, rep in self.classes:
                suffix = "" if rep is Rep.ONE else rep.value
                parts.append(f"{lbl}{suffix}")
            body = "(" + ", ".join(parts) + ")"
        if not annotations:
            return body
        notes = []
        if self.sharing is not None:
            notes.append(f"sharing={self.sharing.value}")
        if self.mdata is not None:
            notes.append(f"mdata={self.mdata.value}")
        if notes:
            return f"{body} [{', '.join(notes)}]"
        return body

    def structure_key(self) -> tuple[tuple[Label, Rep], ...]:
        """Hashable key for the bare structure (no annotations)."""
        return self.classes

    def __str__(self) -> str:
        return self.pretty()


def make_state(
    pieces: Mapping[Label, Rep] | Iterable[tuple[Label, Rep]],
    *,
    sharing: SharingLevel | None = None,
    mdata: DataValue | None = None,
) -> CompositeState:
    """Build a canonical :class:`CompositeState` from class pieces.

    Pieces with the same label are merged with the aggregation rules;
    ``Rep.ZERO`` classes are dropped; classes are sorted into a canonical
    order so equal states compare equal.
    """
    merged: dict[Label, Rep] = {}
    items = pieces.items() if isinstance(pieces, Mapping) else pieces
    for label, rep in items:
        if not isinstance(rep, Rep):
            raise TypeError(f"expected Rep, got {rep!r}")
        if label in merged:
            merged[label] = aggregate(merged[label], rep)
        elif rep is not Rep.ZERO:
            merged[label] = rep
    classes = tuple(sorted(merged.items(), key=lambda it: it[0]))
    return CompositeState(classes=classes, sharing=sharing, mdata=mdata)


_REP_SUFFIXES = {"+": Rep.PLUS, "*": Rep.STAR}


def parse_class_spec(text: str) -> tuple[str, Rep]:
    """Parse a compact class spec like ``"Shared+"`` or ``"Inv*"``.

    A trailing ``+`` or ``*`` selects the operator; no suffix means the
    singleton operator.  Used by tests and the CLI to write states the
    way the paper does.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty class spec")
    if text[-1] in _REP_SUFFIXES:
        return text[:-1], _REP_SUFFIXES[text[-1]]
    return text, Rep.ONE
